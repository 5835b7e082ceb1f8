"""The derivative of an expression by the full product, quotient and chain
rules, with nothing folded: `exprlang.diff` as it was before it folded
what it builds, kept so that the tests can hold the folded derivative to it.
A negation is the product with -1, as the parser builds it."""

from mangeron.exprlang import Bin, ExprError, Fun, Num, Piecewise, Var, constant


def unfolded_diff(node, var: str):
    """Unfolded derivative of an AST with respect to `var`."""
    if isinstance(node, (Num, Var)):
        return Num(1.0 if node == Var(var) else 0.0)
    if isinstance(node, Fun):
        inner = unfolded_diff(node.a, var)
        if node.name == "sin":
            return Bin("*", Fun("cos", node.a), inner)
        if node.name == "cos":
            return Bin("*", Num(-1.0), Bin("*", Fun("sin", node.a), inner))
        if node.name == "exp":
            return Bin("*", Fun("exp", node.a), inner)
    if isinstance(node, Bin) and node.op == "^":
        p = constant(node.b)
        return Bin("*", Bin("*", Num(p), Bin("^", node.a, Num(p - 1.0))),
                   unfolded_diff(node.a, var))
    if isinstance(node, Bin):
        da, db = unfolded_diff(node.a, var), unfolded_diff(node.b, var)
        if node.op in ("+", "-"):
            return Bin(node.op, da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, node.b), Bin("*", node.a, db))
        if node.op == "/":
            num = Bin("-", Bin("*", da, node.b), Bin("*", node.a, db))
            return Bin("/", num, Bin("^", node.b, Num(2.0)))
    if isinstance(node, Piecewise):
        return Piecewise(tuple((b, unfolded_diff(sub, var)) for b, sub in node.pieces))
    raise ExprError(f"cannot differentiate node {node!r}")
