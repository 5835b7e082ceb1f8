"""Tiny expression language for configuration files.

Grammar (deliberately small, no general scripting):

    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom (('^' | '**') unary)?
    atom      := NUMBER | 'pi' | variable | fn '(' expr ')' | '(' expr ')'
                 | 'zero' | piecewise
    fn        := 'sin' | 'cos' | 'exp'
    piecewise := 'piecewise' '(' piece (';' piece)* ')'
    piece     := '(' bounds ')' ':' expr
    bounds    := expr (',' expr)*

For two-variable expressions the bounds are x0, x1, y0, y1 of an
axis-aligned rectangle; for one-variable expressions they are t0, t1 of a
segment.  Pieces are evaluated by `fields.evaluate_pieces`: on a shared
edge the piece with the lexicographically smallest origin (x0, y0) wins.
The parser folds an operation on numbers to its number and reads `-a` as
`-1 * a`, so a constant (`constant`: no variable and no piecewise node, such
as `1/3` or `pi/4`) is a number.  The bounds are constants, and so is any
exponent that `diff` differentiates; `diff` folds what it builds.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import evaluate_pieces


class ExprError(ValueError):
    """Malformed expression or unsupported construct."""


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str
    a: object
    b: object


@dataclass(frozen=True)
class Fun:
    name: str
    a: object


@dataclass(frozen=True)
class Piecewise:
    pieces: tuple[tuple[tuple[float, ...], object], ...]


_ZERO, _ONE, _MINUS_ONE = Num(0.0), Num(1.0), Num(-1.0)
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMED = {"pi": float(np.pi), "zero": 0.0}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide,   # 1/0 is inf, as on arrays, not ZeroDivisionError
           "^": np.power}
_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[-+*/^(),:;])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, "^" if m.group() == "**" else m.group()))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val = self.next()
        if val != value:
            raise ExprError(f"expected {value!r}, found {val or 'end of input'!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input starting at {self.peek()[1]!r}")
        return node

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def chain(self, ops, operand):
        node = operand()
        while self.peek()[1] in ops:
            op = self.next()[1]
            node = _fold(Bin(op, node, operand()))
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return _fold(Bin("*", _MINUS_ONE, self.unary()))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            node = _fold(Bin("^", node, self.unary()))
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Num(float(val))
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if val in _NAMED:
                return Num(_NAMED[val])
            if val in _FUNCTIONS:
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return _fold(Fun(val, node))
            if val == "piecewise":
                return self.piecewise()
            if val in self.variables:
                return Var(val)
            raise ExprError(f"unknown name {val!r} (variables here: {self.variables})")
        raise ExprError(f"unexpected token {val or 'end of input'!r}")

    def piecewise(self):
        self.expect("(")
        pieces = []
        while True:
            bounds = []
            for sep in "(" + "," * (2 * len(self.variables) - 1):
                self.expect(sep)
                bounds.append(constant(self.expr()))
            self.expect(")")
            self.expect(":")
            pieces.append((tuple(bounds), self.expr()))
            kind, val = self.next()
            if val == ";":
                continue
            if val == ")":
                break
            raise ExprError(f"expected ';' or ')' in piecewise, found {val!r}")
        return Piecewise(tuple(pieces))


def parse(text: str, variables: Sequence[str] = ("x", "y")):
    """Parse an expression over the given variable names into an AST."""
    if not text.strip():
        raise ExprError("empty expression")
    return _Parser(text, variables).parse()


def evaluate(node, env: dict[str, np.ndarray]):
    """Evaluate an AST under a variable environment (numpy broadcasting)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Fun):
        return _FUNCTIONS[node.name](evaluate(node.a, env))
    if isinstance(node, Bin):
        return _BINARY[node.op](evaluate(node.a, env), evaluate(node.b, env))
    if isinstance(node, Piecewise):
        return _eval_piecewise(node, env)
    raise ExprError(f"cannot evaluate node {node!r}")


def _eval_piecewise(node: Piecewise, env: dict[str, np.ndarray]):
    names = sorted(env)
    pieces = [(bounds, lambda *vals, _sub=sub: evaluate(_sub, dict(zip(names, vals))))
              for bounds, sub in node.pieces]
    return evaluate_pieces(pieces, [env[n] for n in names], error=ExprError)


def _fold(node):
    """A `Bin` or `Fun` node, or the `Num` of the value `evaluate` gives it if
    its operands are `Num`s.  The parser and `diff` build every such node here."""
    if isinstance(node.a, Num) and isinstance(getattr(node, "b", node.a), Num):
        with np.errstate(all="ignore"):
            return Num(float(evaluate(node, {})))
    return node


def constant(node) -> float:
    """Finite value of a constant, which the parser has folded to a `Num`."""
    if not isinstance(node, Num):
        raise ExprError(f"not a constant: {to_string(node)}")
    if not np.isfinite(node.value):
        raise ExprError(f"value {node.value} is not finite")
    return node.value


def walk(node):
    """Every node of an AST, `node` first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Piecewise):
            stack.extend(sub for _, sub in node.pieces)
        else:
            stack.extend(getattr(node, k) for k in ("a", "b") if hasattr(node, k))


def _sum(a, op: str, b):
    """`a op b` for `op` "+" or "-": a zero term is dropped, and 0 - b is -1 * b."""
    if b == _ZERO:
        return a
    if a == _ZERO:
        return b if op == "+" else _product(_MINUS_ONE, b)
    return _fold(Bin(op, a, b))


def _product(a, b):
    """`a * b`: a unit factor is dropped, a zero factor gives zero, and -1
    times a product `c * r` of a number c is `(-c) * r`, which has its bits."""
    if _ZERO in (a, b):
        return _ZERO
    if _ONE in (a, b):
        return b if a == _ONE else a
    if a == _MINUS_ONE and isinstance(b, Bin) and b.op == "*" and isinstance(b.a, Num):
        return _product(Num(-b.a.value), b.b)
    return _fold(Bin("*", a, b))


def diff(node, var: str):
    """Derivative of an AST with respect to `var`, folded as it is built: the
    value of the unfolded rules up to the sign of a zero, except zero where a
    dropped zero factor multiplied a value that is not finite (0 * inf)."""
    if isinstance(node, (Num, Var)):
        return _ONE if node == Var(var) else _ZERO
    if isinstance(node, Fun):
        inner = diff(node.a, var)
        if node.name == "cos":
            return _product(_MINUS_ONE, _product(_fold(Fun("sin", node.a)), inner))
        return _product(node if node.name == "exp" else _fold(Fun("cos", node.a)), inner)
    if isinstance(node, Bin) and node.op == "^":
        try:
            p = constant(node.b)
        except ExprError as exc:
            raise ExprError("derivative of a power with non-constant exponent "
                            f"is not supported ({exc})") from exc
        return _product(_product(Num(p), _fold(Bin("^", node.a, Num(p - 1.0)))), diff(node.a, var))
    if isinstance(node, Bin):
        da, db = diff(node.a, var), diff(node.b, var)
        if node.op in ("+", "-"):
            return _sum(da, node.op, db)
        if node.op == "*":
            return _sum(_product(da, node.b), "+", _product(node.a, db))
        if node.op == "/":
            num = _sum(_product(da, node.b), "-", _product(node.a, db))
            return _fold(Bin("/", num, _fold(Bin("^", node.b, Num(2.0)))))
    if isinstance(node, Piecewise):
        return Piecewise(tuple((b, diff(sub, var)) for b, sub in node.pieces))
    raise ExprError(f"cannot differentiate node {node!r}")


def to_string(node) -> str:
    """Render an AST back to parsable text."""
    if isinstance(node, Num):
        v = node.value  # inf, -inf and nan render as 1/0, -1/0 and 0/0
        return repr(v) if np.isfinite(v) else f"({np.nan_to_num(np.sign(v)):.1f} / 0.0)"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Fun):
        return f"{node.name}({to_string(node.a)})"
    if isinstance(node, Bin):
        a = to_string(node.a)
        if node.op == "^" and a.startswith("-"):  # -2.0 ^ x would read as -(2.0 ^ x)
            a = f"({a})"
        return f"({a} {node.op} {to_string(node.b)})"
    if isinstance(node, Piecewise):
        return "piecewise(" + "; ".join(f"({', '.join(map(repr, bounds))}): {to_string(sub)}"
                                        for bounds, sub in node.pieces) + ")"
    raise ExprError(f"cannot render node {node!r}")
