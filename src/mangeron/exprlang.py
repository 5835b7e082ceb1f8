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

For two-variable expressions the bounds are x0, x1, y0, y1 of an
axis-aligned rectangle; for one-variable expressions they are t0, t1 of a
segment.  Pieces are evaluated by `fields.evaluate_pieces`: on a shared
edge the piece with the lexicographically smallest origin (x0, y0) wins.
Expressions support exact symbolic differentiation, except powers with a
non-constant exponent.
"""

from __future__ import annotations

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
class Neg:
    a: object


@dataclass(frozen=True)
class Fun:
    name: str
    a: object


@dataclass(frozen=True)
class Piecewise:
    pieces: tuple[tuple[tuple[float, ...], object], ...]


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
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
        val = m.group()
        kind = m.lastgroup
        if kind == "op" and val == "**":
            val = "^"
        tokens.append((kind, val))
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
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            node = Bin("^", node, self.unary())
        return node

    def number(self) -> float:
        neg = False
        if self.peek()[1] == "-":
            self.next()
            neg = True
        kind, val = self.next()
        if kind != "num":
            raise ExprError(f"expected a number, found {val!r}")
        return -float(val) if neg else float(val)

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Num(float(val))
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if val == "pi":
                return Num(float(np.pi))
            if val == "zero":
                return Num(0.0)
            if val in _FUNCTIONS:
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return Fun(val, node)
            if val == "piecewise":
                return self.piecewise()
            if val in self.variables:
                return Var(val)
            raise ExprError(f"unknown name {val!r} (variables here: {self.variables})")
        raise ExprError(f"unexpected token {val or 'end of input'!r}")

    def piecewise(self):
        nb = 2 * len(self.variables)
        self.expect("(")
        pieces = []
        while True:
            self.expect("(")
            bounds = [self.number()]
            for _ in range(nb - 1):
                self.expect(",")
                bounds.append(self.number())
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
    if isinstance(node, Neg):
        return -evaluate(node.a, env)
    if isinstance(node, Fun):
        return _FUNCTIONS[node.name](evaluate(node.a, env))
    if isinstance(node, Bin):
        a = evaluate(node.a, env)
        b = evaluate(node.b, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        if node.op == "^":
            return np.power(a, b)
    if isinstance(node, Piecewise):
        return _eval_piecewise(node, env)
    raise ExprError(f"cannot evaluate node {node!r}")


def _eval_piecewise(node: Piecewise, env: dict[str, np.ndarray]):
    names = sorted(env)
    pieces = [(bounds, lambda *vals, _sub=sub: evaluate(_sub, dict(zip(names, vals))))
              for bounds, sub in node.pieces]
    return evaluate_pieces(pieces, [env[n] for n in names], error=ExprError)


def diff(node, var: str):
    """Exact derivative of an AST with respect to `var`."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return Neg(diff(node.a, var))
    if isinstance(node, Fun):
        inner = diff(node.a, var)
        if node.name == "sin":
            return Bin("*", Fun("cos", node.a), inner)
        if node.name == "cos":
            return Neg(Bin("*", Fun("sin", node.a), inner))
        if node.name == "exp":
            return Bin("*", Fun("exp", node.a), inner)
    if isinstance(node, Bin):
        da, db = diff(node.a, var), diff(node.b, var)
        if node.op == "+":
            return Bin("+", da, db)
        if node.op == "-":
            return Bin("-", da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, node.b), Bin("*", node.a, db))
        if node.op == "/":
            num = Bin("-", Bin("*", da, node.b), Bin("*", node.a, db))
            return Bin("/", num, Bin("^", node.b, Num(2.0)))
        if node.op == "^":
            if isinstance(node.b, Num):
                p = node.b.value
                return Bin("*", Bin("*", Num(p), Bin("^", node.a, Num(p - 1.0))), da)
            raise ExprError("derivative of a power with non-constant exponent "
                            "is not supported")
    if isinstance(node, Piecewise):
        return Piecewise(tuple((b, diff(sub, var)) for b, sub in node.pieces))
    raise ExprError(f"cannot differentiate node {node!r}")


def to_string(node) -> str:
    """Render an AST back to parsable text."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_string(node.a)})"
    if isinstance(node, Fun):
        return f"{node.name}({to_string(node.a)})"
    if isinstance(node, Bin):
        return f"({to_string(node.a)} {node.op} {to_string(node.b)})"
    if isinstance(node, Piecewise):
        parts = []
        for bounds, sub in node.pieces:
            bs = ", ".join(repr(b) for b in bounds)
            parts.append(f"({bs}): {to_string(sub)}")
        return "piecewise(" + "; ".join(parts) + ")"
    raise ExprError(f"cannot render node {node!r}")


def is_piecewise(node) -> bool:
    return isinstance(node, Piecewise)
