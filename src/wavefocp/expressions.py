"""Small arithmetic expression grammar for coefficient functions of t.

Supports literals, the variable `t`, the constant `pi`, unary minus,
binary + - * / ^ (with ^ right-associative and binding tightest), and the
functions gamma, cosh, sinh, exp. Parse errors carry the source position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .quadrature import gamma


class ExpressionError(ValueError):
    """Syntax or evaluation failure; `position` is a 0-based source offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Literal, Variable, Unary, Binary, Call]

_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gamma": np.vectorize(gamma),
    "cosh": np.cosh,
    "sinh": np.sinh,
    "exp": np.exp,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            if source[pos:].strip() == "":
                break
            raise ExpressionError(
                f"unexpected character {source[pos:].strip()[0]!r}", pos
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.source))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.peek()
        if tok is None or tok[1] != value:
            pos = tok[2] if tok is not None else len(self.source)
            raise ExpressionError(f"expected {value!r}", pos)
        self.i += 1

    def parse(self) -> Node:
        node = self.sum_expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def sum_expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) is not None and tok[1] in ("+", "-"):
            self.advance()
            node = Binary(tok[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self.peek()) is not None and tok[1] in ("*", "/"):
            self.advance()
            node = Binary(tok[1], node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok is not None and tok[1] == "-":
            self.advance()
            return Unary("-", self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[1] == "^":
            self.advance()
            # right-associative: recurse through factor so -x and nested ^
            # both bind as exponents
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "number":
            return Literal(float(value))
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.sum_expr()
                self.expect(")")
                return Call(value, arg)
            if value == "t":
                return Variable("t")
            if value == "pi":
                return Literal(math.pi)
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if value == "(":
            node = self.sum_expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}", pos)


def parse_expression(source: str) -> Node:
    """Parse an expression in the coefficient grammar; one nested past
    Python's recursion limit is refused."""
    if not source.strip():
        raise ExpressionError("empty expression", 0)
    try:
        return _Parser(source).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def evaluate(node: Node, t: np.ndarray) -> np.ndarray:
    """Evaluate the tree at points t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if isinstance(node, Literal):
        return np.full(t.shape, node.value) if t.ndim else np.float64(node.value)
    if isinstance(node, Variable):
        return t
    if isinstance(node, Unary):
        return -evaluate(node.operand, t)
    if isinstance(node, Call):
        arg = evaluate(node.arg, t)
        try:
            return _FUNCTIONS[node.func](arg)
        except ValueError as exc:  # gamma's domain error
            raise ExpressionError(str(exc)) from exc
    left = evaluate(node.left, t)
    right = evaluate(node.right, t)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(right == 0.0):
            raise ExpressionError("division by zero during evaluation")
        return left / right
    with np.errstate(invalid="raise", divide="raise"):
        try:
            return left**right
        except FloatingPointError as exc:
            raise ExpressionError(f"invalid power operation: {exc}") from exc


def as_function(node: Node) -> Callable[[np.ndarray], np.ndarray]:
    """Callable view of the expression tree; a tree too deep to evaluate
    within Python's recursion limit is refused when called."""

    def f(t: np.ndarray) -> np.ndarray:
        try:
            return evaluate(node, t)
        except RecursionError:
            raise ExpressionError("expression nested too deeply") from None

    return f
