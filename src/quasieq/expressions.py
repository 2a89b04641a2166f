"""A small arithmetic expression language for bounds, objectives and bifunctions.

Grammar (function-call style, no implicit multiplication)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | VARIABLE | '(' expr ')' | call
    call    := ('abs'|'min'|'max'|'power'|'piecewise') '(' args ')'
    cond    := expr ('<='|'<'|'>='|'>') expr      # only as piecewise arg 1

Variables are x_1..x_3 and y_1..y_3.  Division requires a constant nonzero
divisor (checked at parse time); ``power`` requires a nonnegative integer
literal exponent.  Every parsed expression is total on its domain.

Each Expression compiles to two evaluators: a scalar one (pure Python, used in
tight per-point loops) and a batch one (numpy, variables may be arrays).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonFiniteValueError, ParseError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[+\-*/(),<>]))"
)

_FUNCTIONS = {"abs": 1, "min": None, "max": None, "power": 2, "piecewise": 3}
_VAR_RE = re.compile(r"^[xy]_[123]$")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str  # abs | min | max | power
    args: tuple


@dataclass(frozen=True)
class Cmp:
    op: str  # <= < >= >
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Piecewise:
    cond: Cmp
    then: "Node"
    els: "Node"


Node = Union[Num, Var, Neg, Bin, Call, Piecewise]


class _Tokens:
    def __init__(self, text: str) -> None:
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos:].isspace():
                break
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            if m.group("num") is not None:
                self.items.append(("num", m.group("num"), m.start("num")))
            elif m.group("name") is not None:
                self.items.append(("name", m.group("name"), m.start("name")))
            else:
                self.items.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> Optional[tuple[str, str, int]]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {op!r}, found end of input", len(self.text))
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    @property
    def end(self) -> int:
        return len(self.text)


def _fold(node: Node) -> Optional[float]:
    """Constant-fold, or None if the node references a variable."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return None
    if isinstance(node, Neg):
        v = _fold(node.operand)
        return None if v is None else -v
    if isinstance(node, Bin):
        lv, rv = _fold(node.left), _fold(node.right)
        if lv is None or rv is None:
            return None
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        return lv / rv
    if isinstance(node, Call):
        vals = [_fold(a) for a in node.args]
        if any(v is None for v in vals):
            return None
        if node.fn == "abs":
            return abs(vals[0])
        if node.fn == "min":
            return min(vals)
        if node.fn == "max":
            return max(vals)
        if node.fn == "power":
            return vals[0] ** int(vals[1])
    return None


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _Tokens(text)
        self.variables: set[str] = set()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.toks.peek()
        if tok is not None:
            raise ParseError(f"expected end of input, found {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.toks.next()
                node = Bin(tok[1], node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "*/":
                self.toks.next()
                right = self.unary()
                if tok[1] == "/":
                    divisor = _fold(right)
                    if divisor is None:
                        raise ParseError("divisor must be a constant expression", tok[2])
                    if divisor == 0:
                        raise ParseError("division by zero", tok[2])
                node = Bin(tok[1], node, right)
            else:
                return node

    def unary(self) -> Node:
        tok = self.toks.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.toks.next()
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> Node:
        tok = self.toks.next()
        if tok is None:
            raise ParseError("expected a value, found end of input", self.toks.end)
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.toks.expect_op(")")
            return node
        if kind == "name":
            if text in _FUNCTIONS:
                return self.call(text, pos)
            if _VAR_RE.match(text):
                self.variables.add(text)
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"expected a value, found {text!r}", pos)

    def call(self, fn: str, pos: int) -> Node:
        self.toks.expect_op("(")
        if fn == "piecewise":
            cond = self.comparison()
            self.toks.expect_op(",")
            then = self.expr()
            self.toks.expect_op(",")
            els = self.expr()
            self.toks.expect_op(")")
            return Piecewise(cond, then, els)
        args = [self.expr()]
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] == ",":
                self.toks.next()
                args.append(self.expr())
            else:
                break
        self.toks.expect_op(")")
        arity = _FUNCTIONS[fn]
        if arity is not None and len(args) != arity:
            raise ParseError(f"{fn} takes {arity} argument(s), got {len(args)}", pos)
        if arity is None and len(args) < 2:
            raise ParseError(f"{fn} takes at least 2 arguments", pos)
        if fn == "power":
            exp = args[1]
            if not isinstance(exp, Num) or exp.value != int(exp.value) or exp.value < 0:
                raise ParseError("power exponent must be a nonnegative integer literal", pos)
        return Call(fn, tuple(args))

    def comparison(self) -> Cmp:
        left = self.expr()
        tok = self.toks.next()
        if tok is None:
            raise ParseError("expected a comparison operator, found end of input", self.toks.end)
        if tok[0] != "op" or tok[1] not in ("<=", "<", ">=", ">"):
            raise ParseError(f"expected a comparison operator, found {tok[1]!r}", tok[2])
        right = self.expr()
        return Cmp(tok[1], left, right)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _to_text(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_text(node.operand, 3)
        return f"-{inner}"
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _to_text(node.left, prec)
        right = _to_text(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_to_text(a) for a in node.args)})"
    if isinstance(node, Piecewise):
        cond = f"{_to_text(node.cond.left)} {node.cond.op} {_to_text(node.cond.right)}"
        return f"piecewise({cond}, {_to_text(node.then)}, {_to_text(node.els)})"
    raise TypeError(node)


def _scalar_code(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"env[{node.name!r}]"
    if isinstance(node, Neg):
        return f"(-{_scalar_code(node.operand)})"
    if isinstance(node, Bin):
        return f"({_scalar_code(node.left)} {node.op} {_scalar_code(node.right)})"
    if isinstance(node, Call):
        args = [_scalar_code(a) for a in node.args]
        if node.fn == "power":
            return f"({args[0]} ** {int(_fold(node.args[1]))})"
        return f"{node.fn}({', '.join(args)})"
    if isinstance(node, Piecewise):
        cond = f"({_scalar_code(node.cond.left)} {node.cond.op} {_scalar_code(node.cond.right)})"
        return f"({_scalar_code(node.then)} if {cond} else {_scalar_code(node.els)})"
    raise TypeError(node)


def _batch_code(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"env[{node.name!r}]"
    if isinstance(node, Neg):
        return f"(-{_batch_code(node.operand)})"
    if isinstance(node, Bin):
        return f"({_batch_code(node.left)} {node.op} {_batch_code(node.right)})"
    if isinstance(node, Call):
        args = [_batch_code(a) for a in node.args]
        if node.fn == "abs":
            return f"np.abs({args[0]})"
        if node.fn == "power":
            return f"({args[0]} ** {int(_fold(node.args[1]))})"
        reducer = "np.minimum" if node.fn == "min" else "np.maximum"
        out = args[0]
        for a in args[1:]:
            out = f"{reducer}({out}, {a})"
        return out
    if isinstance(node, Piecewise):
        cond = f"({_batch_code(node.cond.left)} {node.cond.op} {_batch_code(node.cond.right)})"
        return f"np.where({cond}, {_batch_code(node.then)}, {_batch_code(node.els)})"
    raise TypeError(node)


class Expression:
    """A parsed expression with scalar and numpy-batch evaluators."""

    __slots__ = ("ast", "text", "variables", "_scalar_fn", "_batch_fn")

    def __init__(self, ast: Node, text: str, variables: frozenset[str]) -> None:
        self.ast = ast
        self.text = text
        self.variables = variables
        namespace: dict = {"abs": abs, "min": min, "max": max}
        code = f"def _f(env):\n    return {_scalar_code(ast)}"
        exec(code, namespace)
        self._scalar_fn: Callable = namespace["_f"]
        namespace_b: dict = {"np": np}
        code_b = f"def _f(env):\n    return {_batch_code(ast)}"
        exec(code_b, namespace_b)
        self._batch_fn: Callable = namespace_b["_f"]

    def __call__(self, env: dict) -> float:
        try:
            return self._scalar_fn(env)
        except OverflowError:
            raise NonFiniteValueError(f"{self.text!r} overflows at {env}") from None

    def eval_batch(self, env: dict) -> np.ndarray:
        """Evaluate with numpy-array variable values (broadcastable)."""
        return self._batch_fn(env)

    def to_text(self) -> str:
        """Canonical rendering; reparsing yields an equal AST."""
        return _to_text(self.ast)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.ast == other.ast

    def __repr__(self) -> str:
        return f"Expression({self.to_text()!r})"


def parse_expression(text: str) -> Expression:
    """Parse ``text`` or raise :class:`ParseError` with position information."""
    parser = _Parser(text)
    ast = parser.parse()
    return Expression(ast, text, frozenset(parser.variables))
