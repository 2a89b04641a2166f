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

Each Expression compiles to two evaluators that take points, not names:
``x_k`` reads ``x[k-1]`` and ``y_k`` reads ``y[k-1]``.  The scalar one (pure
Python, used in tight per-point loops) takes tuples of numbers, so an
Expression is itself a map bound, an objective or a bifunction.  The batch one
(numpy) takes one array per coordinate, so it reads a (dim, N) array whose
columns are points, as ``geometry.grid_coords`` gives them, as it is.  The two
give equal values, down to the sign of a zero: ``power`` is one
repeated-squaring routine in both, and ``min``/``max`` follow one rule in both
(NaN propagates, and a tie such as 0.0 with -0.0 keeps the first argument).

A static pass over the AST (``Expression.y_directions``) tells, at each of a
batch of points x, whether the batch value is non-decreasing, non-increasing
or constant in each y_k, or unknown; ``Expression.finite_subterms`` checks
the one condition its claims need, that no subterm is NaN.
"""

from __future__ import annotations

import math
import operator
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
    """The value of a node that reads no variable (x and y are empty, so reading one fails), else None."""
    try:
        return _compile(node, batch=False)((), ())
    except IndexError:
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


def _power(base, n: int):
    """base ** n for an integer n >= 0 by repeated squaring, on floats and arrays alike.

    Both evaluators call this one routine (n = 2 is ``base * base``), so they
    round alike; libm ``pow`` and numpy's SIMD power do not always agree.
    """
    result = 1.0
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _minimum(a, b):
    """min(a, b), but NaN when either is NaN (min(1.0, nan) is 1.0), and a on a tie."""
    return b if b < a or b != b else a


def _maximum(a, b):
    """max(a, b), but NaN when either is NaN, and a on a tie."""
    return b if b > a or b != b else a


def _batch_minimum(a, b):
    """``_minimum`` elementwise; numpy.minimum's choice on a 0.0/-0.0 tie varies by platform."""
    return np.where((b < a) | (b != b), b, a)


def _batch_maximum(a, b):
    """``_maximum`` elementwise."""
    return np.where((b > a) | (b != b), b, a)


def _code(node: Node, batch: bool) -> str:
    """Python source for the node's value at the points x and y (x_k reads x[k-1]).

    The two evaluators differ only in ``piecewise`` (lazy in the scalar one,
    ``np.where`` in the batch one) and in what their namespaces bind.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.name[0]}[{int(node.name[2:]) - 1}]"
    if isinstance(node, Neg):
        return f"(-{_code(node.operand, batch)})"
    if isinstance(node, Bin):
        return f"({_code(node.left, batch)} {node.op} {_code(node.right, batch)})"
    if isinstance(node, Call):
        args = [_code(a, batch) for a in node.args]
        if node.fn == "power":
            return f"_power({args[0]}, {int(node.args[1].value)})"
        if node.fn == "abs":
            return f"abs({args[0]})"
        out = args[0]
        for a in args[1:]:
            out = f"_{node.fn}imum({out}, {a})"
        return out
    if isinstance(node, Piecewise):
        cond = f"({_code(node.cond.left, batch)} {node.cond.op} {_code(node.cond.right, batch)})"
        then, els = _code(node.then, batch), _code(node.els, batch)
        return f"np.where({cond}, {then}, {els})" if batch else f"({then} if {cond} else {els})"
    raise TypeError(node)


_SCALAR_NAMES = {"_power": _power, "_minimum": _minimum, "_maximum": _maximum}
_BATCH_NAMES = {"np": np, "_power": _power, "_minimum": _batch_minimum, "_maximum": _batch_maximum}


def _compile(node: Node, batch: bool) -> Callable:
    """The node's evaluator, a function of the points x and y."""
    namespace = dict(_BATCH_NAMES if batch else _SCALAR_NAMES)
    exec(f"def _f(x, y):\n    return {_code(node, batch)}", namespace)
    return namespace["_f"]


# -- monotonicity in y ------------------------------------------------------

_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
}


def _y_axes(node: Node) -> set:
    """The k - 1 of every y_k the node reads."""
    if isinstance(node, Var):
        return {int(node.name[2:]) - 1} if node.name[0] == "y" else set()
    if isinstance(node, Num):
        return set()
    if isinstance(node, Neg):
        parts = (node.operand,)
    elif isinstance(node, Bin):
        parts = (node.left, node.right)
    elif isinstance(node, Call):
        parts = node.args
    else:
        parts = (node.cond.left, node.cond.right, node.then, node.els)
    return set().union(*map(_y_axes, parts))


def _walk(node: Node, x, y) -> tuple:
    """(value, finite): the node's batch value at the points x and y, by the batch evaluator's operations in its
    order, and where every subterm on the ``piecewise`` branches taken is finite."""
    if isinstance(node, Num):
        return node.value, math.isfinite(node.value)
    if isinstance(node, Var):
        value = (x if node.name[0] == "x" else y)[int(node.name[2:]) - 1]
        return value, np.isfinite(value)
    if isinstance(node, Piecewise):
        (left, left_ok), (right, right_ok) = _walk(node.cond.left, x, y), _walk(node.cond.right, x, y)
        cond = _OPERATORS[node.cond.op](left, right)
        (then, then_ok), (els, els_ok) = _walk(node.then, x, y), _walk(node.els, x, y)
        return np.where(cond, then, els), left_ok & right_ok & np.where(cond, then_ok, els_ok)
    if isinstance(node, Neg):
        value, ok = _walk(node.operand, x, y)
        value = -value
    elif isinstance(node, Bin):
        (left, left_ok), (right, right_ok) = _walk(node.left, x, y), _walk(node.right, x, y)
        value, ok = _OPERATORS[node.op](left, right), left_ok & right_ok
    elif node.fn in ("abs", "power"):
        value, ok = _walk(node.args[0], x, y)
        value = abs(value) if node.fn == "abs" else _power(value, int(node.args[1].value))
    else:
        value, ok = _walk(node.args[0], x, y)
        pick = _BATCH_NAMES[f"_{node.fn}imum"]
        for arg in node.args[1:]:
            other, other_ok = _walk(arg, x, y)
            value, ok = pick(value, other), ok & other_ok
    return value, ok & np.isfinite(value)


def _directions(node: Node, x, dim: int) -> tuple:
    """(rise, fall), boolean arrays broadcast against (points, dim): where the node's batch value at the points x
    may increase, and where it may decrease, as y_k alone increases; both on one axis mean unknown.

    IEEE-754 round-to-nearest ``+``, ``-``, ``*`` and ``/`` are
    non-decreasing in each argument (Goldberg 1991), as are ``min`` and
    ``max``.  So a factor free of y flips the directions where it is
    negative, and a ``piecewise`` whose condition reads no y has the
    directions of the branch it takes.  Every other term in y is unknown on
    the axes it reads.  The claims hold on any box of y where no subterm is
    NaN; a NaN factor, whose product is NaN at every y, is left to that
    condition.
    """
    axes = _y_axes(node)
    reads = np.array([k in axes for k in range(dim)])
    if isinstance(node, Var) or not axes:
        return reads, np.zeros(dim, dtype=bool)
    if isinstance(node, Neg):
        rise, fall = _directions(node.operand, x, dim)
        return fall, rise
    if isinstance(node, Bin) and node.op in "+-":
        (rise, fall), (right_rise, right_fall) = _directions(node.left, x, dim), _directions(node.right, x, dim)
        if node.op == "-":
            right_rise, right_fall = right_fall, right_rise
        return rise | right_rise, fall | right_fall
    if isinstance(node, Bin) and not (_y_axes(node.left) and _y_axes(node.right)):
        factor, operand = (node.right, node.left) if _y_axes(node.left) else (node.left, node.right)
        rise, fall = _directions(operand, x, dim)
        flip = np.asarray(_walk(factor, x, ())[0] < 0)[..., None]
        return np.where(flip, fall, rise), np.where(flip, rise, fall)
    if isinstance(node, Call) and node.fn in ("min", "max"):
        rise = fall = np.zeros(dim, dtype=bool)
        for arg in node.args:
            arg_rise, arg_fall = _directions(arg, x, dim)
            rise, fall = rise | arg_rise, fall | arg_fall
        return rise, fall
    if isinstance(node, Piecewise) and not (_y_axes(node.cond.left) or _y_axes(node.cond.right)):
        left, right = _walk(node.cond.left, x, ())[0], _walk(node.cond.right, x, ())[0]
        cond = np.asarray(_OPERATORS[node.cond.op](left, right))[..., None]
        (rise, fall), (els_rise, els_fall) = _directions(node.then, x, dim), _directions(node.els, x, dim)
        return np.where(cond, rise, els_rise), np.where(cond, fall, els_fall)
    return reads, reads  # abs, power, a product of two terms in y, a condition in y


class Expression:
    """A parsed expression with scalar and numpy-batch evaluators of points x and y."""

    __slots__ = ("ast", "text", "variables", "_scalar_fn", "_batch_fn")

    def __init__(self, ast: Node, text: str, variables: frozenset[str]) -> None:
        self.ast = ast
        self.text = text
        self.variables = variables
        self._scalar_fn = _compile(ast, batch=False)
        self._batch_fn = _compile(ast, batch=True)

    def __call__(self, x, y=()) -> float:
        """The value at the points x and y (tuples of numbers); NonFiniteValueError if it is inf or NaN."""
        v = self._scalar_fn(x, y)
        if not math.isfinite(v):
            at = f"x={tuple(x)}, y={tuple(y)}" if y else f"x={tuple(x)}"
            raise NonFiniteValueError(f"{self.text!r} overflows at {at}")
        return v

    def eval_batch(self, x, y=()) -> np.ndarray:
        """The values with one array (or number) per coordinate of x and y, broadcast together.

        Points given as the columns of (dim, N) arrays X and Y, as the package keeps them, are passed as they are.
        """
        return self._batch_fn(x, y)

    def y_directions(self, x, dim: int) -> tuple:
        """(rise, fall), (points, dim) boolean arrays at the points x, one array per coordinate: where the batch
        value may increase, and where it may decrease, as y_k alone increases; both mean unknown.

        Where neither is set on an axis the value does not read y_k.  The
        claims hold over any box of y on which ``finite_subterms`` holds at
        the two corners that the directions make extreme.
        """
        shape = (len(x[0]), dim)
        rise, fall = _directions(self.ast, x, dim)
        return np.broadcast_to(rise, shape), np.broadcast_to(fall, shape)

    def finite_subterms(self, x, y) -> np.ndarray:
        """Where every subterm on the ``piecewise`` branches taken is finite, at the points x and y, one array per coordinate."""
        return np.broadcast_to(_walk(self.ast, x, y)[1], np.broadcast(*x, *y).shape)

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
