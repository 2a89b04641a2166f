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
literal exponent.  Every parsed expression is total on its domain.  An
expression may be at most ``MAX_DEPTH`` levels deep, so that both evaluators
compile.

Each Expression compiles two evaluators, each on its first call, of points, not names:
``x_k`` reads ``x[k-1]`` and ``y_k`` reads ``y[k-1]``.  The scalar one (pure
Python, used in tight per-point loops) takes tuples of numbers, so an
Expression is itself a map bound, an objective or a bifunction.  The batch one
(numpy) takes one array per coordinate, so it reads a (dim, N) array whose
columns are points, or a grid's open mesh ``np.ix_(*grid.axes)``, as it is.  The two
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
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonFiniteValueError, ParseError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[+\-*/(),<>]))"
)

_FUNCTIONS = {"abs": 1, "min": None, "max": None, "power": 2, "piecewise": 3}

#: The deepest expression the parser accepts.  On a path from the whole expression down to a number or a
#: variable, each binary operator is one level, and each bracket (a parenthesised group or a call) and each
#: unary minus is ``BRACKET_LEVELS`` levels.  So ``x_1 + x_1 + ...`` with 1,001 terms is 1,000 levels deep, and
#: at most 100 brackets nest: CPython's tokenizer refuses 200 nested brackets, its compiler about 3,000 chained
#: operators, and the parser takes up to five stack frames per bracket.
MAX_DEPTH = 1000
BRACKET_LEVELS = 10
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
    """Recursive descent; each rule returns (node, the levels of its text, brackets included: see MAX_DEPTH)."""

    def __init__(self, text: str) -> None:
        self.toks = _Tokens(text)
        self.variables: set[str] = set()
        self.open = 0  # the levels of the brackets and unary minuses around the token being parsed

    def _within(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return depth

    def _enter(self, pos: int) -> None:
        """One more bracket or unary minus, opened at pos: refused before the parser recurses into it."""
        self.open = self._within(self.open + BRACKET_LEVELS, pos)

    def parse(self) -> Node:
        node, _depth = self.expr()
        tok = self.toks.peek()
        if tok is not None:
            raise ParseError(f"expected end of input, found {tok[1]!r}", tok[2])
        return node

    def expr(self) -> tuple:
        node, depth = self.term()
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.toks.next()
                right, right_depth = self.term()
                node, depth = Bin(tok[1], node, right), self._within(1 + max(depth, right_depth), tok[2])
            else:
                return node, depth

    def term(self) -> tuple:
        node, depth = self.unary()
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "*/":
                self.toks.next()
                right, right_depth = self.unary()
                if tok[1] == "/":
                    divisor = _fold(right)
                    if divisor is None:
                        raise ParseError("divisor must be a constant expression", tok[2])
                    if divisor == 0:
                        raise ParseError("division by zero", tok[2])
                node, depth = Bin(tok[1], node, right), self._within(1 + max(depth, right_depth), tok[2])
            else:
                return node, depth

    def unary(self) -> tuple:
        tok = self.toks.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.toks.next()
            self._enter(tok[2])
            operand, depth = self.unary()
            self.open -= BRACKET_LEVELS
            return Neg(operand), self._within(BRACKET_LEVELS + depth, tok[2])
        return self.primary()

    def primary(self) -> tuple:
        tok = self.toks.next()
        if tok is None:
            raise ParseError("expected a value, found end of input", self.toks.end)
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text)), 0
        if kind == "name" and _VAR_RE.match(text):
            self.variables.add(text)
            return Var(text), 0
        if (kind == "op" and text == "(") or (kind == "name" and text in _FUNCTIONS):
            self._enter(pos)
            node, depth = self.call(text, pos) if kind == "name" else self.group()
            self.open -= BRACKET_LEVELS
            return node, self._within(BRACKET_LEVELS + depth, pos)
        if kind == "name":
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"expected a value, found {text!r}", pos)

    def group(self) -> tuple:
        node, depth = self.expr()
        self.toks.expect_op(")")
        return node, depth

    def call(self, fn: str, pos: int) -> tuple:
        self.toks.expect_op("(")
        if fn == "piecewise":
            cond, cond_depth = self.comparison()
            self.toks.expect_op(",")
            then, then_depth = self.expr()
            self.toks.expect_op(",")
            els, els_depth = self.expr()
            self.toks.expect_op(")")
            return Piecewise(cond, then, els), max(cond_depth, then_depth, els_depth)
        parsed = [self.expr()]
        while True:
            tok = self.toks.peek()
            if tok is not None and tok[0] == "op" and tok[1] == ",":
                self.toks.next()
                parsed.append(self.expr())
            else:
                break
        self.toks.expect_op(")")
        args = tuple(node for node, _depth in parsed)
        arity = _FUNCTIONS[fn]
        if arity is not None and len(args) != arity:
            raise ParseError(f"{fn} takes {arity} argument(s), got {len(args)}", pos)
        if arity is None and len(args) < 2:
            raise ParseError(f"{fn} takes at least 2 arguments", pos)
        if fn == "power":
            exp = args[1]
            if not isinstance(exp, Num) or exp.value != int(exp.value) or exp.value < 0:
                raise ParseError("power exponent must be a nonnegative integer literal", pos)
        return Call(fn, args), max(depth for _node, depth in parsed)

    def comparison(self) -> tuple:
        left, left_depth = self.expr()
        tok = self.toks.next()
        if tok is None:
            raise ParseError("expected a comparison operator, found end of input", self.toks.end)
        if tok[0] != "op" or tok[1] not in ("<=", "<", ">=", ">"):
            raise ParseError(f"expected a comparison operator, found {tok[1]!r}", tok[2])
        right, right_depth = self.expr()
        return Cmp(tok[1], left, right), max(left_depth, right_depth)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _operand(node: Node, text: str, prec: int) -> str:
    """The text of node as an operand that must bind at least as tightly as ``prec`` (+ and - 1, * and / 2, a
    unary minus 3): bracketed where node is a binary operator that binds less tightly."""
    return f"({text})" if isinstance(node, Bin) and _PREC[node.op] < prec else text


def _spine(node: Bin, prec: Optional[int] = None) -> tuple:
    """(base, links): the binary operators down the left operands from node (those of precedence ``prec`` alone,
    if given), innermost first, and the first left operand that is not one.  The passes over a tree loop over a
    chain such as a long sum instead of recursing."""
    links = []
    while isinstance(node, Bin) and prec in (None, _PREC[node.op]):
        links.append(node)
        node = node.left
    return node, links[::-1]


def _chain(node: Bin, render: Callable, *args) -> str:
    """The text of a chain of operators of one precedence, ``a - b + c`` for ((a - b) + c), with its operands
    rendered by ``render(operand, *args)`` and bracketed only where precedence needs it: Python parses it to
    the same tree."""
    prec = _PREC[node.op]
    base, links = _spine(node, prec)
    parts = [_operand(base, render(base, *args), prec)]
    for link in links:
        parts += (link.op, _operand(link.right, render(link.right, *args), prec + 1))
    return " ".join(parts)


def _to_text(node: Node) -> str:
    if isinstance(node, Num):
        v = node.value
        if v == math.inf:
            return "1e999"  # a number too large for a float, as one that reparses to it
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_operand(node.operand, _to_text(node.operand), 3)}"
    if isinstance(node, Bin):
        return _chain(node, _to_text)
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


def _minimum(a, b, *rest):
    """min(a, b, ...) taken left to right, but NaN when one is NaN (min(1.0, nan) is 1.0), and the first on a tie."""
    a = b if b < a or b != b else a
    for b in rest:
        a = b if b < a or b != b else a
    return a


def _maximum(a, b, *rest):
    """max(a, b, ...) taken left to right, but NaN when one is NaN, and the first on a tie."""
    a = b if b > a or b != b else a
    for b in rest:
        a = b if b > a or b != b else a
    return a


def _batch_minimum(a, *rest):
    """``_minimum`` elementwise; numpy.minimum's choice on a 0.0/-0.0 tie varies by platform."""
    for b in rest:
        a = np.where((b < a) | (b != b), b, a)
    return a


def _batch_maximum(a, *rest):
    """``_maximum`` elementwise."""
    for b in rest:
        a = np.where((b > a) | (b != b), b, a)
    return a


def _code(node: Node, batch: bool) -> str:
    """Python source for the node's value at the points x and y (x_k reads x[k-1]).

    The two evaluators differ only in ``piecewise`` (lazy in the scalar one,
    ``np.where`` in the batch one) and in what their namespaces bind.  Brackets
    stand only where precedence needs them, so Python evaluates the same tree:
    a sum of n terms nests no bracket.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.name[0]}[{int(node.name[2:]) - 1}]"
    if isinstance(node, Neg):
        return f"-{_operand(node.operand, _code(node.operand, batch), 3)}"
    if isinstance(node, Bin):
        return _chain(node, _code, batch)
    if isinstance(node, Call):
        args = [_code(a, batch) for a in node.args]
        if node.fn == "power":
            return f"_power({args[0]}, {int(node.args[1].value)})"
        if node.fn == "abs":
            return f"abs({args[0]})"
        return f"_{node.fn}imum({', '.join(args)})"
    if isinstance(node, Piecewise):
        cond = f"{_code(node.cond.left, batch)} {node.cond.op} {_code(node.cond.right, batch)}"
        then, els = _code(node.then, batch), _code(node.els, batch)
        return f"np.where({cond}, {then}, {els})" if batch else f"({then} if {cond} else {els})"
    raise TypeError(node)


# ``inf`` is the code of a number too large for a float, such as 1e400
_SCALAR_NAMES = {"inf": math.inf, "_power": _power, "_minimum": _minimum, "_maximum": _maximum}
_BATCH_NAMES = {"inf": math.inf, "np": np, "_power": _power, "_minimum": _batch_minimum, "_maximum": _batch_maximum}


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
    axes, todo = set(), [node]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            axes |= {int(node.name[2:]) - 1} if node.name[0] == "y" else set()
        elif isinstance(node, Neg):
            todo.append(node.operand)
        elif isinstance(node, Bin):
            todo += (node.left, node.right)
        elif isinstance(node, Call):
            todo += node.args
        elif isinstance(node, Piecewise):
            todo += (node.cond.left, node.cond.right, node.then, node.els)
    return axes


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
    if isinstance(node, Bin):
        base, links = _spine(node)
        value, ok = _walk(base, x, y)
        for link in links:
            right, right_ok = _walk(link.right, x, y)
            value = _OPERATORS[link.op](value, right)
            ok = ok & right_ok & np.isfinite(value)
        return value, ok
    if isinstance(node, Neg):
        value, ok = _walk(node.operand, x, y)
        value = -value
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
    if isinstance(node, Bin):
        base, links = _spine(node)
        rise, fall = _directions(base, x, dim)
        axes = _y_axes(base)
        for link in links:
            rise, fall, axes = _link_directions(link, rise, fall, axes, x, dim)
        return rise, fall
    axes = _y_axes(node)
    reads = np.array([k in axes for k in range(dim)])
    if isinstance(node, Var) or not axes:
        return reads, np.zeros(dim, dtype=bool)
    if isinstance(node, Neg):
        rise, fall = _directions(node.operand, x, dim)
        return fall, rise
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
    return reads, reads  # abs, power, a condition in y


def _link_directions(link: Bin, rise, fall, left_axes: set, x, dim: int) -> tuple:
    """(rise, fall, axes) of ``link`` from (rise, fall) and the y axes of its left operand: ``_directions`` of a
    binary operator."""
    right_axes = _y_axes(link.right)
    axes = left_axes | right_axes
    if not axes:
        return np.zeros(dim, dtype=bool), np.zeros(dim, dtype=bool), axes
    if link.op in "+-":
        right_rise, right_fall = _directions(link.right, x, dim)
        if link.op == "-":
            right_rise, right_fall = right_fall, right_rise
        return rise | right_rise, fall | right_fall, axes
    if left_axes and right_axes:  # a product of two terms in y
        reads = np.array([k in axes for k in range(dim)])
        return reads, reads, axes
    if left_axes:
        flip = np.asarray(_walk(link.right, x, ())[0] < 0)[..., None]
    else:
        flip = np.asarray(_walk(link.left, x, ())[0] < 0)[..., None]
        rise, fall = _directions(link.right, x, dim)
    if flip.all() or not flip.any():  # a factor of one sign (NaN < 0 is False) needs no select
        return (fall, rise, axes) if flip.all() else (rise, fall, axes)
    return np.where(flip, fall, rise), np.where(flip, rise, fall), axes


def _same_tree(a: Node, b: Node) -> bool:
    """``a == b`` on two ASTs, node by node from an explicit stack.

    The dataclasses' own ``==`` recurses one frame per level, so a chain of
    1,000 terms, which the parser accepts, would raise RecursionError; the
    nodes' ``==`` is this function.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):  # ``Call.args``
            stack.extend(zip(a, b))
        elif is_dataclass(a) and type(a) is type(b):
            stack.extend((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
        elif is_dataclass(a) or is_dataclass(b) or not (a is b or a == b):  # nodes of different kinds, or leaves
            return False
    return True


def _tree_hash(node: Node) -> int:
    """``hash(node)`` from an explicit stack, as ``_same_tree`` compares; the dataclasses' own hash recurses."""
    flat, stack = [], [node]
    while stack:
        a = stack.pop()
        kids = a if isinstance(a, tuple) else [getattr(a, f.name) for f in fields(a)] if is_dataclass(a) else None
        flat.append(a if kids is None else (type(a).__name__, len(kids)))
        stack.extend(kids or ())
    return hash(tuple(flat))


for _node in (Num, Var, Neg, Bin, Call, Cmp, Piecewise):  # == is NotImplemented across kinds, as the dataclasses' own
    _node.__eq__ = lambda a, b: _same_tree(a, b) if type(a) is type(b) else NotImplemented
    _node.__hash__ = _tree_hash


class Expression:
    """A parsed expression with scalar and numpy-batch evaluators of points x and y, each compiled on its first call."""

    __slots__ = ("ast", "text", "variables", "_scalar_fn", "_batch_fn")

    def __init__(self, ast: Node, text: str, variables: frozenset[str]) -> None:
        self.ast = ast
        self.text = text
        self.variables = variables
        self._scalar_fn = self._batch_fn = None  # each compiled on its first call

    def __call__(self, x, y=()) -> float:
        """The value at the points x and y (tuples of numbers); NonFiniteValueError if it is inf or NaN."""
        if self._scalar_fn is None:
            self._scalar_fn = _compile(self.ast, batch=False)
        v = self._scalar_fn(x, y)
        if not math.isfinite(v):
            at = f"x={tuple(x)}, y={tuple(y)}" if y else f"x={tuple(x)}"
            raise NonFiniteValueError(f"{self.text!r} overflows at {at}")
        return v

    def eval_batch(self, x, y=()) -> np.ndarray:
        """The values with one array (or number) per coordinate of x and y, broadcast together.

        Points given as the columns of (dim, N) arrays X and Y, as the package keeps them, are passed as they are.
        """
        if self._batch_fn is None:
            self._batch_fn = _compile(self.ast, batch=True)
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
        return isinstance(other, Expression) and _same_tree(self.ast, other.ast)

    def __repr__(self) -> str:
        return f"Expression({self.to_text()!r})"


def parse_expression(text: str) -> Expression:
    """Parse ``text`` or raise :class:`ParseError` with position information."""
    parser = _Parser(text)
    ast = parser.parse()
    return Expression(ast, text, frozenset(parser.variables))
