"""``Root2`` over integers against the ``Fraction``-pair class it replaced, operand by operand.

``Root2`` and ``convex_combination`` below are verbatim copies of the
implementations that stored a + b*sqrt(2) as two ``Fraction`` objects; the
package's ``geometry.Root2`` stores integers (p, q, d) instead.  Every
observable must agree: ``a``, ``b``, ``str``, ``repr``, ``hash``, the bits of
``float``, ``sign()``, the six comparisons and the exceptions raised.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import total_ordering
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieq import geometry
from quasieq.geometry import Point

# -- the reference: the Fraction-pair implementation, verbatim ---------------


@total_ordering
class Root2:
    """An exact scalar a + b*sqrt(2) with rational a, b.

    Fractions keep themselves reduced with positive denominators, so the
    reduced-form invariant holds by construction.  Ordering is decided by sign
    analysis on (a, b) without any floating arithmetic.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int | str, b: Fraction | int | str = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Root2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> Root2:
        """Exact embedding of a float (floats are rationals)."""
        return cls(Fraction(x), 0)

    @classmethod
    def coerce(cls, x: "Root2 | Fraction | int | float") -> Root2:
        if isinstance(x, Root2):
            return x
        if isinstance(x, float):
            return cls.from_float(x)
        return cls(x, 0)

    # -- predicates --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Sign of a + b*sqrt(2): -1, 0 or +1, decided exactly.

        Mixed-sign case compares a^2 with 2 b^2; equality there would force
        sqrt(2) rational, so it only happens at a = b = 0.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(2)
        rational_wins = a * a > 2 * b * b
        if a > 0:
            return 1 if rational_wins else -1
        return -1 if rational_wins else 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: object) -> Root2:
        o = Root2.coerce(other)  # type: ignore[arg-type]
        return Root2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> Root2:
        o = Root2.coerce(other)  # type: ignore[arg-type]
        return Root2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> Root2:
        return Root2.coerce(other).__sub__(self)  # type: ignore[arg-type]

    def __neg__(self) -> Root2:
        return Root2(-self.a, -self.b)

    def __mul__(self, other: object) -> Root2:
        o = Root2.coerce(other)  # type: ignore[arg-type]
        return Root2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Root2:
        o = Root2.coerce(other)  # type: ignore[arg-type]
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        conj = Root2(o.a, -o.b)
        num = self * conj
        return Root2(num.a / norm, num.b / norm)

    def __rtruediv__(self, other: object) -> Root2:
        return Root2.coerce(other).__truediv__(self)  # type: ignore[arg-type]

    def __abs__(self) -> Root2:
        return -self if self.sign() < 0 else self

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Root2, Fraction, int, float)):
            return NotImplemented
        o = Root2.coerce(other)
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, (Root2, Fraction, int, float)):
            return NotImplemented
        return (self - Root2.coerce(other)).sign() < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        value = float(self.a) + float(self.b) * 1.4142135623730951
        if abs(value) < sys.float_info.min:  # not verbatim: 0 or subnormal, rounded exactly as the package rounds it
            return _rounded(self.a, self.b)
        return value

    def __repr__(self) -> str:
        return f"Root2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt2"

    @classmethod
    def parse(cls, text: str) -> Root2:
        """Inverse of ``str``: '1/2' or '1/2+-1/4*sqrt2'."""
        if "*sqrt2" in text:
            head, _, _ = text.rpartition("*sqrt2")
            a_txt, _, b_txt = head.rpartition("+")
            return cls(Fraction(a_txt), Fraction(b_txt))
        return cls(Fraction(text), 0)



def convex_combination(points: Sequence[Point], weights: Sequence) -> Point:
    """Componentwise weighted sum; weights nonnegative and summing to 1.

    For float weights the sum must match 1 within 1e-12; exact weights must
    sum to 1 exactly.  A combination of identical points returns that point
    unchanged (no float dust).
    """
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    if not points:
        raise ValueError("need at least one point")
    exact = isinstance(weights[0], (Root2, Fraction)) or isinstance(points[0][0], Root2)
    if exact:
        wsum = sum((Fraction(w) if not isinstance(w, Root2) else w for w in weights), Fraction(0))
        if any((w < 0) for w in weights) or wsum != 1:
            raise ValueError("weights must be nonnegative and sum to 1 exactly")
    else:
        wsum = sum(weights)
        if any(w < 0 for w in weights) or abs(wsum - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    first = points[0]
    if all(p == first for p in points[1:]):
        return first
    dim = len(first)
    if any(len(p) != dim for p in points):
        raise ValueError("points have mismatched dimensions")
    coords = []
    for k in range(dim):
        acc = None
        for p, w in zip(points, weights):
            term = p[k] * w if not isinstance(p[k], Root2) else p[k] * Root2.coerce(w)
            acc = term if acc is None else acc + term
        coords.append(acc)
    return tuple(coords)


def _rounded(a: Fraction, b: Fraction) -> float:
    """a + b*sqrt(2) correctly rounded: b*sqrt(2) is floored to a multiple of 2**-1200, far below the 2**-1074 of a
    subnormal, so the rounding of the two terms never moves it, as float(b) * sqrt(2) can (2**-1075 rounds to 0.0)."""
    scale = 1 << 1200
    root = math.isqrt(2 * (abs(b.numerator) * scale) ** 2 // b.denominator**2)
    return float(a + Fraction(root if b >= 0 else -root, scale))


# -- operands, built alike in both implementations ----------------------------

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
small = st.fractions(min_value=-100, max_value=100, max_denominator=64)
root2_specs = st.tuples(st.just("root2"), st.one_of(small, rationals), st.one_of(small, rationals))
operands = st.one_of(
    root2_specs,
    st.tuples(st.just("int"), st.one_of(st.integers(-1000, 1000), st.integers())),
    st.tuples(st.just("fraction"), rationals),
    st.tuples(st.just("float"), st.floats()),  # NaN and the infinities too: arithmetic refuses them alike
)


def build(spec: tuple, cls: type):
    """The operand ``spec`` describes, a ``Root2`` of class ``cls`` or a plain int, Fraction or float."""
    return cls(spec[1], spec[2]) if spec[0] == "root2" else spec[1]


def observe(value) -> tuple:
    """Everything a caller can see of a value; a new ``Root2`` must also be in normal form."""
    if isinstance(value, geometry.Root2):
        p, q, d = value._t
        assert all(type(n) is int for n in value._t) and d > 0 and math.gcd(p, q, d) == 1, value._t
        assert (value.a, value.b) == (Fraction(p, d), Fraction(q, d))
    if isinstance(value, (Root2, geometry.Root2)):
        bits = outcome(lambda: float(value).hex())  # past the float range both raise OverflowError
        return ("Root2", value.a, value.b, str(value), repr(value), hash(value), bits, value.sign(), value.is_rational)
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def outcome(thunk) -> tuple:
    """``observe`` of what ``thunk()`` returns, or the type and message of what it raises."""
    try:
        value = thunk()
    except (ArithmeticError, ValueError, TypeError, AttributeError) as exc:
        return ("raises", type(exc), str(exc))
    return observe(value)


def agree(thunk_of_class) -> None:
    """``thunk_of_class(cls)`` has the same outcome with the reference class and the package's."""
    assert outcome(lambda: thunk_of_class(geometry.Root2)) == outcome(lambda: thunk_of_class(Root2))


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv, *COMPARISONS)
UNARY = (operator.neg, abs, float, bool, str, repr, hash, lambda x: x.sign(), lambda x: x.is_rational,
         lambda x: x.a, lambda x: x.b, lambda x: type(x).parse(str(x)), lambda x: type(x).coerce(x))


class TestAgainstFractionPairs:
    @given(root2_specs, operands)
    @settings(max_examples=400, deadline=None)
    @example(("root2", Fraction(1), Fraction(0)), ("root2", Fraction(0), Fraction(0)))  # ZeroDivisionError
    @example(("root2", Fraction(3), Fraction(-2)), ("int", 0))  # 3 - 2 sqrt(2) > 0, near the sign boundary
    @example(("root2", Fraction(1), Fraction(0)), ("int", True))
    @example(("root2", Fraction(-1, 3), Fraction(1, 5)), ("float", float("nan")))
    @example(("root2", Fraction(-1, 3), Fraction(1, 5)), ("float", float("-inf")))
    @example(("root2", Fraction(0), Fraction(0)), ("float", -0.0))
    @example(("root2", Fraction(0), Fraction(1)), ("float", 5e-324))  # 5e-324 / sqrt(2) rounds to 5e-324, not 0.0
    @example(("root2", Fraction(0), Fraction(1, 3)), ("float", 5e-324))  # 3 * 5e-324 / sqrt(2): a subnormal, rounded once
    @example(("root2", Fraction(2), Fraction(-1)), ("float", float("inf")))
    def test_binary_operations(self, x, y):
        for op in BINARY:
            for left, right in ((x, y), (y, x)):
                if op in COMPARISONS and y[0] == "float" and not math.isfinite(y[1]):
                    # a Root2 is finite: it compares with inf, -inf and NaN as 0.0 does, where the reference raised
                    value = {id(x): 0.0, id(y): y[1]}
                    got = op(build(left, geometry.Root2), build(right, geometry.Root2))
                    assert got is op(value[id(left)], value[id(right)])
                    continue
                agree(lambda cls: op(build(left, cls), build(right, cls)))

    @given(root2_specs)
    @settings(max_examples=300, deadline=None)
    def test_unary_operations_and_immutability(self, x):
        for op in UNARY:
            agree(lambda cls: op(build(x, cls)))
        for name in ("a", "b", "c", "_t"):
            agree(lambda cls: setattr(build(x, cls), name, 1))

    @given(operands, st.one_of(operands, st.tuples(st.just("text"), st.sampled_from(["1/2", "-3/7", "0", "x"]))))
    @settings(max_examples=300, deadline=None)
    def test_construction(self, a, b):
        for spec in (a, b):
            agree(lambda cls: cls.coerce(build(spec, cls)))
            agree(lambda cls: cls.from_float(spec[1]))
        agree(lambda cls: cls(a[1], b[1]))


# -- convex combinations: the exact path --------------------------------------


@st.composite
def combinations(draw) -> tuple:
    """(point specs, weight specs): exact points with Fraction, Root2 or float weights, or float points with Fraction
    weights; the weights sum to 1 in their own arithmetic unless one is negated or the sum is spoiled."""
    k, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    exact_points = draw(st.booleans())
    coordinate = root2_specs if exact_points else st.tuples(st.just("float"), st.floats(-10, 10))
    pool = [tuple(draw(coordinate) for _ in range(dim)) for _ in range(draw(st.integers(1, k)))]
    points = [draw(st.sampled_from(pool)) for _ in range(k)]  # repeats, so all-equal points occur
    kind = draw(st.sampled_from(["fraction", "root2", "float"])) if exact_points else "fraction"
    if kind == "root2":  # k - 1 free weights and 1 minus their sum, which may be negative
        free = [("root2", draw(small) / 100, draw(small) / 100) for _ in range(k - 1)]
        weights = free + [("root2", 1 - sum(w[1] for w in free), -sum(w[2] for w in free))]
    else:
        raw = [draw(st.fractions(min_value=1, max_value=10, max_denominator=16)) for _ in range(k)]
        weights = [(kind, float(r / sum(raw)) if kind == "float" else r / sum(raw)) for r in raw]
    spoil = draw(st.sampled_from(["none", "none", "negate", "sum"]))
    i = draw(st.integers(0, k - 1))
    if spoil == "negate":
        weights[i] = (weights[i][0],) + tuple(-v for v in weights[i][1:])
    elif spoil == "sum":
        weights[i] = (weights[i][0], weights[i][1] + (1e-9 if kind == "float" else Fraction(1, 7))) + weights[i][2:]
    return points, weights


class TestConvexCombinationExactPath:
    @given(combinations())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_pair_function(self, case):
        points, weights = case

        def combine(cls, convex_combination):
            pts = [tuple(build(c, cls) for c in p) for p in points]
            ws = [build(w, cls) for w in weights]
            return outcome(lambda: tuple(observe(c) for c in convex_combination(pts, ws)))

        assert combine(geometry.Root2, geometry.convex_combination) == combine(Root2, convex_combination)

    @pytest.mark.parametrize("weights", [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(-1, 2), Fraction(3, 2)],
        [-0.5, 1.5],
        "root2",
    ], ids=["sum", "negative", "negative-float", "negative-root2"])
    def test_bad_weights_raise_alike(self, weights):
        messages = []
        for cls, combine in ((geometry.Root2, geometry.convex_combination), (Root2, convex_combination)):
            ws = [cls(0, Fraction(-1, 4)), cls(1, Fraction(1, 4))] if weights == "root2" else weights
            with pytest.raises(ValueError) as info:
                combine([(cls(0),), (cls(1, 1),)], ws)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "weights must be nonnegative and sum to 1 exactly"


# -- float conversion: the sign survives cancellation ---------------------------------


@st.composite
def near_cancelling(draw) -> geometry.Root2:
    """(p + q*sqrt(2)) / d with p an integer next to -q*sqrt(2), so the two terms cancel to within a few units."""
    q = draw(st.integers(-2**80, 2**80))
    p = (-1 if q > 0 else 1) * math.isqrt(2 * q * q) + draw(st.integers(-3, 3))
    return geometry.Root2(p, q) / draw(st.integers(1, 2**40))


class TestFloatKeepsTheSign:
    def test_a_pell_pair(self):
        # 1023286908188737^2 - 2 * 723573111879672^2 = 1: the terms cancel to about 4.9e-16
        x = geometry.Root2(1023286908188737, -723573111879672)
        assert x.sign() == 1 and float(x) == 4.886215156265627e-16
        assert float(-x) == -4.886215156265627e-16

    @given(st.one_of(near_cancelling(), st.builds(geometry.Root2, st.fractions(), st.fractions())))
    @settings(max_examples=300, deadline=None)
    def test_float_has_the_sign_of_the_value(self, x):
        value = float(x)
        assert (value > 0) - (value < 0) == x.sign()
