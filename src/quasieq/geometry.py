"""Numeric foundations: exact Q[sqrt(2)] scalars, points, boxes and grids.

Points are plain tuples of scalars, where a scalar is either a ``float`` or a
:class:`Root2` (an exact element of the field Q[sqrt(2)]).  A point's dimension
is its length; boxes and grids validate dimensions (n <= 3) at construction so
the hot loops never re-check.

All distances in this package are sup-norm (componentwise max); that is the
metric used for box membership residuals, probe radii and witness distances.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InstanceDefinitionError

MAX_DIM = 3
#: The most points a grid may have; a larger one is refused before any axis is built.
GRID_POINT_BUDGET = 2**24
#: The most points an exact (``Root2``) grid may have, refused the same way.  An exact scan holds about 660 bytes
#: per point (``fixed_table`` at 51**2 and 101**2), so this is about 2.8 GB; a float scan at most about 63 (2-D at
#: 401**2 and 2001**2; 42-45 in 3-D, 59 in 1-D), so ``GRID_POINT_BUDGET`` is about 1.1 GB.
EXACT_GRID_POINT_BUDGET = 2**22

#: Machine-noise guard for box membership comparisons, scaled by box diameter.
#: Grid coordinates and affine bound evaluations agree with the ideal real
#: values only to a few ulps; residuals below this threshold are treated as
#: zero so that true boundary points (e.g. the endpoints of a fixed-point
#: interval) are not dropped.  Legitimate off-by-one-grid-step residuals are
#: many orders of magnitude larger.  Never applied to f-value or gap
#: tolerances.
MEMBERSHIP_SNAP = 1e-12
#: The bits an exact batch combination's integers may reach: int64 columns wrap silently at 2**63.
EXACT_BATCH_BITS = 62


def _comparison(test: Callable) -> Callable:
    """The ``Root2`` comparison test(s, 0), s the sign of self - other from one sign test on the integers."""

    def compare(self: Root2, other: object):
        sp, sq, sd = self._t
        if type(other) is int:
            return test(_sign(sp - other * sd, sq), 0)
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        if isinstance(other, float) and not math.isfinite(other):  # a Root2 is finite: it compares as 0.0 does
            return test(0.0, other)
        p, q, d = other._t if type(other) is Root2 else _parts(other)
        return test(_sign(sp * d - p * sd, sq * d - q * sd), 0)

    return compare


class Root2:
    """An exact scalar a + b*sqrt(2) with rational a, b.

    Stored as integers (p, q, d) with a = p/d, b = q/d, d > 0 and gcd(p, q, d)
    == 1, a unique normal form.  Arithmetic, equality and ordering run on ints
    and build no ``Fraction``; ``a`` and ``b`` are built when read.  A
    comparison is one sign test, never in floats; with a float infinity or NaN
    a ``Root2``, being finite, compares as 0.0 does.  Adding an ``int`` keeps
    gcd(p, q, d) == 1, so that sum takes no gcd.
    """

    __slots__ = ("_t",)

    def __init__(self, a: Fraction | int | str, b: Fraction | int | str = 0) -> None:
        a, b = Fraction(a), Fraction(b)
        _normal(self, a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Root2 is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild it from its normal form, not through __setattr__
        return _of, (self._t,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> Root2:
        """Exact embedding of a float (floats are rationals)."""
        return cls.coerce(x)

    @classmethod
    def coerce(cls, x: "Root2 | Fraction | int | float") -> Root2:
        return x if isinstance(x, Root2) else _normal(_new(cls), *_parts(x))

    # -- predicates --------------------------------------------------------

    a = property(lambda self: Fraction(self._t[0], self._t[2]), doc="The rational part, a Fraction.")
    b = property(lambda self: Fraction(self._t[1], self._t[2]), doc="The coefficient of sqrt(2), a Fraction.")

    @property
    def is_rational(self) -> bool:
        return self._t[1] == 0

    def sign(self) -> int:
        """Sign of a + b*sqrt(2): -1, 0 or +1, decided exactly (d > 0, so the sign of p + q*sqrt(2))."""
        return _sign(self._t[0], self._t[1])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: object) -> Root2:
        if type(other) is int:  # the int 0, such as an exact tolerance, gives self itself: a Root2 is immutable
            return _of((self._t[0] + other * self._t[2], *self._t[1:])) if other else self
        (sp, sq, sd), (p, q, d) = self._t, _parts(other)
        return _normal(_new(Root2), sp * d + p * sd, sq * d + q * sd, sd * d)

    __radd__ = __add__

    def __sub__(self, other: object) -> Root2:
        if type(other) is int:
            return _of((self._t[0] - other * self._t[2], *self._t[1:])) if other else self
        (sp, sq, sd), (p, q, d) = self._t, _parts(other)
        return _normal(_new(Root2), sp * d - p * sd, sq * d - q * sd, sd * d)

    def __rsub__(self, other: object) -> Root2:
        return Root2.coerce(other).__sub__(self)  # type: ignore[arg-type]

    def __neg__(self) -> Root2:
        return _normal(_new(Root2), -self._t[0], -self._t[1], self._t[2])

    def __mul__(self, other: object) -> Root2:
        (sp, sq, sd), (p, q, d) = self._t, _parts(other)
        return _normal(_new(Root2), sp * p + 2 * sq * q, sp * q + sq * p, sd * d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Root2:
        (sp, sq, sd), (p, q, d) = self._t, _parts(other)
        norm = p * p - 2 * q * q  # (p + q*sqrt(2)) (p - q*sqrt(2)), zero only at p = q = 0
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        return _normal(_new(Root2), (sp * p - 2 * sq * q) * d, (sq * p - sp * q) * d, sd * norm)

    def __rtruediv__(self, other: object) -> Root2:
        return Root2.coerce(other).__truediv__(self)  # type: ignore[arg-type]

    def __abs__(self) -> Root2:
        return -self if self.sign() < 0 else self

    # -- comparisons -------------------------------------------------------

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge))

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        p, q, d = self._t
        r = p / d + q / d * 1.4142135623730951  # float(a) + float(b) * sqrt(2)
        if abs(r) > max(2**-40 * max(abs(p / d), abs(q / d)), 2**-1022) and (r > 0) - (r < 0) == _sign(p, q):
            return r
        k = 2 * max(p.bit_length(), q.bit_length()) + 64  # the terms cancel, or r is subnormal: round from integers
        return float(Fraction((p << k) + (1 if q > 0 else -1) * math.isqrt(2 * q * q << 2 * k), d << k))

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


_new, _set = object.__new__, object.__setattr__
_OPERANDS = (Root2, Fraction, int, float)


def _of(t: tuple) -> Root2:
    """A new ``Root2`` holding the triple t, already in normal form."""
    r = _new(Root2)
    _set(r, "_t", t)
    return r


def _normal(r: Root2, p: int, q: int, d: int) -> Root2:
    """Store (p + q*sqrt(2)) / d, d != 0, in r in normal form: d > 0 and gcd(p, q, d) == 1."""
    g = math.gcd(p, q, d) if d > 0 else -math.gcd(p, q, d)
    _set(r, "_t", (p // g, q // g, d // g))
    return r


def _parts(x: object) -> tuple:
    """The normal form (p, q, d) of an operand: an int is (n, 0, 1), a float or rational its integer ratio."""
    if isinstance(x, Root2):
        return x._t
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, float):
        n, d = x.as_integer_ratio()
        return n, 0, d
    f = x if isinstance(x, Fraction) else Fraction(x)  # or whatever else Fraction takes, such as "1/2"
    return f.numerator, 0, f.denominator


def _sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2) for integers p, q; of opposite signs, p^2 != 2 q^2 as sqrt(2) is irrational."""
    s = p if p and (q == 0 or (p > 0) == (q > 0) or p * p > 2 * q * q) else q
    return (s > 0) - (s < 0)


Point = tuple  # tuple of scalars, homogeneous per instance


def exact_is_rational(s: Root2) -> bool:
    """True iff the exact scalar has no sqrt(2) component."""
    return s.is_rational


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise InstanceDefinitionError(f"dimension must be in 1..{MAX_DIM}, got {n}")


@dataclass(frozen=True)
class CompactBox:
    """A nonempty axis-aligned box [lower_1, upper_1] x ... in R^n, n <= 3, of positive finite diameter."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise InstanceDefinitionError("box bounds have mismatched dimensions")
        _check_dim(len(self.lower))
        for lo, hi in zip(self.lower, self.upper):
            if not lo <= hi:
                raise InstanceDefinitionError(f"empty box: {lo} > {hi}")
        if not 0.0 < self.diameter() < math.inf:  # probe ladders halve 0.1 x diameter down to 3 grid steps
            raise InstanceDefinitionError(f"the box's diameter must be positive and finite, got {self.diameter()}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.lower[0], Root2)

    def diameter(self) -> float:
        return max(float(hi) - float(lo) for lo, hi in zip(self.lower, self.upper))

    def snap(self) -> float:
        """Absolute membership guard for this box (0 for exact scalars)."""
        if self.is_exact:
            return 0.0
        return MEMBERSHIP_SNAP * max(self.diameter(), 1.0)


def contains(box: CompactBox, p: Point, slack: float = 0.0) -> bool:
    """Componentwise lower <= p <= upper, with optional absolute slack."""
    if len(p) != box.dim:
        raise InstanceDefinitionError(
            f"point dimension {len(p)} does not match box dimension {box.dim}"
        )
    for lo, hi, x in zip(box.lower, box.upper, p):
        if lo - x > slack or x - hi > slack:
            return False
    return True


def box_distance(box_lower: Sequence, box_upper: Sequence, p: Point):
    """Sup-norm distance from p to the box: the largest gap in p's scalars, or 0.0 inside."""
    d = 0.0
    for lo, hi, x in zip(box_lower, box_upper, p):
        gap = lo - x
        if gap > d:
            d = gap
        gap = x - hi
        if gap > d:
            d = gap
    return d


def point_distance(p: Point, q: Point):
    """Sup-norm distance between two points, in their own scalars."""
    return max(abs(a - b) for a, b in zip(p, q))


@dataclass(frozen=True)
class Grid:
    """A regular grid on a box, m_i >= 2 points per axis.

    Axis coordinates follow linspace semantics: coord(i) = lower + i*step with
    step = (upper-lower)/(m-1), and both endpoints forced bit-exact.  For exact
    boxes coordinates are computed in rational arithmetic.  Each axis is built
    once, after the budget check, as a read-only array in the box's scalars:
    float64, or an object array of ``Root2`` on exact boxes.  Points come back
    as tuples of Python scalars.  Enumeration is lexicographic (first
    coordinate slowest).
    """

    box: CompactBox
    points_per_axis: tuple

    def __post_init__(self) -> None:
        ppa = tuple(int(m) for m in self.points_per_axis)
        object.__setattr__(self, "points_per_axis", ppa)
        if len(ppa) != self.box.dim:
            raise InstanceDefinitionError("points_per_axis does not match box dimension")
        if any(m < 2 for m in ppa):
            raise InstanceDefinitionError("need at least 2 grid points per axis")
        if self.size() > GRID_POINT_BUDGET:
            raise InstanceDefinitionError(f"a grid of {self.size()} points exceeds the budget of {GRID_POINT_BUDGET}")
        if self.box.is_exact and self.size() > EXACT_GRID_POINT_BUDGET:
            raise InstanceDefinitionError(
                f"an exact grid of {self.size()} points exceeds the exact budget of {EXACT_GRID_POINT_BUDGET}"
            )
        object.__setattr__(self, "_axes", tuple(self._axis_coords(k) for k in range(self.box.dim)))

    def _axis_coords(self, k: int) -> np.ndarray:
        lo, hi = self.box.lower[k], self.box.upper[k]
        m = self.points_per_axis[k]
        if isinstance(lo, Root2):
            span = hi - lo
            ax = np.array([lo + span * Fraction(i, m - 1) for i in range(m)], dtype=object)
        else:
            ax = lo + np.arange(m) * ((hi - lo) / (m - 1))  # the bits of lo + i*step in Python floats
        ax[0], ax[-1] = lo, hi
        ax.flags.writeable = False
        return ax

    @property
    def axes(self) -> tuple:
        return self._axes  # type: ignore[attr-defined]

    @property
    def dim(self) -> int:
        return self.box.dim

    def size(self) -> int:
        return math.prod(self.points_per_axis)

    def max_step(self) -> float:
        return max(
            (float(hi) - float(lo)) / (m - 1)
            for lo, hi, m in zip(self.box.lower, self.box.upper, self.points_per_axis)
        )

    def point_at(self, index: tuple) -> Point:
        return tuple(ax.item(i) for ax, i in zip(self.axes, index))

    def points_at(self, flat: np.ndarray):
        """The grid points at the flat (lexicographic) indices, one at a time.

        No index arrays: at the end of a solve they would be as long as its
        list of solutions and raise its peak memory.
        """
        for i in map(int, flat):
            point = []
            for ax in reversed(self.axes):
                i, k = divmod(i, len(ax))
                point.append(ax.item(k))
            yield tuple(reversed(point))

    def axis_index_range(self, k: int, lo, hi, slack: float = 0.0) -> tuple[int, int]:
        """Smallest/largest axis index whose coordinate lies in [lo - slack, hi + slack].

        Returns (start, stop) with stop exclusive; start >= stop means empty.
        A zero slack is not applied, so exact bounds stay exact.
        """
        if slack:
            lo, hi = lo - slack, hi + slack
        ax = self.axes[k]
        return int(np.searchsorted(ax, lo, side="left")), int(np.searchsorted(ax, hi, side="right"))


def grid_points(grid: Grid) -> list:
    """All grid points in lexicographic order (exactly prod(m_i) of them)."""
    return list(itertools.product(*(ax.tolist() for ax in grid.axes)))


def grid_coords(grid: Grid) -> np.ndarray:
    """All grid points as a (dim, N) array in the grid's own scalars, column i being grid_points(grid)[i].

    Row k, contiguous, holds coordinate k, in the dtype of the grid's axes: float64, or ``Root2`` objects.  Only the row
    path's blocks need it; what reads a point's coordinates alone reads the open mesh ``np.ix_(*grid.axes)``.
    """
    return np.stack([m.ravel() for m in np.meshgrid(*grid.axes, indexing="ij")])


def point_columns(points: Sequence[Point], dtype=None) -> np.ndarray:
    """A list of points as a (dim, n) array, column i being points[i]: the one place tuples change layout."""
    if dtype is None and len(points) and isinstance(points[0][0], Root2):  # np.array would inspect each for nesting
        return np.fromiter(itertools.chain.from_iterable(points), object).reshape(len(points), -1).T
    return np.array(points, dtype=dtype).T


def mesh_points(at) -> tuple:
    """The broadcast shape of coordinates ``at`` (a grid's open mesh, or the rows of a (dim, N) array) and its points, in C order."""
    shape = np.broadcast(*at).shape
    return shape, zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in at))


def first_point(at, where: np.ndarray) -> Point:
    """The first point of coordinates ``at`` (as ``mesh_points``), in C order, where the flags ``where`` are set."""
    shape = np.broadcast(*at, where).shape
    index = np.unravel_index(np.broadcast_to(where, shape).argmax(), shape)
    return tuple(np.broadcast_to(a, shape).item(index) for a in at)


def convex_combination(points: Sequence[Point], weights: Sequence) -> Point:
    """Componentwise weighted sum; weights nonnegative and summing to 1.

    For float weights the sum must match 1 within 1e-12 (a NaN weight fails); exact weights must sum to 1 exactly.
    A combination of identical points returns that point unchanged (no float dust).  Float coordinates add each
    point's term in turn; a ``Root2`` one is one normal form over the least common denominators of the points' integer
    triples and the weights' integer ratios.  ``convex_combinations`` is the batch form.
    """
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    if not points:
        raise ValueError("need at least one point")
    first = points[0]
    exact = isinstance(first[0], Root2)
    if exact or isinstance(weights[0], (Root2, Fraction)):
        try:
            W = [_parts(w) for w in weights]
        except (ValueError, OverflowError):  # NaN or an infinity
            raise ValueError("weights must be nonnegative and sum to 1 exactly") from None
        L = math.lcm(*[d for _, _, d in W])
        W = [(p * (L // d), q * (L // d)) for p, q, d in W]  # each weight as (p + q*sqrt(2)) / L
        if sum([p for p, _ in W]) != L or sum([q for _, q in W]) or any([_sign(p, q) < 0 for p, q in W]):
            raise ValueError("weights must be nonnegative and sum to 1 exactly")
    elif any(w < 0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    if all(p == first for p in points[1:]):
        return first
    if any(len(p) != len(first) for p in points):
        raise ValueError("points have mismatched dimensions")
    if not exact:
        return tuple(functools.reduce(operator.add, [p[k] * w for p, w in zip(points, weights)]) for k in range(len(first)))
    out = []
    for T in zip(*[map(_parts, p) for p in points]):  # a coordinate's triple in each point
        D = math.lcm(*[d for _, _, d in T])
        terms = [((p * wp + 2 * q * wq) * (D // d), (p * wq + q * wp) * (D // d)) for (p, q, d), (wp, wq) in zip(T, W)]
        out.append(_normal(_new(Root2), sum([t[0] for t in terms]), sum([t[1] for t in terms]), D * L))
    return tuple(out)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # float columns as Python's floats; the exact bounds
def convex_combinations(P: np.ndarray, picks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column r is ``convex_combination`` of the points ``P[:, i] for i in picks[r]`` with weights ``weights[r]``.

    P holds (dim, n) point columns, float64 or ``Root2`` objects, and the result is (dim, rows) in its dtype.  picks
    is (rows, k), a row of fewer points padded at its end with -1; weights is (rows, k) in P's scalars, or one lam a
    row for pairs, weighted (lam, 1 - lam) in the lams' own arithmetic.  Float columns are the scalar's bit for bit,
    the first point where every point of a row is equal; ``Root2`` columns its normal forms, from int64 columns
    (``_exact_batch``) or the scalar at the rows the batch leaves.  Weights the scalar refuses raise its ValueError.
    """

    def scalar(r):  # the row as convex_combination takes it: points as tuples, weights as the row's scalars
        ws = (weights[r], 1 - weights[r]) if weights.ndim == 1 else weights[r, picks[r] >= 0].tolist()
        return convex_combination([tuple(P[:, i].tolist()) for i in picks[r][picks[r] >= 0]], ws)

    if P.dtype != object and weights.ndim == 1:  # float pairs: the loop's bits at (lam, 1.0 - lam), in about 0.6 of
        if not (weights.min(initial=0) >= 0 and weights.max(initial=0) <= 1):  # its time on verify-float; refused lams
            scalar(int(((weights >= 0) & (weights <= 1)).argmin()))  # raises
        A, B = P.take(picks[:, 0], axis=1), P.take(picks[:, 1], axis=1)
        X, same = A * weights + B * (1.0 - weights), (A == B).all(axis=0)
        return np.where(same, A, X) if same.any() else X
    I = np.where(live := picks >= 0, picks, picks[:, :1])  # padding reads the row's first point
    if P.dtype != object:  # each point's term added in turn; padding weighs 0 and adds no term
        W, Y = np.where(live, weights, 0.0).T, [P.take(i, axis=1) for i in I.T]  # W: (k, rows)
        X, total, same = Y[0] * W[0], W[0], True
        for j in range(1, len(Y)):
            X, total, same = np.where(live[:, j], X + Y[j] * W[j], X), total + W[j], same & (Y[j] == Y[0]).all(axis=0)
        if not (W.min(initial=0) >= 0 and (np.abs(total - 1.0) <= 1e-12).all()):  # a NaN fails too
            scalar(int(((W < 0).any(axis=0) | ~(np.abs(total - 1.0) <= 1e-12)).argmax()))  # raises
        return np.where(same, Y[0], X) if np.any(same) else X
    X, formed = _exact_batch(P, I, live, weights)
    for r in np.flatnonzero(~formed).tolist():
        X[:, r] = scalar(r)
    return X


def _exact_batch(P: np.ndarray, I: np.ndarray, live: np.ndarray, weights: np.ndarray) -> tuple:
    """(X, formed): ``convex_combinations`` on ``Root2`` columns P at the rows ``formed``, None at the others.  A row's
    weights are integers N over their lcm L (lam n/m: n and m - n), a coordinate of its points integers over theirs D,
    and the coordinate (sum N*p, sum N*q, L*D) reduced by ``np.gcd``.  Left out: rows the scalar refuses, rows where a
    product of denominators (so L or D) or L*D times the largest integer could reach 2**EXACT_BATCH_BITS (the weights
    being nonnegative and summing to L, no partial sum passes that), and all rows for a scalar not rational or Root2."""
    X = np.empty((len(P), len(I)), object)
    try:
        T = np.fromiter(itertools.chain.from_iterable(c._t for c in P.T.flat), np.int64).reshape(*P.shape[::-1], 3)
        ratio = Fraction.as_integer_ratio if weights.ndim == 1 else operator.methodcaller("as_integer_ratio")
        ratios = map(ratio, (weights if weights.ndim == 1 else weights[live]).tolist())
        R = np.fromiter(itertools.chain.from_iterable(ratios), np.int64).reshape(-1, 2)
    except (AttributeError, TypeError, ValueError, OverflowError):  # other scalars, NaN, integers past int64
        return X, np.zeros(len(I), bool)
    if weights.ndim == 1:  # rational lams n/m: the weights n/m and (m - n)/m
        R = np.column_stack([R[:, 0], R[:, 1], R[:, 1] - R[:, 0], R[:, 1]]).reshape(-1, 2)
    Y, num, den = T[I], np.zeros(live.shape, np.int64), np.ones(live.shape, np.int64)  # Y: (rows, k, dim, 3)
    num[live], den[live] = R.T
    L, D = functools.reduce(np.lcm, den.T), functools.reduce(np.lcm, Y[..., 2].transpose(1, 0, 2))  # D: (rows, dim)
    N, top = num * (L[:, None] // den), np.abs(T).max(axis=2)[I].max(axis=1)  # of p, q and d: it bounds L*D too
    products = np.maximum(np.log2(den).sum(axis=1), (np.log2(T[..., 2])[I] * live[..., None]).sum(axis=1).max(axis=1))
    fits = (products < EXACT_BATCH_BITS) & ((np.log2(top) + np.log2(D)).max(axis=1) + np.log2(L) < EXACT_BATCH_BITS)
    r = np.flatnonzero(formed := fits & ((num >= 0) & (num <= den)).all(axis=1) & (N.sum(axis=1) == L))
    Y, N, L, D = (A[r] if len(r) < len(I) else A for A in (Y, N, L, D))
    S = np.dstack([np.einsum("rk,rkdc->rdc", N, Y[..., :2] * (D[:, None, :, None] // Y[..., 2:])), L[:, None] * D])
    S //= np.gcd(np.gcd(S[..., :1], S[..., 1:2]), S[..., 2:])
    X[:, r] = np.fromiter(map(_of, zip(*S.reshape(-1, 3).T.tolist())), object, S.size // 3).reshape(len(r), len(P)).T
    same = r[(Y == Y[:, :1]).all(axis=(1, 2, 3))]
    X[:, same] = P[:, I[same, 0]]  # the first point itself
    return X, formed
