"""Numeric foundations: exact Q[sqrt(2)] scalars, points, boxes and grids.

Points are plain tuples of scalars, where a scalar is either a ``float`` or a
:class:`Root2` (an exact element of the field Q[sqrt(2)]).  A point's dimension
is its length; boxes and grids validate dimensions (n <= 3) at construction so
the hot loops never re-check.

All distances in this package are sup-norm (componentwise max); that is the
metric used for box membership residuals, probe radii and witness distances.
"""

from __future__ import annotations

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
        p, q, d = other._t if type(other) is Root2 else _parts(other)
        return test(_sign(sp * d - p * sd, sq * d - q * sd), 0)

    return compare


class Root2:
    """An exact scalar a + b*sqrt(2) with rational a, b.

    Stored as integers (p, q, d) with a = p/d, b = q/d, d > 0 and gcd(p, q, d)
    == 1, a unique normal form, so equality compares the triples.  Arithmetic
    and ordering run on ints and build no ``Fraction``; ``a`` and ``b`` are
    built when read.  Ordering is one sign test, never in floats.  Adding an
    ``int`` keeps gcd(p, q, d) == 1, so that sum takes no gcd.
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

    def __eq__(self, other: object) -> bool:
        return _parts(other) == self._t if isinstance(other, _OPERANDS) else NotImplemented  # both normal forms

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.lt, operator.le, operator.gt, operator.ge))

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        p, q, d = self._t
        r = p / d + q / d * 1.4142135623730951  # float(a) + float(b) * sqrt(2)
        if abs(r) > 2**-40 * max(abs(p / d), abs(q / d)) and (r > 0) - (r < 0) == _sign(p, q):
            return r
        k = 2 * max(p.bit_length(), q.bit_length()) + 64  # the terms cancel: round p + q*sqrt(2) from integers
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

    For float weights the sum must match 1 within 1e-12; exact weights must
    sum to 1 exactly.  A combination of identical points returns that point
    unchanged (no float dust).
    """
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    if not points:
        raise ValueError("need at least one point")
    first = points[0]
    exact = isinstance(weights[0], (Root2, Fraction)) or isinstance(first[0], Root2)
    if exact:
        exact_weights = [Root2.coerce(w) for w in weights]
        if any(w.sign() < 0 for w in exact_weights) or sum(exact_weights[1:], exact_weights[0]) != 1:
            raise ValueError("weights must be nonnegative and sum to 1 exactly")
    else:
        wsum = sum(weights)
        if any(w < 0 for w in weights) or abs(wsum - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    if all(p == first for p in points[1:]):
        return first
    dim = len(first)
    if any(len(p) != dim for p in points):
        raise ValueError("points have mismatched dimensions")
    if isinstance(first[0], Root2):  # exact coordinates take exact weights; float ones their own
        weights = exact_weights
    coords = []
    for k in range(dim):
        acc = None
        for p, w in zip(points, weights):
            term = p[k] * w
            acc = term if acc is None else acc + term
        coords.append(acc)
    return tuple(coords)


def pair_combination(a: Point, b: Point, lam) -> Point:
    """``convex_combination((a, b), (lam, 1 - lam))`` for a float or rational lam in [0, 1].

    Float coordinates are ``u * lam + v * (1 - lam)``, the same operations.  ``Root2`` ones, with lam = n/m, are
    one normal form each of (n * u + (m - n) * v) / m on the integer triples; a float lam's 1.0 - lam must then be
    exact, as ``convex_combination``'s exact weight check asks.  ``pair_combinations`` is the batch form.
    """
    exact = isinstance(a[0], Root2)
    n, q, m = _parts(lam) if not isinstance(lam, float) or exact and math.isfinite(lam) else (lam, 0, 1)
    if q or not 0 <= n <= m or isinstance(lam, float) and m > 2**53:  # 2**-53 divides lam iff 1.0 - lam is exact
        raise ValueError("lam must be a float or a rational in [0, 1]")
    if a == b:
        return a
    if len(a) != len(b):
        raise ValueError("points have mismatched dimensions")
    if not exact:
        return tuple(u * lam + v * (1 - lam) for u, v in zip(a, b))
    out, k = [], m - n
    for u, v in zip(a, b):  # a loop: a generator here takes longer than the arithmetic on a 1-D point
        (p1, q1, d1), (p2, q2, d2) = u._t, v._t
        out.append(_normal(_new(Root2), n * p1 * d2 + k * p2 * d1, n * q1 * d2 + k * q2 * d1, m * d1 * d2))
    return tuple(out)


def pair_combinations(points: Sequence[Point], a: np.ndarray, b: np.ndarray, lams: Sequence) -> Callable:
    """r -> ``pair_combination(points[a[r]], points[b[r]], lams[r])`` for the rows r of index columns a and b.

    On ``Root2`` points and ``Fraction`` lams n/m in [0, 1], one int64 batch forms every row's normal form of
    (n*p1*d2 + (m-n)*p2*d1, n*q1*d2 + (m-n)*q2*d1, m*d1*d2), and a row's point is built from it when asked (a
    itself where a == b).  A chunk whose bit lengths could pass 2**EXACT_BATCH_BITS, or of other scalars, takes
    ``pair_combination`` row by row.
    """
    try:
        ratios = itertools.chain.from_iterable(map(Fraction.as_integer_ratio, lams))
        nm = np.fromiter(ratios, np.int64, 2 * len(lams)).reshape(-1, 2, 1, 1)
        T = np.array([c._t for p in points for c in p], dtype=np.int64).reshape(len(points), -1, 3)
    except (AttributeError, OverflowError):  # a lam not a Fraction, a coordinate not a Root2, an integer past int64
        T = None
    if T is not None:
        n, m = nm[:, 0], nm[:, 1]
        tb, lb = (max(int(A.max(initial=0)), -int(A.min(initial=0))).bit_length() for A in (T, nm))
    if T is None or 2 * tb + lb + 1 > EXACT_BATCH_BITS or (n < 0).any() or (n > m).any():
        return lambda r: pair_combination(points[a[r]], points[b[r]], lams[r])
    X, Y = T[a], T[b]
    S = n * X * Y[..., 2:] + (m - n) * Y * X[..., 2:]  # each term under 2**(2tb+lb); n*d1*d2 + (m-n)*d2*d1 == m*d1*d2
    M = S // np.gcd.reduce(S, axis=-1, keepdims=True)
    same = set(np.flatnonzero((X == Y).all(axis=(1, 2))).tolist())
    return lambda r: points[a[r]] if r in same else tuple([_of(tuple(t)) for t in M[r].tolist()])
