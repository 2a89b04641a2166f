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
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Sequence

import numpy as np

from .errors import InstanceDefinitionError, NonFiniteValueError

MAX_DIM = 3
#: The most points a grid may have; a larger one is refused before any axis is built.
GRID_POINT_BUDGET = 2**24
#: The most points an exact (``Root2``) grid may have, refused the same way.  An exact scan holds about 950 bytes
#: per point (``fixed_table`` at 51**2 and 101**2), so this is about 4 GB; a float scan about 80 (2-D, at 1001**2
#: and 2001**2), so ``GRID_POINT_BUDGET`` is about 1.3 GB.
EXACT_GRID_POINT_BUDGET = 2**22

#: Machine-noise guard for box membership comparisons, scaled by box diameter.
#: Grid coordinates and affine bound evaluations agree with the ideal real
#: values only to a few ulps; residuals below this threshold are treated as
#: zero so that true boundary points (e.g. the endpoints of a fixed-point
#: interval) are not dropped.  Legitimate off-by-one-grid-step residuals are
#: many orders of magnitude larger.  Never applied to f-value or gap
#: tolerances.
MEMBERSHIP_SNAP = 1e-12


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
        return float(self.a) + float(self.b) * 1.4142135623730951

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

    Row k, contiguous, holds coordinate k: ``Expression.eval_batch`` reads it as it is.  The dtype of the
    grid's axes: float64 on float boxes, an object array of ``Root2`` on exact boxes.
    """
    return np.stack([m.ravel() for m in np.meshgrid(*grid.axes, indexing="ij")])


def point_columns(points: Sequence[Point], dtype=None) -> np.ndarray:
    """A list of points as a (dim, n) array, column i being points[i]: the one place tuples change layout."""
    return np.array(points, dtype=dtype).T


def require_finite(what: str, X: np.ndarray, *values: np.ndarray) -> None:
    """Raise NonFiniteValueError naming the first point (column of X) where a value, (N,) or (dim, N), is not finite."""
    if X.dtype == object:
        return  # a Root2 is always finite
    finite = np.ones(X.shape[1], dtype=bool)
    for v in values:
        finite &= np.isfinite(v).reshape(-1, X.shape[1]).all(axis=0)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise NonFiniteValueError(f"{what} is not finite at grid point {tuple(X[:, bad[0]].tolist())}")


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
