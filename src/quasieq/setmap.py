"""Set-valued constraint maps K: C => C with box-shaped images.

Images are per-axis intervals (clipped to the domain box), so convexity of
values is structural.  The topological hypothesis checks are sampled
falsifiers: they return a concrete violation witness or NO_VIOLATION_FOUND,
never a proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .errors import InstanceDefinitionError
from .expressions import Expression
from .geometry import (
    CompactBox,
    Grid,
    Point,
    box_distance,
    contains,
    grid_coords,
    grid_points,
    point_distance,
)

FAIL = "FAIL"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"


@dataclass(frozen=True)
class ConvexRegion:
    """A sub-box of the domain: the value K(x)."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        for lo, hi in zip(self.lower, self.upper):
            if not lo <= hi:
                raise InstanceDefinitionError(f"empty region: {lo} > {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def distance_to(self, p: Point):
        return box_distance(self.lower, self.upper, p)


@dataclass(frozen=True)
class TopologyProbeReport:
    verdict: str
    witness: Optional[dict]
    probe_radii: tuple
    samples_used: int

    def __post_init__(self) -> None:
        assert (self.verdict == FAIL) == (self.witness is not None)


class SetValuedMap:
    """Box-valued map defined by per-axis lower/upper bound functions of x.

    ``member_predicate(x, z)``, when given, refines membership for the
    topology and convexity probes (it can exclude points of the box, e.g. to
    encode a half-open interval); image evaluation remains box-based.
    """

    def __init__(
        self,
        domain: CompactBox,
        lower_fns: Sequence[Callable],
        upper_fns: Sequence[Callable],
        variant: str = "MovingBox",
        lower_exprs: Optional[Sequence[Expression]] = None,
        upper_exprs: Optional[Sequence[Expression]] = None,
        member_predicate: Optional[Callable] = None,
    ) -> None:
        if variant not in ("MovingBox", "PiecewiseMovingInterval", "Constant"):
            raise InstanceDefinitionError(f"unknown map variant {variant!r}")
        if variant == "PiecewiseMovingInterval" and domain.dim != 1:
            raise InstanceDefinitionError("PiecewiseMovingInterval requires a 1-d domain")
        if len(lower_fns) != domain.dim or len(upper_fns) != domain.dim:
            raise InstanceDefinitionError("bound count does not match domain dimension")
        self.domain = domain
        self.variant = variant
        self.lower_fns = tuple(lower_fns)
        self.upper_fns = tuple(upper_fns)
        self.lower_exprs = tuple(lower_exprs) if lower_exprs else None
        self.upper_exprs = tuple(upper_exprs) if upper_exprs else None
        self.member_predicate = member_predicate

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, domain: CompactBox, region: Optional[ConvexRegion] = None) -> SetValuedMap:
        lo = region.lower if region else domain.lower
        hi = region.upper if region else domain.upper
        lower_fns = tuple((lambda x, v=v: v) for v in lo)
        upper_fns = tuple((lambda x, v=v: v) for v in hi)
        return cls(domain, lower_fns, upper_fns, variant="Constant")

    @classmethod
    def from_expressions(
        cls,
        domain: CompactBox,
        lower_exprs: Sequence[Expression],
        upper_exprs: Sequence[Expression],
        variant: str = "MovingBox",
    ) -> SetValuedMap:
        def make_fn(expr: Expression) -> Callable:
            def fn(x: Point, _e=expr):
                return _e({f"x_{k + 1}": x[k] for k in range(len(x))})

            return fn

        return cls(
            domain,
            [make_fn(e) for e in lower_exprs],
            [make_fn(e) for e in upper_exprs],
            variant=variant,
            lower_exprs=lower_exprs,
            upper_exprs=upper_exprs,
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Point) -> ConvexRegion:
        """The image box at x, clipped to the domain; error if empty."""
        box = self.domain
        if not contains(box, x, slack=box.snap()):
            raise ValueError(f"point {x} lies outside the domain box")
        lo, hi = [], []
        for k in range(box.dim):
            a = self.lower_fns[k](x)
            b = self.upper_fns[k](x)
            a = max(a, box.lower[k])
            b = min(b, box.upper[k])
            if not a <= b:
                raise InstanceDefinitionError(
                    f"image of {x} is empty after clipping on axis {k + 1}: [{a}, {b}]"
                )
            lo.append(a)
            hi.append(b)
        return ConvexRegion(tuple(lo), tuple(hi))

    def bounds_batch(self, X: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Clipped bound matrices for the rows of X, or None if not expression-backed.

        ``X`` is an (N, dim) array of points; the result is a pair of (N, dim)
        arrays.
        """
        if self.lower_exprs is None or self.domain.is_exact:
            return None
        env = {f"x_{k + 1}": X[:, k] for k in range(self.domain.dim)}
        lo = np.empty(X.shape)
        hi = np.empty(X.shape)
        for k in range(self.domain.dim):
            lo[:, k] = np.maximum(self.lower_exprs[k].eval_batch(env), float(self.domain.lower[k]))
            hi[:, k] = np.minimum(self.upper_exprs[k].eval_batch(env), float(self.domain.upper[k]))
        return lo, hi


# -- module-level operations (spec surface) --------------------------------


def evaluate(K: SetValuedMap, x: Point) -> ConvexRegion:
    return K.evaluate(x)


def image_index_ranges(K: SetValuedMap, x: Point, grid: Grid) -> tuple:
    """Per-axis (start, stop) index ranges of grid points inside K(x)."""
    return region_index_ranges(K.evaluate(x), grid, K.domain.snap())


def region_index_ranges(region: ConvexRegion, grid: Grid, snap: float) -> tuple:
    """Per-axis (start, stop) index ranges of grid points inside the region, with membership snap."""
    return tuple(
        grid.axis_index_range(k, region.lower[k], region.upper[k], slack=snap)
        for k in range(grid.dim)
    )


def image_grid(K: SetValuedMap, x: Point, grid: Grid) -> list:
    """Global grid points lying in K(x), lexicographic; [] if the image spans no grid point."""
    ranges = image_index_ranges(K, x, grid)
    if any(start >= stop for start, stop in ranges):
        return []
    axes = [grid.axes[k][start:stop] for k, (start, stop) in enumerate(ranges)]
    return [p for p in itertools.product(*axes)]


def fixed_point_set(K: SetValuedMap, grid: Grid, delta: float = 0.0) -> list:
    """All grid x with dist(x, K(x)) <= delta, lexicographic order."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    limit = delta + K.domain.snap()
    return [p for p, r in zip(grid_points(grid), membership_residuals(K, grid)) if r <= limit]


def membership_residuals(K: SetValuedMap, grid: Grid):
    """dist(x, K(x)) for every grid x, in lexicographic order.

    Returns a numpy array on the vectorized path, else a list.
    """
    X = grid_coords(grid)
    bounds = None if X is None else K.bounds_batch(X)
    if bounds is not None:
        return residuals_from_bounds(X, *bounds)
    return [K.evaluate(p).distance_to(p) for p in grid_points(grid)]


def residuals_from_bounds(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sup-norm distance from each row of X to the box [lo, hi] of the same row."""
    gap = np.maximum(lo - X, X - hi)
    return np.maximum(gap.max(axis=1), 0.0)


# -- topology probes -------------------------------------------------------


def _nearby_members(K: SetValuedMap, x_prime: tuple, z: tuple, r: float, grid: Grid) -> Optional[tuple]:
    """A point z' in K(x') with |z' - z| <= r, or None.

    For pure box maps the projection of z onto the image box is the closest
    member; predicate maps search grid points of the image near z.
    """
    xp = sampling.float_map_point(K, x_prime)
    lo, hi = sampling.float_region(K, xp)
    proj = tuple(min(max(z[k], lo[k]), hi[k]) for k in range(len(z)))
    if K.member_predicate is None:
        if point_distance(proj, z) <= r:
            return proj
        return None
    # predicate map: look along each axis' grid coordinates near the projection
    snap = K.domain.snap()
    best = None
    for k in range(len(z)):
        start, stop = grid.axis_index_range(k, max(lo[k], z[k] - r), min(hi[k], z[k] + r), slack=snap)
        for i in range(start, stop):
            cand = list(proj)
            cand[k] = float(grid.axes[k][i])
            cand_t = tuple(cand)
            if point_distance(cand_t, z) <= r and K.member_predicate(xp, cand_t):
                d = point_distance(cand_t, z)
                if best is None or d < point_distance(best, z):
                    best = cand_t
    if best is None and K.member_predicate(xp, proj) and point_distance(proj, z) <= r:
        best = proj
    return best


def _member_samples(K: SetValuedMap, x_map: Point, lo: tuple, hi: tuple, grid: Grid) -> list:
    """The region samples of K(x) that are members (the predicate, when present, filters)."""
    pts = sampling.region_samples(lo, hi, sampling.GRID_PROBE_BUDGET[grid.dim])
    keep = K.member_predicate
    return pts if keep is None else [p for p in pts if keep(x_map, p)]


def check_closed_graph(
    K: SetValuedMap,
    grid: Grid,
    radii: Optional[Sequence[float]] = None,
    margin: Optional[float] = None,
) -> TopologyProbeReport:
    """Falsifier for closedness of the graph of K.

    FAIL needs a pair (x, z) with z outside K(x) (by ``margin`` for box maps,
    or excluded by the predicate) that graph points approach at every probe
    radius.
    """
    radii, margin = sampling.probe_ladder(grid, radii, margin)
    rng = random.Random(sampling.PROBE_SEED)
    regions = list(sampling.lattice_regions(K, grid))
    lattice = [x for x, *_ in regions]
    samples = 0

    def approach(x, z, r):
        for x_prime in sampling.ball_candidates(x, r, K.domain, rng):
            z_prime = _nearby_members(K, x_prime, z, r, grid)
            if z_prime is not None:
                return {"radius": r, "x_prime": x_prime, "z_prime": z_prime}
        return None

    for x, x_map, lo, hi in regions:
        for z in lattice:
            samples += 1
            outside = box_distance(lo, hi, z)
            if K.member_predicate is not None:
                if K.member_predicate(x_map, z) or outside > margin:
                    continue
            elif outside < margin:
                continue
            trail = sampling.ladder_search(radii, lambda r: approach(x, z, r))
            if trail is not None:
                witness = {"x": x, "z": z, "outside_distance": float(outside), "approach": trail}
                return TopologyProbeReport(FAIL, witness, radii, samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, samples)


def check_lsc(
    K: SetValuedMap,
    grid: Grid,
    radii: Optional[Sequence[float]] = None,
    margin: Optional[float] = None,
) -> TopologyProbeReport:
    """Falsifier for lower semicontinuity of K.

    FAIL needs (x, y in K(x)) such that at every probe radius some x' that
    close to x keeps K(x') at distance >= margin from y.
    """
    radii, margin = sampling.probe_ladder(grid, radii, margin)
    rng = random.Random(sampling.PROBE_SEED + 1)
    samples = 0

    def receding(x, y, r):
        # the first candidate whose image is farthest from y
        x_prime, d = max(
            ((xp, float(box_distance(*sampling.float_region(K, sampling.float_map_point(K, xp)), y)))
             for xp in sampling.ball_candidates(x, r, K.domain, rng)),
            key=lambda cand: cand[1],
        )
        return None if d < margin else {"radius": r, "x_prime": x_prime, "distance": d}

    for x, x_map, lo, hi in sampling.lattice_regions(K, grid):
        for y in _member_samples(K, x_map, lo, hi, grid):
            samples += 1
            trail = sampling.ladder_search(radii, lambda r: receding(x, y, r))
            if trail is not None:
                witness = {"x": x, "y": y, "receding": trail}
                return TopologyProbeReport(FAIL, witness, radii, samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, samples)


def check_convex_values(
    K: SetValuedMap,
    grid: Grid,
    segment_samples: int = 64,
) -> TopologyProbeReport:
    """Falsifier for convexity of the values K(x).

    Samples y1, y2 in K(x) and lambda in (0,1) and verifies the combination is
    a member.  Box values pass structurally; a member predicate can break it.
    """
    if segment_samples < 1:
        raise ValueError("segment_samples must be >= 1")
    rng = random.Random(sampling.PROBE_SEED + 2)
    snap = K.domain.snap()
    samples = 0
    for x, x_map, lo, hi in sampling.lattice_regions(K, grid):
        pts = _member_samples(K, x_map, lo, hi, grid)
        lams = sampling.lambdas(False, rng, extra=3)
        pairs = itertools.islice(itertools.combinations(pts, 2), segment_samples)
        for y1, y2 in pairs:
            for lam in lams:
                samples += 1
                mid = tuple(lam * a + (1.0 - lam) * b for a, b in zip(y1, y2))
                inside = box_distance(lo, hi, mid) <= snap
                if inside and K.member_predicate is not None:
                    inside = K.member_predicate(x_map, mid)
                if not inside:
                    witness = {"x": x, "y1": y1, "y2": y2, "lambda": lam, "combination": mid}
                    return TopologyProbeReport(FAIL, witness, (), samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, (), samples)


def validate_setmap(K: SetValuedMap, grid: Grid) -> None:
    """Load-time validation: every grid x has a nonempty image inside C."""
    X = grid_coords(grid)
    bounds = None if X is None else K.bounds_batch(X)
    if bounds is None:
        for p in grid_points(grid):
            K.evaluate(p)  # raises InstanceDefinitionError when empty
        return
    lo, hi = bounds
    bad = np.nonzero((lo > hi).any(axis=1))[0]
    if bad.size:
        x = grid.point_at(np.unravel_index(int(bad[0]), grid.points_per_axis))
        raise InstanceDefinitionError(f"image of grid point {x} is empty after clipping")
