"""Set-valued constraint maps K: C => C with box-shaped images.

Images are per-axis intervals (clipped to the domain box), so convexity of values is structural; one core,
``SetValuedMap._bounds``, evaluates a batch of them for the solvers and the ladders alike.  The topological
hypothesis checks are sampled falsifiers: they return a concrete violation witness or NO_VIOLATION_FOUND, never
a proof.  They take no sampling parameters: their lattices, radius ladders, margins, budgets and seeds are
``sampling``'s.  closed_graph and lsc share one ladder check, ``_ladder_check``, whose ladders the one ladder driver
``sampling.settle_ladders`` settles; convex_values replays the probes its batch flags through ``sampling.first_witness``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .errors import InstanceDefinitionError, NonFiniteValueError
from .expressions import Expression, parse_expression
from .geometry import (
    CompactBox,
    Grid,
    Point,
    box_distance,
    contains,
    convex_combinations,
    first_point,
    mesh_points,
    point_columns,
    point_distance,
)

FAIL = "FAIL"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"

MAP_KINDS = ("moving_box", "piecewise_moving_interval", "constant")


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

    A bound may be any function of the point x; when every bound is an
    ``Expression``, ``bounds_batch`` evaluates them in one batch.
    ``member_predicate(x, z)``, when given, refines membership for the
    topology and convexity probes (it can exclude points of the box, e.g. to
    encode a half-open interval); image evaluation remains box-based.
    ``variant`` is one of ``MAP_KINDS``, the problem file's ``[map] kind``.
    """

    def __init__(
        self,
        domain: CompactBox,
        lower_fns: Sequence[Callable],
        upper_fns: Sequence[Callable],
        variant: str = "moving_box",
        member_predicate: Optional[Callable] = None,
    ) -> None:
        if variant not in MAP_KINDS:
            raise InstanceDefinitionError(f"unknown map variant {variant!r}")
        if variant == "piecewise_moving_interval" and domain.dim != 1:
            raise InstanceDefinitionError("piecewise_moving_interval requires a 1-d domain")
        if len(lower_fns) != domain.dim or len(upper_fns) != domain.dim:
            raise InstanceDefinitionError("bound count does not match domain dimension")
        self.domain = domain
        self.variant = variant
        self.lower_fns = tuple(lower_fns)
        self.upper_fns = tuple(upper_fns)
        self.member_predicate = member_predicate

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, domain: CompactBox) -> SetValuedMap:
        """K(x) = C for every x: on a float box its bounds are ``Expression`` constants, evaluated in one batch."""
        def bound(v):  # a Root2 stays exact: an Expression evaluates in floats
            return (lambda x: v) if domain.is_exact else parse_expression(repr(float(v)))

        return cls(domain, [bound(v) for v in domain.lower], [bound(v) for v in domain.upper], variant="constant")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Point) -> ConvexRegion:
        """The image box at x, clipped to the domain; error if a bound is not finite or the box is empty."""
        box = self.domain
        if not contains(box, x, slack=box.snap()):
            raise ValueError(f"point {x} lies outside the domain box")
        lo, hi = [], []
        for k in range(box.dim):
            a, b = self.lower_fns[k](x), self.upper_fns[k](x)
            if not box.is_exact and not (math.isfinite(a) and math.isfinite(b)):  # before clipping, as bounds_batch
                raise NonFiniteValueError(f"a map bound is not finite at {x} on axis {k + 1}: [{a}, {b}]")
            a, b = max(a, box.lower[k]), min(b, box.upper[k])
            if not a <= b:
                raise InstanceDefinitionError(f"image of {x} is empty after clipping on axis {k + 1}: [{a}, {b}]")
            lo.append(a)
            hi.append(b)
        return ConvexRegion(tuple(lo), tuple(hi))

    @np.errstate(over="ignore", invalid="ignore")  # non-finite bounds are flagged instead
    def _bounds(self, at) -> tuple[list, list, np.ndarray]:
        """``bounds_batch``'s (lo, hi), with no raise, and where every bound was finite before clipping, broadcast."""
        box, dtype = self.domain, at[0].dtype
        if all(isinstance(fn, Expression) for fn in self.lower_fns + self.upper_fns):
            lo, hi = ([np.asarray(fn.eval_batch(at), dtype=dtype) for fn in fns] for fns in (self.lower_fns, self.upper_fns))
        else:
            shape, points = mesh_points(at)
            fns = [fn for pair in zip(self.lower_fns, self.upper_fns) for fn in pair]  # lower_1, upper_1, lower_2, ...
            v = np.fromiter((fn(x) for x in points for fn in fns), dtype, len(fns) * math.prod(shape)).reshape(*shape, -1)
            lo, hi = list(np.moveaxis(v[..., 0::2], -1, 0)), list(np.moveaxis(v[..., 1::2], -1, 0))
        # before clipping, which would turn an infinite bound finite; a Root2 is always finite
        finite = np.True_ if dtype == object else functools.reduce(np.logical_and, map(np.isfinite, lo + hi))
        limits, clipped = np.asarray(box.lower + box.upper, dtype=dtype), []
        for k, b in enumerate(lo + hi):  # in place, unless b is (a view of) an operand, such as the bound x_1
            own = b.flags.writeable and not any(np.may_share_memory(b, a) for a in at)
            clipped.append((np.maximum if k < box.dim else np.minimum)(b, limits[k], out=b if own else None))
        return clipped[:box.dim], clipped[box.dim:], finite

    def bounds_batch(self, at) -> tuple[list, list]:
        """Clipped bounds (lo, hi) at the points of ``at``: coordinates in the domain's scalars that broadcast, the rows
        of a (dim, N) array or a grid's open mesh ``np.ix_(*grid.axes)``.

        ``lo[k]`` and ``hi[k]``, axis k's, broadcast against ``at``: when every bound is an ``Expression``, each is its
        batch value in the shape of the axes it reads, never copied out to every point; else each point, a tuple of
        Python scalars, goes to lower_1, upper_1, lower_2, ... in turn.  Raises NonFiniteValueError at the first point
        (in C order) with a bound not finite before clipping, then InstanceDefinitionError at the first point whose
        image is empty, each naming that point.
        """
        lo, hi, finite = self._bounds(at)
        if not finite.all():
            raise NonFiniteValueError(f"a map bound is not finite at grid point {first_point(at, ~finite)}")
        if any((a > b).any() for a, b in zip(lo, hi)):
            empty = functools.reduce(np.logical_or, map(np.greater, lo, hi))
            raise InstanceDefinitionError(f"image of grid point {first_point(at, empty)} is empty after clipping")
        return lo, hi


# -- module-level operations (spec surface) --------------------------------


def evaluate(K: SetValuedMap, x: Point) -> ConvexRegion:
    return K.evaluate(x)


def image_index_ranges(K: SetValuedMap, x: Point, grid: Grid) -> tuple:
    """Per-axis (start, stop) index ranges of grid points inside K(x), with the domain's membership snap."""
    region, snap = K.evaluate(x), K.domain.snap()
    return tuple(grid.axis_index_range(k, region.lower[k], region.upper[k], slack=snap) for k in range(grid.dim))


def image_grid(K: SetValuedMap, x: Point, grid: Grid) -> list:
    """Global grid points lying in K(x), lexicographic; [] if the image spans no grid point."""
    ranges = image_index_ranges(K, x, grid)
    if any(start >= stop for start, stop in ranges):
        return []
    axes = [grid.axes[k][start:stop].tolist() for k, (start, stop) in enumerate(ranges)]
    return list(itertools.product(*axes))


def fixed_table(K: SetValuedMap, grid: Grid, delta: float = 0.0) -> tuple:
    """Every grid x with dist(x, K(x)) <= delta, as arrays ``(fixed, residuals, spans)``.

    ``fixed`` holds the flat indices in increasing (lexicographic) order, ``residuals`` the membership residuals as
    floats and ``spans[j, k]`` the (start, stop) index range on axis k of the grid points in K(x), start >= stop if
    none.  The domain's membership snap widens the residual limit and the ranges.  All of them come from one
    ``bounds_batch`` over the grid's open mesh, in the grid's scalars, and one grid-shaped array of residuals; the
    ranges are searched in ``grid.axes``, a bound that reads every axis at the fixed points alone, one that reads
    fewer on its own small array.  Exact grids test the residual exactly and round it on return.
    """
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    snap, mesh = K.domain.snap(), np.ix_(*grid.axes)
    lo, hi = K.bounds_batch(mesh)
    residuals = np.zeros(grid.points_per_axis, dtype=mesh[0].dtype)  # a running maximum over the grid's shape
    for k in range(grid.dim):
        np.maximum(residuals, lo[k] - mesh[k], out=residuals)
        np.maximum(residuals, mesh[k] - hi[k], out=residuals)
    np.maximum(residuals, 0.0, out=residuals)  # every zero residual becomes +0.0
    fixed = np.flatnonzero(residuals <= delta + snap)
    spans, index = np.empty((len(fixed), grid.dim, 2), dtype=np.intp), None
    for k, ax in enumerate(grid.axes):
        for j, b, shift, side in ((0, lo[k], -snap, "left"), (1, hi[k], snap, "right")):
            if b.size == residuals.size:  # read at every point: gathered flat at the fixed points, then searched
                spans[:, k, j] = np.searchsorted(ax, b.ravel()[fixed] + shift, side=side)
            else:  # searched on its own small array, then gathered
                index = np.unravel_index(fixed, grid.points_per_axis) if index is None else index
                spans[:, k, j] = np.broadcast_to(np.searchsorted(ax, b + shift, side=side), residuals.shape)[index]
    return fixed, residuals.ravel()[fixed].astype(float), spans


def fixed_point_set(K: SetValuedMap, grid: Grid, delta: float = 0.0) -> list:
    """All grid x with dist(x, K(x)) <= delta, lexicographic order."""
    fixed, _residuals, _spans = fixed_table(K, grid, delta)
    return list(grid.points_at(fixed))


# -- topology probes -------------------------------------------------------


def _nearby_members(
    K: SetValuedMap, region: Callable, x_prime: tuple, z: tuple, r: float, grid: Grid
) -> Optional[tuple]:
    """A point z' in K(x') with |z' - z| <= r, or None; ``region`` is a ``sampling.region_lookup(K)``.

    For pure box maps the projection of z onto the image box is the closest
    member; predicate maps search grid points of the image near z.
    """
    lo, hi = region(x_prime)
    proj = tuple(min(max(z[k], lo[k]), hi[k]) for k in range(len(z)))
    if K.member_predicate is None:
        if point_distance(proj, z) <= r:
            return proj
        return None
    # predicate map: look along each axis' grid coordinates near the projection
    xp = sampling.float_map_point(K.domain, x_prime)
    snap = K.domain.snap()
    best = None
    for k in range(len(z)):
        start, stop = grid.axis_index_range(k, max(lo[k], z[k] - r), min(hi[k], z[k] + r), slack=snap)
        for i in range(start, stop):
            cand = proj[:k] + (float(grid.axes[k][i]),) + proj[k + 1:]
            d = point_distance(cand, z)
            if d <= r and K.member_predicate(xp, cand) and (best is None or d < point_distance(best, z)):
                best = cand
    if best is None and K.member_predicate(xp, proj) and point_distance(proj, z) <= r:
        best = proj
    return best


def _member_samples(K: SetValuedMap, x_map: Point, lo: tuple, hi: tuple, grid: Grid) -> list:
    """The region samples of K(x) that are members (the predicate, when present, filters)."""
    pts = sampling.region_samples(lo, hi, sampling.GRID_PROBE_BUDGET[grid.dim])
    keep = K.member_predicate
    return pts if keep is None else [p for p in pts if keep(x_map, p)]


def _ladder_batch(K: SetValuedMap, radii: tuple, rng: sampling.DrawStream, goes_on: Callable, xs: list, where, T):
    """The ladders that the loop must run, in order, ladder i at the lattice point xs[where[i]] towards the target
    T[:, i], from ``sampling.settle_ladders``.  Before each one, rng's cursor stands where the loop over every ladder
    would leave it.

    A ladder goes on at a rung while ``goes_on(lo, hi, t, r)``, arrays broadcast behind a leading axis per
    coordinate, holds at a candidate of the rung, whose image is [lo, hi].  The images of every lattice point and its
    axis moves at every rung come from one batch, stored rung by rung.  An image that ``K.evaluate`` would refuse (a
    bound not finite before clipping, or empty) codes its rung as one the loop must see, so the loop raises as it
    would.  Without a batch form (exact domains, member predicates, bounds not all ``Expression``s) every ladder is
    yielded.
    """
    box, bounds, n = K.domain, K.lower_fns + K.upper_fns, len(where)
    if n == 0 or box.is_exact or K.member_predicate is not None or not all(isinstance(fn, Expression) for fn in bounds):
        return range(n)
    dim, radii_col, centres = box.dim, np.array(radii)[:, None], point_columns(xs, float).T[:, None]

    def images(X):  # a non-finite bound or an empty image is replayed by the loop instead
        (lo, hi, finite), table = K._bounds(X), np.empty((2, *X.shape))
        for row, v in zip(table.reshape(-1, X.shape[1]), lo + hi):
            row[...] = v  # lo and hi as (dim, N) arrays, for the goes_on tests
        return table[0], table[1], finite & (table[0] <= table[1]).all(axis=0)

    rungs = np.stack([np.concatenate([centres[:, None], sampling.point_moves(centres, r, box)], axis=1) for r in radii])
    lo, hi, ok = images(rungs.reshape(-1, dim).T)  # (radii, xs, 1 + 2 * dim, 1, dim): a rung is x, then its axis moves
    lo, hi = (np.ascontiguousarray(b.reshape(dim, len(radii), len(xs), -1).swapaxes(0, 1)) for b in (lo, hi))
    clear = ok.reshape(len(radii), len(xs), -1).all(axis=2)

    def fixed(i, j):  # rung j of the ladders i: x, then its axis moves
        p = where[i]
        return np.where(clear[j, p], goes_on(lo[j][:, p], hi[j][:, p], T[:, i, None], radii[j]).any(axis=1), -1)

    def jittered(i, j, Q):  # rung j[row] of the ladder i[row]: its random candidates, Q[row]
        lo, hi, ok = images(Q.reshape(-1, dim).T)
        on = goes_on(lo.reshape(dim, len(i), -1), hi.reshape(dim, len(i), -1), T[:, i, None], radii_col[j])
        return np.where(ok.reshape(len(i), -1).all(axis=1), on.any(axis=1), -1)

    return sampling.settle_ladders(centres[where], radii, box, rng, fixed, jittered)[1]


def _ladder_check(K: SetValuedMap, radii: tuple, seed: int, regions, targets, goes_on, rung, witness):
    """The ladder check of closed_graph and lsc: a radius ladder per lattice point x, sample number n and target t.

    ``regions`` gives each lattice point (x, x in K's scalars, lo, hi), ``targets(x_map, lo, hi)`` its samples,
    None where no ladder runs; every region and target list is made before any ladder runs.  Rung r is
    ``rung(region, candidates, t, r)``, the candidates being x, then ``sampling.rung_candidates`` of x, and a hit at
    every rung FAILs with ``witness(x, lo, hi, t, trail)``, n + 1 samples in.  An error in ``regions`` or ``targets``
    is raised only after the ladders before it have run.
    """
    box, rng, points, count, error = K.domain, sampling.DrawStream(seed), [], 0, None
    T, numbers = [], [np.empty(0, dtype=np.intp)]  # T: every target's coordinates in turn, not a tuple per target
    try:
        for x, x_map, lo, hi in regions:
            samples = targets(x_map, lo, hi)
            T += [c for t in samples if t is not None for c in t]
            numbers.append(count + np.flatnonzero([t is not None for t in samples]))  # each ladder's sample number
            points.append((x, lo, hi))
            count += len(samples)
    except Exception as exc:  # whatever the loop would raise there, it raises after the ladders before it
        error = exc
    where = np.repeat(np.arange(len(points)), [len(n) for n in numbers[1:]])
    T, numbers = np.array(T, dtype=float).reshape(-1, box.dim).T, np.concatenate(numbers)
    order = _ladder_batch(K, radii, rng, goes_on, [x for x, *_ in points], where, T)
    for p, ladders in itertools.groupby(order, where.__getitem__):
        (x, lo, hi), region = points[p], sampling.region_lookup(K)  # x's candidates recur for every t
        candidates = lambda r: [x] + [c for c, in sampling.rung_candidates((x,), r, box, rng)]
        for i in ladders:
            t = tuple(T[:, i].tolist())
            trail = sampling.ladder_search(radii, lambda r: rung(region, candidates(r), t, r))
            if trail is not None:
                return TopologyProbeReport(FAIL, witness(x, lo, hi, t, trail), radii, int(numbers[i]) + 1)
    if error is not None:
        raise error
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, count)


def check_closed_graph(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    """Falsifier for closedness of the graph of K.

    FAIL needs a pair (x, z) with z outside K(x) (by ``margin`` for box maps,
    or excluded by the predicate) that graph points approach at every probe
    radius.  Every lattice region is evaluated before any ladder runs.
    """
    radii, margin = sampling.probe_ladder(grid)
    regions = list(sampling.lattice_regions(K, grid))
    lattice = [x for x, *_ in regions]

    def targets(x_map, lo, hi):
        if K.member_predicate is not None:
            return [None if K.member_predicate(x_map, z) or box_distance(lo, hi, z) > margin else z for z in lattice]
        return [z if box_distance(lo, hi, z) >= margin else None for z in lattice]

    def approaches(lo, hi, z, r):  # the projection of z onto [lo, hi] lies within sup-distance r of z
        return np.abs(np.minimum(np.maximum(z, lo), hi) - z).max(axis=0) <= r

    def approach(region, candidates, z, r):
        for x_prime in candidates:
            z_prime = _nearby_members(K, region, x_prime, z, r, grid)
            if z_prime is not None:
                return {"radius": r, "x_prime": x_prime, "z_prime": z_prime}
        return None

    def witness(x, lo, hi, z, trail):
        return {"x": x, "z": z, "outside_distance": float(box_distance(lo, hi, z)), "approach": trail}

    return _ladder_check(K, radii, sampling.PROBE_SEED, regions, targets, approaches, approach, witness)


def check_lsc(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    """Falsifier for lower semicontinuity of K.

    FAIL needs (x, y in K(x)) such that at every probe radius some x' that
    close to x keeps K(x') at distance >= margin from y.  Every lattice region
    is evaluated first, but a FAIL at a lattice point wins over an error at a later one.
    """
    radii, margin = sampling.probe_ladder(grid)

    def receding(region, candidates, y, r):
        # the first candidate whose image is farthest from y
        x_prime, d = max(((xp, float(box_distance(*region(xp), y))) for xp in candidates), key=lambda c: c[1])
        return None if d < margin else {"radius": r, "x_prime": x_prime, "distance": d}

    def recedes(lo, hi, y, r):
        return np.maximum(lo - y, y - hi).max(axis=0) >= margin

    return _ladder_check(
        K, radii, sampling.PROBE_SEED + 1, sampling.lattice_regions(K, grid),
        lambda x_map, lo, hi: _member_samples(K, x_map, lo, hi, grid), recedes, receding,
        lambda x, lo, hi, y, trail: {"x": x, "y": y, "receding": trail},
    )


def check_convex_values(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    """Falsifier for convexity of the values K(x).

    Samples y1, y2 in K(x) and lambda in (0,1) and verifies the combination is
    a member.  Box values pass structurally; a member predicate can break it.
    Without one, each x's probes are screened in one batch, and only those it
    does not show inside are replayed through ``sampling.first_witness``.
    """
    snap, samples, per = K.domain.snap(), 0, 3 + sampling.SEGMENT_EXTRA_LAMBDAS
    n = len(sampling.index_lattice(grid, sampling.GRID_PROBE_BUDGET))  # the rng is this check's own: draw every x's
    every = sampling.lambdas(False, random.Random(sampling.PROBE_SEED + 2), sampling.SEGMENT_EXTRA_LAMBDAS, n).reshape(n, per)
    picks = np.repeat(np.arange(2 * sampling.SEGMENT_PAIRS).reshape(-1, 2), per, axis=0)  # row r: pair r // per
    for p, (x, x_map, lo, hi) in enumerate(sampling.lattice_regions(K, grid)):
        pts = _member_samples(K, x_map, lo, hi, grid)
        pairs = list(itertools.islice(itertools.combinations(pts, 2), sampling.SEGMENT_PAIRS))
        if not pairs:
            continue
        Y = point_columns([y for pair in pairs for y in pair], float)  # y1 and y2 alternate
        M = convex_combinations(Y, picks[:len(pairs) * per], np.tile(every[p], len(pairs)))
        outside = ~(np.maximum(np.array(lo)[:, None] - M, M - np.array(hi)[:, None]).max(axis=0) <= snap)

        def probe(r):  # the loop's order, pair first
            (y1, y2), lam, mid = pairs[r // per], every[p, r % per].item(), tuple(M[:, r].tolist())
            inside = box_distance(lo, hi, mid) <= snap
            if inside and K.member_predicate is not None:
                inside = K.member_predicate(x_map, mid)
            return None if inside else {"x": x, "y1": y1, "y2": y2, "lambda": lam, "combination": mid}

        n, witness = sampling.first_witness(len(pairs) * per, probe, None if K.member_predicate else outside)
        samples += n
        if witness is not None:
            return TopologyProbeReport(FAIL, witness, (), samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, (), samples)
