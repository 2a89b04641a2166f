"""Exhaustive grid solvers for equilibrium-type problems.

The solvers are oracles, not iterative methods: they scan the full grid and
test the defining inequalities directly, so their output doubles as ground
truth.  The inner minimization over K(x) always uses the restriction of the
single global grid, which makes solution-set comparisons across problem
reformulations literal sequence equalities.

QEP, EP, QVI and QOpt share one scan kernel, ``_scan``: it finds the fixed
points x in K(x) in lexicographic order, counts those whose image holds no
grid point, and hands every other one, with the index ranges of its image
grid, to the solver's inner minimum.  The kernel has two branches:

* table branch (float grids with expression maps): the map's bounds are
  evaluated once over the whole grid, the fixed points are picked with one
  comparison, their image ranges come from per-axis searchsorted tables, and
  points are built only at the fixed indices;
* per-point branch (exact grids, constant and callable maps): K is evaluated
  once at every grid point, and that one image gives both the residual and
  the index ranges.

The inner minimum is the exact scalar loop on exact grids, the minimum over
one table of h for separable payloads (the opt adapter's h(y) - h(x) and
QOpt gaps), and the payload's row evaluation otherwise.  Reports are
deterministic for a given instance and config.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .bifunction import Bifunction, ObjectiveFunction, make_opt_bifunction
from .errors import DegenerateImageError, NonFiniteValueError
from .geometry import Grid, Point, grid_coords, grid_points
from .setmap import (
    FAIL,
    NO_VIOLATION_FOUND,
    SetValuedMap,
    TopologyProbeReport,
    check_closed_graph,
    check_convex_values,
    check_lsc,
    image_grid,
    region_index_ranges,
    residuals_from_bounds,
)

QEP = "QEP"
EP = "EP"
QOPT = "QOPT"
QVI = "QVI"


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    eps_value: float = 1e-6
    delta_membership: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_value < 0 or self.delta_membership < 0:
            raise ValueError("tolerances must be nonnegative")

    def echo(self) -> dict:
        return {
            "grid": list(self.grid.points_per_axis),
            "eps": self.eps_value,
            "delta": self.delta_membership,
        }


@dataclass(frozen=True)
class SolutionRecord:
    point: Point
    membership_residual: float
    min_f: float
    gap: Optional[float] = None


@dataclass(frozen=True)
class SolveReport:
    problem_kind: str
    solutions: tuple
    config: dict
    min_gap_over_fixed_points: Optional[float] = None
    degenerate_points: int = 0
    wall_time: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SMapResult:
    base_point: Point
    members: tuple


@dataclass(frozen=True)
class TheoremReport:
    checks: dict
    solve_report: SolveReport
    anomaly: bool

    def verdicts(self) -> dict:
        return {name: rep.verdict for name, rep in self.checks.items()}


# -- the scan kernel --------------------------------------------------------


def _flat_indices(grid: Grid, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Flat lexicographic indices of the sub-rectangle given by per-axis ranges."""
    sizes = grid.points_per_axis
    idx = np.arange(ranges[0][0], ranges[0][1])
    for k in range(1, len(sizes)):
        nxt = np.arange(ranges[k][0], ranges[k][1])
        idx = (idx[:, None] * sizes[k] + nxt[None, :]).ravel()
    return idx


def _scan(K: SetValuedMap, cfg: SolverConfig, X: Optional[np.ndarray], inner: Callable) -> tuple[list, int]:
    """The outer scan behind every solver.

    ``X`` is ``grid_coords(cfg.grid)``.  At every fixed point x, in
    lexicographic order, whose image holds a grid point, calls
    ``inner(i, x, r, ranges)`` with the flat index i, the membership residual
    r and the per-axis (start, stop) index ranges of the image grid, and
    keeps what it returns unless None.  Returns those results and the number
    of fixed points whose image held no grid point.
    """
    grid = cfg.grid
    limit = cfg.delta_membership + grid.box.snap()
    bounds = None if X is None else K.bounds_batch(X)
    if bounds is None:

        def per_point():
            snap = K.domain.snap()
            for i, x in enumerate(grid_points(grid)):
                region = K.evaluate(x)  # one evaluation gives the residual and the ranges
                r = region.distance_to(x)
                if r <= limit:
                    yield i, x, r, region_index_ranges(region, grid, snap)

        candidates = per_point()
    else:
        lo, hi = bounds
        _require_finite("a map bound", np.hstack((lo, hi)), X)
        residuals = residuals_from_bounds(X, lo, hi)
        fixed = np.nonzero(residuals <= limit)[0]
        # (start, stop) per fixed point and axis, with the searchsorted
        # semantics and membership snap of image_index_ranges
        snap = K.domain.snap()
        spans = np.empty((len(fixed), grid.dim, 2), dtype=np.intp)
        for k, ax in enumerate(grid.axes):
            spans[:, k, 0] = np.searchsorted(ax, lo[fixed, k] - snap, side="left")
            spans[:, k, 1] = np.searchsorted(ax, hi[fixed, k] + snap, side="right")
        # rows are read one fixed point at a time: whole-array tolist() raises peak memory
        candidates = (
            (i, tuple(X[i].tolist()), residuals[i], spans[j].tolist()) for j, i in enumerate(fixed)
        )
    found = []
    degenerate = 0
    for i, x, r, ranges in candidates:
        if any(s >= e for s, e in ranges):
            degenerate += 1
            continue
        result = inner(i, x, r, ranges)
        if result is not None:
            found.append(result)
    return found, degenerate


def _require_finite(what: str, values: np.ndarray, X: np.ndarray) -> None:
    """Raise NonFiniteValueError naming the first grid point (row of X) with a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(len(X), -1)).all(axis=1))
    if bad.size:
        raise NonFiniteValueError(f"{what} is not finite at grid point {tuple(X[bad[0]].tolist())}")


def _finite(what: str, value, x: Point):
    """The value, unless it is inf or NaN."""
    if not math.isfinite(value):
        raise NonFiniteValueError(f"{what} is {float(value)} at grid point {x}")
    return value


def _image_min(h: ObjectiveFunction, grid: Grid, X: Optional[np.ndarray]) -> tuple:
    """The table of h over the grid and the minimum of h over an image grid.

    Returns ``(table, image_min)`` where ``image_min(ranges)`` is the
    minimum of the table over the sub-rectangle the ranges give.  This is
    the one separable inner minimum: the opt adapter's min over y of
    h(y) - h(x) and the QOpt gap both read it.
    """
    if X is None:
        table = [h.fn(p) for p in grid_points(grid)]
        return table, lambda ranges: min(table[j] for j in _flat_indices(grid, ranges))
    table = h.eval_batch(X)
    _require_finite("the objective", table, X)
    shaped = table.reshape(grid.points_per_axis)
    return table, lambda ranges: shaped[tuple(slice(s, e) for s, e in ranges)].min()


# -- the selection map ------------------------------------------------------


def smap(f: Bifunction, K: SetValuedMap, x: Point, cfg: SolverConfig) -> SMapResult:
    """Members x0 of the image grid with f(x0, y) >= -eps for all image y."""
    grid = cfg.grid
    eps = cfg.eps_value
    pts = image_grid(K, x, grid)
    if not pts:
        raise DegenerateImageError(f"image grid of {x} is empty")
    if f.scalar_kind == "exact" or grid.box.is_exact:
        members = []
        for x0 in pts:
            vals = [f.fn(x0, y) for y in pts]
            if all(v >= -eps for v in vals):
                members.append(x0)
        return SMapResult(x, tuple(members))
    Y = np.asarray(pts, dtype=float)
    h = f.objective
    if h is not None:
        h_min = h.eval_batch(Y).min()
        return SMapResult(x, tuple(x0 for x0 in pts if h_min - h.fn(x0) >= -eps))
    return SMapResult(x, tuple(x0 for x0 in pts if f.row(x0, Y).min() >= -eps))


# -- QEP / EP / QVI ---------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are found and named instead
def solve_qep(f: Bifunction, K: SetValuedMap, cfg: SolverConfig, kind: str = QEP) -> SolveReport:
    start = time.perf_counter()
    grid = cfg.grid
    eps = cfg.eps_value
    X = grid_coords(grid)
    if X is None:

        def inner_min(x, ranges):
            image = itertools.product(*(ax[s:e] for ax, (s, e) in zip(grid.axes, ranges)))
            return min(f.fn(x, y) for y in image)

    elif f.objective is not None:
        h = f.objective
        _table, h_min = _image_min(h, grid, X)

        def inner_min(x, ranges):
            # float-identical to the row minimum: subtracting a constant is
            # monotone under correct rounding, so min and subtract commute
            return float(h_min(ranges) - h.fn(x))

    else:

        def inner_min(x, ranges):
            return float(f.row(x, X[_flat_indices(grid, ranges)]).min())

    def record(i, x, r, ranges):
        m = _finite("the minimum of f(x, .) over K(x)", inner_min(x, ranges), x)
        return SolutionRecord(x, float(r), float(m)) if m >= -eps else None

    records, degenerate = _scan(K, cfg, X, record)
    return SolveReport(
        problem_kind=kind,
        solutions=tuple(records),
        config=cfg.echo(),
        degenerate_points=degenerate,
        wall_time=time.perf_counter() - start,
    )


def solve_ep(f: Bifunction, C_box, cfg: SolverConfig) -> SolveReport:
    """The K == C special case; identical to solve_qep with a constant map."""
    K = SetValuedMap.constant(C_box)
    report = solve_qep(f, K, cfg, kind=EP)
    return report


# -- QOpt -------------------------------------------------------------------


def qopt_gap(h: ObjectiveFunction, K: SetValuedMap, x: Point, cfg: SolverConfig) -> float:
    """h(x) minus the minimum of h over the image grid of x."""
    grid = cfg.grid
    pts = image_grid(K, x, grid)
    if not pts:
        raise DegenerateImageError(f"image grid of {x} is empty")
    if grid.box.is_exact:
        m = min(h.fn(p) for p in pts)
        return float(h.fn(x) - m)
    Y = np.asarray(pts, dtype=float)
    return float(h.fn(x) - h.eval_batch(Y).min())


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are found and named instead
def solve_qopt(h: ObjectiveFunction, K: SetValuedMap, cfg: SolverConfig) -> SolveReport:
    start = time.perf_counter()
    grid = cfg.grid
    eps = cfg.eps_value
    X = grid_coords(grid)
    table, h_min = _image_min(h, grid, X)
    min_gap = None

    def record(i, x, r, ranges):
        nonlocal min_gap
        gap = _finite("the gap", float(table[i] - h_min(ranges)), x)
        if min_gap is None or gap < min_gap:
            min_gap = gap
        return SolutionRecord(x, float(r), -gap, gap=gap) if gap <= eps else None

    records, degenerate = _scan(K, cfg, X, record)
    return SolveReport(
        problem_kind=QOPT,
        solutions=tuple(records),
        config=cfg.echo(),
        min_gap_over_fixed_points=min_gap,
        degenerate_points=degenerate,
        wall_time=time.perf_counter() - start,
    )


# -- equivalence and theorem verification -----------------------------------


def check_lemma_equivalence(h: ObjectiveFunction, K: SetValuedMap, cfg: SolverConfig) -> bool:
    """Grid solution sets of the QEP reformulation and the direct QOpt scan agree."""
    f = make_opt_bifunction(h, K.domain, scalar_kind="exact" if cfg.grid.box.is_exact else "real")
    qep = solve_qep(f, K, cfg)
    qopt = solve_qopt(h, K, cfg)
    return [rec.point for rec in qep.solutions] == [rec.point for rec in qopt.solutions]


def verify_theorem_instance(
    instance, cfg: SolverConfig, trials: int = 400, seed: int = 1729
) -> TheoremReport:
    """Run the six hypothesis checkers, then solve, and flag anomalies.

    The verdicts are falsifier outputs, so an empty solution set with all
    checks clean is reported as an ANOMALY (grid artifact or counterexample
    candidate), never as a refutation.
    """
    from .bifunction import (
        check_condition_ii,
        check_condition_iii,
        check_condition_iv,
    )

    f = instance.bifunction()
    K = instance.K
    grid = cfg.grid
    checks = {
        "closed_graph": check_closed_graph(K, grid),
        "lsc": check_lsc(K, grid),
        "convex_values": check_convex_values(K, grid),
        "condition_ii": check_condition_ii(f, instance.C, seed=seed),
        "condition_iii": check_condition_iii(f, instance.C, trials=trials, seed=seed),
        "condition_iv": check_condition_iv(f, grid, seed=seed),
    }
    solve_report = solve_qep(f, K, cfg, kind=instance.problem_kind())
    all_clean = all(rep.verdict == NO_VIOLATION_FOUND for rep in checks.values())
    anomaly = all_clean and not solve_report.solutions
    return TheoremReport(checks=checks, solve_report=solve_report, anomaly=anomaly)


# -- sampled closedness of the selection map --------------------------------


def smap_closed_graph_probe(
    f: Bifunction,
    K: SetValuedMap,
    cfg: SolverConfig,
    radii: Optional[Sequence[float]] = None,
    margin: Optional[float] = None,
) -> TopologyProbeReport:
    """The closed-graph falsifier applied to the sampled graph of the selection map.

    The graph is sampled at grid base points; member sets are computed lazily
    and cached.  Verdict semantics match check_closed_graph.
    """
    grid = cfg.grid
    radii, margin = sampling.probe_ladder(grid, radii, margin)

    cache: dict = {}

    def members_at(index: tuple) -> tuple:
        if index not in cache:
            x = grid.point_at(index)
            try:
                cache[index] = smap(f, K, x, cfg).members
            except DegenerateImageError:
                cache[index] = ()
        return cache[index]

    def dist(p: Point, q: Point) -> float:
        return max(abs(float(a) - float(b)) for a, b in zip(p, q))

    def approach(xi: tuple, x: Point, z: Point, r: float) -> Optional[dict]:
        for xpi in sampling.near_indices(grid, xi, r):
            xp = grid.point_at(xpi)
            if dist(x, xp) > r:
                continue
            for m in members_at(xpi):
                if dist(z, m) <= r:
                    return {"radius": r, "x_prime": xp, "z_prime": m}
        return None

    probe = sampling.index_lattice(grid, sampling.SMAP_PROBE_BUDGET)
    samples = 0
    for xi in probe:
        x = grid.point_at(xi)
        mem_x = members_at(xi)
        for zi in probe:
            z = grid.point_at(zi)
            samples += 1
            if min((dist(z, m) for m in mem_x), default=float("inf")) < margin:
                continue
            trail = sampling.ladder_search(radii, lambda r: approach(xi, x, z, r))
            if trail is not None:
                witness = {"x": x, "z": z, "approach": trail}
                return TopologyProbeReport(FAIL, witness, radii, samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, samples)
