"""Exhaustive grid solvers for equilibrium-type problems.

The solvers are oracles, not iterative methods: they scan the full grid and
test the defining inequalities directly, so their output doubles as ground
truth.  The inner minimization over K(x) always uses the restriction of the
single global grid, which makes solution-set comparisons across problem
reformulations literal sequence equalities.

QEP, EP, QVI and QOpt run one straight line over the arrays of
``setmap.fixed_table``, which alone finds the fixed points x in K(x), in
lexicographic order and with the index ranges of their image grids.  Every
array holds the grid's scalars, as ``grid.axes``: floats, or exact ``Root2``
objects until the report rounds them.  The inner minimum depends only on the
payload.  Separable payloads (QOpt gaps and the opt adapter's h(y) - h(x))
build no (dim, N) array of points: bounds and h read the open mesh
``np.ix_(*grid.axes)``, h fills one table over the grid, and a sparse table
of range minima answers every
image at once, built one level tuple at a time, so it holds about d
grid-sized arrays, never all its levels.  Other payloads take the minimum of
``Bifunction.row`` over the image's block of the grid, one fixed point at a
time, except where an ``Expression`` row on a float grid is provably
monotone: there the minimum is its value at one corner of the block.

IEEE-754 round-to-nearest ``+``, ``-``, ``*`` and ``/`` are non-decreasing
in each argument (Goldberg 1991).  So a row built from them, with factors
free of y of known sign, ``min``, ``max`` and ``piecewise`` on a condition
in x alone, is monotone in each y_k in floats as in reals, and its block
minimum is its value at the corner that the directions pick (the
monotonicity test of interval optimization, Hansen & Walster 2004, used as
an exact identity).  ``Expression.y_directions`` finds the directions for
all fixed points in one batch, and one ``eval_batch`` gives every corner
value.  A fixed point keeps the block when a direction is unknown, when the
corner value is zero (a block holding 0.0 and -0.0 may give either), or
when a subterm is not finite at one of the block's two extreme corners.
Every subterm is monotone too, the same way as the row or the opposite
way, so finite values there leave no NaN inside the block; a finite row at
both corners would not, as inf - inf inside may clip to finite corners.
Reports are deterministic for a given instance and config.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sampling
from .bifunction import (
    Bifunction,
    ObjectiveFunction,
    check_condition_ii,
    check_condition_iii,
    check_condition_iv,
    check_diagonal_zero,
    check_quasiconcave_first,
    check_quasiconvex_second,
    make_opt_bifunction,
)
from .errors import DegenerateImageError, NonFiniteValueError
from .expressions import Expression
from .geometry import Grid, Point, first_point, grid_coords, point_columns
from .setmap import (
    FAIL,
    NO_VIOLATION_FOUND,
    SetValuedMap,
    TopologyProbeReport,
    check_closed_graph,
    check_convex_values,
    check_lsc,
    fixed_table,
    image_grid,
)

QEP = "QEP"
EP = "EP"
QOPT = "QOPT"
QVI = "QVI"

#: The checks verify always runs, then the extra ones a file's [checks] run selects: name -> check(instance, f, grid,
#: trials, seed), in the order they run.
THEOREM_CHECKS = {
    "closed_graph": lambda instance, f, grid, trials, seed: check_closed_graph(instance.K, grid),
    "lsc": lambda instance, f, grid, trials, seed: check_lsc(instance.K, grid),
    "convex_values": lambda instance, f, grid, trials, seed: check_convex_values(instance.K, grid),
    "condition_ii": lambda instance, f, grid, trials, seed: check_condition_ii(f, instance.C, seed=seed),
    "condition_iii": lambda instance, f, grid, trials, seed: check_condition_iii(f, instance.C, trials, seed),
    "condition_iv": lambda instance, f, grid, trials, seed: check_condition_iv(f, grid, seed=seed),
}
EXTRA_CHECKS = {
    "qcvx_second": lambda instance, f, grid, trials, seed: check_quasiconvex_second(f, instance.C, trials, seed),
    "qccv_first": lambda instance, f, grid, trials, seed: check_quasiconcave_first(f, instance.C, trials, seed),
    "diagonal_zero": lambda instance, f, grid, trials, seed: check_diagonal_zero(f, grid),
}


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    eps_value: float = 1e-6
    delta_membership: float = 0.0

    def __post_init__(self) -> None:
        if not (self.eps_value >= 0 and self.delta_membership >= 0):
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
class TheoremReport:
    checks: dict
    solve_report: SolveReport
    anomaly: bool

    def verdicts(self) -> dict:
        return {name: rep.verdict for name, rep in self.checks.items()}


# -- the scan ---------------------------------------------------------------


def _box(span) -> tuple:
    """The slices of one (d, 2) span of index ranges."""
    return tuple(slice(s, e) for s, e in span)


def _fixed_points(K: SetValuedMap, cfg: SolverConfig) -> tuple:
    """``setmap.fixed_table``'s arrays less the fixed points whose image holds no grid point, and their count."""
    fixed, residuals, spans = fixed_table(K, cfg.grid, cfg.delta_membership)
    held = (spans[:, :, 0] < spans[:, :, 1]).all(axis=1)
    return fixed[held], residuals[held], spans[held], len(held) - int(held.sum())


def _all_finite(what: str, values, grid: Grid, fixed: np.ndarray) -> np.ndarray:
    """The values as floats, unless one is inf or NaN; the first such is named at its grid point."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        x = next(grid.points_at(fixed[bad[:1]]))
        raise NonFiniteValueError(f"{what} is {float(values[bad[0]])} at grid point {x}")
    return values


def _objective_table(h: ObjectiveFunction, grid: Grid) -> np.ndarray:
    """h over the grid, shaped ``grid.points_per_axis``, in the grid's scalars: evaluated on the open mesh."""
    mesh = np.ix_(*grid.axes)
    table = h.eval_batch(mesh)
    if table.dtype != object and not np.isfinite(table).all():  # a Root2 is always finite
        raise NonFiniteValueError(f"the objective is not finite at grid point {first_point(mesh, ~np.isfinite(table))}")
    return table


def _row_minima(f: Bifunction, grid: Grid, X: np.ndarray, fixed: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The minimum of ``f.row(x, .)`` over the image's block of X, its points in lexicographic order, for each fixed point x."""
    cube = X.reshape((grid.dim,) + grid.points_per_axis)
    blocks = (cube[(slice(None),) + _box(span)].reshape(grid.dim, -1) for span in spans)
    return np.array([f.row(x, Y).min() for x, Y in zip(grid.points_at(fixed), blocks)], dtype=X.dtype)


def _inner_minima(f: Bifunction, grid: Grid, X: np.ndarray, fixed: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The minimum of f(x, .) over the image's block of X for each fixed point x: at one corner where the
    row is monotone, else by ``_row_minima``."""
    if X.dtype != float or not isinstance(f.fn, Expression):
        return _row_minima(f, grid, X, fixed, spans)
    taken, minima = _corner_minima(f.fn, grid, X, fixed, spans)
    rest = ~taken
    minima[rest] = _row_minima(f, grid, X, fixed[rest], spans[rest])
    return minima


def _corner_minima(e: Expression, grid: Grid, X: np.ndarray, fixed: np.ndarray, spans: np.ndarray) -> tuple:
    """(taken, minima): e(x, .) at the corner of each image block that its directions in y make least, and
    where that value is the block's minimum to the bit.

    That is where e is monotone in every y_k at x, every subterm is finite
    at both extreme corners, so the block holds no NaN, and the value is not
    zero, since a block holding 0.0 and -0.0 may give either.
    """
    x = X[:, fixed]
    rise, fall = e.y_directions(x, grid.dim)
    first, last = spans[:, :, 0], spans[:, :, 1] - 1
    ends = np.where(fall, [last, first], [first, last])  # (2, N, dim) indices: the least corner, then the greatest
    corners = [ax[c] for ax, c in zip(grid.axes, np.moveaxis(ends, -1, 0))]  # (2, N) per coordinate: one walk
    minima = np.array(np.broadcast_to(e.eval_batch(x, [c[0] for c in corners]), len(fixed)), dtype=float)
    taken = ~(rise & fall).any(axis=1) & (minima != 0) & e.finite_subterms(x, corners).all(axis=0)
    return taken, minima


def _range_minima(table: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The minimum of the d-dimensional table over each box of ``spans``, a (Q, d, 2) array of nonempty ranges.

    A sparse table (Bender & Farach-Colton 2000; Yuan & Atallah 2010): a box
    with levels a_k = floor(log2(stop_k - start_k)) is the union of the 2^d
    boxes of sides 2^a_k at start_k or at stop_k - 2^a_k.  A minimum equals
    the slice minimum but for the sign of a zero, so on a table holding both
    zeros the zero minima are taken from the slice.  ``Root2`` objects have
    one zero, and their minima are exact.
    """
    starts = spans[:, :, 0]
    levels = np.frexp(spans[:, :, 1] - starts)[1] - 1
    mins = np.empty(len(spans), dtype=table.dtype)
    _answer_levels(table, 0, np.arange(len(spans)), starts, spans[:, :, 1] - (1 << levels), levels, mins)
    signs = np.signbit(table[table == 0].astype(float))
    if signs.any() and not signs.all():
        for q in np.flatnonzero(mins == 0):
            mins[q] = table[_box(spans[q])].min()
    return mins


def _answer_levels(window, axis, queries, starts, ends, levels, mins) -> None:
    """Answer the queries whose levels on the axes before ``axis`` made ``window``, the table's windowed minima.

    Each level's window is dropped once its queries are answered; module-level,
    so no closure cycle keeps the windows alive.
    """
    if axis == window.ndim:
        corners = itertools.product(*((starts[queries, k], ends[queries, k]) for k in range(axis)))
        mins[queries] = functools.reduce(np.minimum, (window[c] for c in corners))
        return
    here = levels[queries, axis]
    for a in range(here.max(initial=-1) + 1):
        if a:
            lead, half = (slice(None),) * axis, 1 << (a - 1)
            window = np.minimum(window[lead + (slice(None, -half),)], window[lead + (slice(half, None),)])
        chosen = queries[here == a]
        if chosen.size:
            _answer_levels(window, axis + 1, chosen, starts, ends, levels, mins)


# -- the selection map ------------------------------------------------------


def _image_points(K: SetValuedMap, x: Point, grid: Grid) -> tuple:
    """The image grid of x as a list of points and as the columns of an array of their scalars."""
    pts = image_grid(K, x, grid)
    if not pts:
        raise DegenerateImageError(f"image grid of {x} is empty")
    return pts, point_columns(pts)  # floats, or Root2 objects on exact grids


def smap(f: Bifunction, K: SetValuedMap, x: Point, cfg: SolverConfig) -> tuple:
    """Members x0 of the image grid with f(x0, y) >= -eps for all image y."""
    eps = cfg.eps_value
    pts, Y = _image_points(K, x, cfg.grid)
    h = f.objective
    if h is not None:
        h_min = h.eval_batch(Y).min()
        return tuple(x0 for x0 in pts if h_min - h.fn(x0) >= -eps)
    return tuple(x0 for x0 in pts if f.row(x0, Y).min() >= -eps)


# -- QEP / EP / QVI ---------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are found and named instead
def solve_qep(f: Bifunction, K: SetValuedMap, cfg: SolverConfig, kind: str = QEP) -> SolveReport:
    start = time.perf_counter()
    grid = cfg.grid
    table = None if f.objective is None else _objective_table(f.objective, grid)
    fixed, residuals, spans, degenerate = _fixed_points(K, cfg)
    if table is None:
        min_f = _inner_minima(f, grid, grid_coords(grid), fixed, spans)
    else:
        # float-identical to the row minimum: subtracting a constant is
        # monotone under correct rounding, so min and subtract commute
        min_f = _range_minima(table, spans) - table.ravel()[fixed]
    floats = _all_finite("the minimum of f(x, .) over K(x)", min_f, grid, fixed)
    chosen = np.flatnonzero(min_f >= -cfg.eps_value)  # exact on exact grids
    records = [
        SolutionRecord(x, float(residuals[j]), float(floats[j]))
        for j, x in zip(chosen, grid.points_at(fixed[chosen]))
    ]
    return SolveReport(
        problem_kind=kind,
        solutions=tuple(records),
        config=cfg.echo(),
        degenerate_points=degenerate,
        wall_time=time.perf_counter() - start,
    )


def solve_ep(f: Bifunction, C_box, cfg: SolverConfig) -> SolveReport:
    """The K == C special case; identical to solve_qep with a constant map."""
    return solve_qep(f, SetValuedMap.constant(C_box), cfg, kind=EP)


# -- QOpt -------------------------------------------------------------------


def qopt_gap(h: ObjectiveFunction, K: SetValuedMap, x: Point, cfg: SolverConfig) -> float:
    """h(x) minus the minimum of h over the image grid of x."""
    _pts, Y = _image_points(K, x, cfg.grid)
    return float(h.fn(x) - h.eval_batch(Y).min())


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are found and named instead
def solve_qopt(h: ObjectiveFunction, K: SetValuedMap, cfg: SolverConfig) -> SolveReport:
    start = time.perf_counter()
    grid = cfg.grid
    table = _objective_table(h, grid)
    fixed, residuals, spans, degenerate = _fixed_points(K, cfg)
    gaps = table.ravel()[fixed] - _range_minima(table, spans)
    floats = _all_finite("the gap", gaps, grid, fixed)
    chosen = np.flatnonzero(gaps <= cfg.eps_value)  # exact on exact grids
    records = [
        SolutionRecord(x, float(residuals[j]), float(-floats[j]), gap=float(floats[j]))
        for j, x in zip(chosen, grid.points_at(fixed[chosen]))
    ]
    return SolveReport(
        problem_kind=QOPT,
        solutions=tuple(records),
        config=cfg.echo(),
        # the first minimum by index: a 0.0/-0.0 tie keeps the sign of the first
        min_gap_over_fixed_points=float(floats[np.argmin(gaps)]) if len(gaps) else None,
        degenerate_points=degenerate,
        wall_time=time.perf_counter() - start,
    )


# -- equivalence and theorem verification -----------------------------------


def check_lemma_equivalence(h: ObjectiveFunction, K: SetValuedMap, cfg: SolverConfig) -> bool:
    """Grid solution sets of the QEP reformulation and the direct QOpt scan agree."""
    f = make_opt_bifunction(h, K.domain)
    qep = solve_qep(f, K, cfg)
    qopt = solve_qopt(h, K, cfg)
    return [rec.point for rec in qep.solutions] == [rec.point for rec in qopt.solutions]


def verify_theorem_instance(
    instance, cfg: SolverConfig, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> TheoremReport:
    """Run the six ``THEOREM_CHECKS``, then solve, and flag anomalies.

    The verdicts are falsifier outputs, so an empty solution set with all
    checks clean is reported as an ANOMALY (grid artifact or counterexample
    candidate), never as a refutation.
    """
    f = instance.bifunction()
    checks = {name: check(instance, f, cfg.grid, trials, seed) for name, check in THEOREM_CHECKS.items()}
    solve_report = solve_qep(f, instance.K, cfg, kind=instance.problem_kind())
    all_clean = all(rep.verdict == NO_VIOLATION_FOUND for rep in checks.values())
    anomaly = all_clean and not solve_report.solutions
    return TheoremReport(checks=checks, solve_report=solve_report, anomaly=anomaly)


# -- sampled closedness of the selection map --------------------------------


def smap_closed_graph_probe(f: Bifunction, K: SetValuedMap, cfg: SolverConfig) -> TopologyProbeReport:
    """The closed-graph falsifier applied to the sampled graph of the selection map.

    The graph is sampled at grid base points; member sets are computed lazily
    and cached.  Verdict semantics match check_closed_graph.
    """
    grid = cfg.grid
    radii, margin = sampling.probe_ladder(grid)

    cache: dict = {}

    def members_at(index: tuple) -> tuple:
        if index not in cache:
            x = grid.point_at(index)
            try:
                cache[index] = smap(f, K, x, cfg)
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

    def ladder(n: int) -> Optional[dict]:  # the lattice pair x = probe[n // len(probe)], z = probe[n % len(probe)]
        xi, zi = probe[n // len(probe)], probe[n % len(probe)]
        x, z, mem_x = grid.point_at(xi), grid.point_at(zi), members_at(xi)
        if min((dist(z, m) for m in mem_x), default=float("inf")) < margin:
            return None
        trail = sampling.ladder_search(radii, lambda r: approach(xi, x, z, r))
        return None if trail is None else {"x": x, "z": z, "approach": trail}

    samples, witness = sampling.first_witness(len(probe) ** 2, ladder, None)
    return TopologyProbeReport(NO_VIOLATION_FOUND if witness is None else FAIL, witness, radii, samples)
