"""Sampling plans for the hypothesis falsifiers.

Every sampling decision of the checkers in ``setmap``, ``bifunction`` and
``solver.smap_closed_graph_probe`` is made here: budgets, lattices, radius
ladders and margins, tolerances, seeds and every seeded draw.  A checker's
only sampling parameters are ``trials`` and ``seed``; it evaluates what a
plan names.  Plans are lazy: a draw happens when the checker reaches it, or
reaches the chunk of probes that holds it, so each checker's RNG calls come in
one fixed order.  The budgets set the witnesses: changing one changes reports.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .geometry import CompactBox, Grid, Point, Root2

#: Lattice points per axis of the grid probes (closed_graph, lsc, convex_values).
GRID_PROBE_BUDGET = {1: 33, 2: 9, 3: 5}
#: Lattice points per axis of the selection-map closed-graph probe.
SMAP_PROBE_BUDGET = {1: 21, 2: 7, 3: 4}
#: Lattice points per axis of the box lattice of the bifunction checkers.
BOX_LATTICE_BUDGET = {1: 21, 2: 7, 3: 5}

#: condition_ii: level sets {x : f(x, y) >= 0} per check, and lattice pairs per level set.
LEVEL_SETS = 24
LEVEL_SET_PAIRS = 400
#: condition_iii: random points added to the lattice pool, and the largest random subset.
SUBSET_POOL_EXTRA = 16
SUBSET_SIZE_MAX = 4
#: qcvx_second on exact domains: lattice points x paired with each sqrt(2) witness pair.
SQRT2_LEAD_POINTS = 4
#: convex_values: point pairs per image, and random lambdas after 1/2, 1/4, 3/4.
SEGMENT_PAIRS = 64
SEGMENT_EXTRA_LAMBDAS = 3

#: Slack of the bifunction checkers' f-value comparisons on float domains (exact domains use 0).
FLOAT_TOL = 1e-9

#: Seed of the grid probes: closed_graph uses it, lsc adds 1, convex_values 2.
PROBE_SEED = 947
#: Default seed of the bifunction checkers: condition_ii uses it, condition_iii
#: adds 1, condition_iv 2, qcvx_second 3, qccv_first 4.
CHECK_SEED = 1729
#: Default random trials of condition_iii, qcvx_second and qccv_first.
CHECK_TRIALS = 400


def tolerance(exact: bool) -> float:
    """The checkers' slack on f-value comparisons: 0 over exact scalars, else ``FLOAT_TOL``."""
    return 0.0 if exact else FLOAT_TOL


# -- lattices ---------------------------------------------------------------


def index_lattice(grid: Grid, budget: dict) -> list:
    """Grid index tuples in lexicographic order: per axis of m points, all of them
    if m <= n = budget[dim], else round(i * (m - 1) / (n - 1)) for i < n."""
    n = budget[grid.dim]
    axes = [
        range(m) if m <= n else sorted({round(i * (m - 1) / (n - 1)) for i in range(n)})
        for m in grid.points_per_axis
    ]
    return list(itertools.product(*axes))


def box_lattice(C: CompactBox) -> list:
    """``BOX_LATTICE_BUDGET[dim]`` evenly spaced points per axis of C, endpoints included."""
    per_axis = BOX_LATTICE_BUDGET[C.dim]
    axes = []
    for lo, hi in zip(C.lower, C.upper):
        if isinstance(lo, Root2):
            span = hi - lo
            axes.append([lo + span * Fraction(i, per_axis - 1) for i in range(per_axis)])
        else:
            axes.append([lo + (hi - lo) * i / (per_axis - 1) for i in range(per_axis)])
    return [p for p in itertools.product(*axes)]


def float_map_point(domain: CompactBox, x: tuple) -> tuple:
    """A float point in the scalars of the domain box."""
    if domain.is_exact:
        return tuple(Root2.from_float(v) for v in x)
    return x


def float_region(K, x: Point) -> tuple[tuple, tuple]:
    """The image box K(x) as float (lower, upper) tuples."""
    region = K.evaluate(x)
    return tuple(map(float, region.lower)), tuple(map(float, region.upper))


def region_lookup(K) -> Callable:
    """x -> ``float_region`` of K at the float point x, evaluated once per distinct x."""
    return functools.cache(lambda x: float_region(K, float_map_point(K.domain, x)))


def lattice_regions(K, grid: Grid):
    """(x, x in K's scalars, float lower and upper of K(x)) at every grid-probe lattice point x."""
    for index in index_lattice(grid, GRID_PROBE_BUDGET):
        x = tuple(float(grid.axes[k][i]) for k, i in enumerate(index))
        x_map = float_map_point(K.domain, x)
        lo, hi = float_region(K, x_map)
        yield x, x_map, lo, hi


def region_samples(lo: tuple, hi: tuple, per_axis: int) -> list:
    """Evenly spaced points of the box [lo, hi], at most 7 per axis."""
    n = min(per_axis, 7)
    axes = [[a] if b - a <= 0 else [a + (b - a) * i / (n - 1) for i in range(n)] for a, b in zip(lo, hi)]
    return list(itertools.product(*axes))


# -- radius ladders ---------------------------------------------------------


def probe_ladder(grid: Grid) -> tuple:
    """The grid probes' (radii, margin).

    The radii halve from 0.1 x diameter down to ~3 grid steps: the spec's four
    base rungs, then extra rungs for fine grids, so a Lipschitz-continuous map
    cannot be flagged (the smallest radius must let bound variation fall below
    the margin).  The margin is 10 grid steps, floored at 4x the smallest
    radius, which keeps a Lipschitz-continuous map (slope up to ~3) from being
    diagonal-approached within the last rung.
    """
    diam = grid.box.diameter()
    floor = 3.0 * grid.max_step()
    radii = [0.1 * diam, 0.05 * diam, 0.025 * diam, 0.0125 * diam]
    r = radii[-1] / 2.0
    while r >= floor:
        radii.append(r)
        r /= 2.0
    return tuple(radii), max(10.0 * grid.max_step(), 4.0 * min(radii))


def pair_probe_radii(C: CompactBox) -> tuple:
    """condition_iv's ladder: halving from 0.1 x diameter to 1e-5 x diameter."""
    diam = C.diameter()
    ladder = [0.1 * diam]
    while ladder[-1] > 1e-5 * diam:
        ladder.append(ladder[-1] / 2.0)
    return tuple(ladder)


def pair_probe_margin(values: list) -> float:
    """condition_iv's margin: 2% of the range of the sampled f values, or 1e-9 where that is 0 or NaN."""
    value_range = max(values) - min(values) if values else 0.0
    return max(0.0, 0.02 * value_range) or 1e-9


def ladder_search(radii: tuple, rung: Callable) -> Optional[list]:
    """The approach trail ``[rung(r) for r in radii]``, or None at the first rung that returns None."""
    trail = []
    for r in radii:
        hit = rung(r)
        if hit is None:
            return None
        trail.append(hit)
    return trail


def near_indices(grid: Grid, index: tuple, r: float) -> list:
    """Grid indices that move one axis of ``index`` by 0, about r/2 or about r (at least one step)."""
    sizes = grid.points_per_axis
    out = []
    for k in range(grid.dim):
        step = (float(grid.box.upper[k]) - float(grid.box.lower[k])) / (sizes[k] - 1)
        width = max(1, int(r / step))
        for off in {-width, -max(1, width // 2), 0, max(1, width // 2), width}:
            i = min(max(index[k] + off, 0), sizes[k] - 1)
            cand = list(index)
            cand[k] = i
            out.append(tuple(cand))
    return sorted(set(out))


def _clip(v: float, k: int, box: CompactBox) -> float:
    return min(max(v, float(box.lower[k])), float(box.upper[k]))


def _shifted(p: tuple, k: int, s: float, box: CompactBox) -> tuple:
    """p with axis k moved by s, clipped to the box."""
    return p[:k] + (_clip(p[k] + s, k, box),) + p[k + 1:]


def _jittered(p: tuple, r: float, box: CompactBox, rng: random.Random) -> tuple:
    """p with every axis moved by a uniform draw from [-r, r], clipped to the box."""
    return tuple(_clip(v + rng.uniform(-r, r), k, box) for k, v in enumerate(p))


def axis_moves(x: tuple, r: float, box: CompactBox) -> list:
    """x with each axis moved by +r, then -r, in axis order, clipped to the box: no draw."""
    return [_shifted(x, k, s, box) for k in range(len(x)) for s in (r, -r)]


def ball_candidates(x: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """x, its ``axis_moves``, then 2 random points: all within sup-distance r, in the box."""
    return [x] + axis_moves(x, r, box) + [_jittered(x, r, box, rng) for _ in range(2)]


def ladder_jitters(x: tuple, radii: tuple, rungs, box: CompactBox, rng: random.Random) -> np.ndarray:
    """The random ball candidates of x for ladders that run ``rungs[0]``, ``rungs[1]``, ... rungs, in turn.

    Column 2i and 2i + 1 of the (dim, n) array are the 2 points of the i-th rung
    in that order.  Each ladder draws what ``ball_candidates`` draws at each of
    its rungs, so the RNG ends where those calls leave it, and each point takes
    ``_jittered``'s float operations: ``uniform(-r, r)`` is -r + (r - -r) * u,
    and the clip is Python's max, then min.
    """
    r = np.array([radius for n in rungs for radius in radii[:n] for _ in range(2)])
    u = np.array([rng.random() for _ in range(r.size * len(x))]).reshape(r.size, len(x)).T
    p = np.array(x)[:, None] + (-r + (r - -r) * u)
    lower, upper = np.array(box.lower, dtype=float)[:, None], np.array(box.upper, dtype=float)[:, None]
    p = np.where(lower > p, lower, p)
    return np.where(upper < p, upper, p)


def pair_ball_candidates(xf: tuple, yf: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """Pairs near (xf, yf): each axis of either point moved by +-r, then 4 random pairs; in the box."""
    cands = []
    for k in range(len(xf)):
        for s in (r, -r):
            cands += [(_shifted(xf, k, s, box), yf), (xf, _shifted(yf, k, s, box))]
    return cands + [(_jittered(xf, r, box, rng), _jittered(yf, r, box, rng)) for _ in range(4)]


# -- seeded draws -----------------------------------------------------------


def random_point(C: CompactBox, rng: random.Random) -> Point:
    """A uniform point of C; on exact boxes a multiple of 1/256 of each side."""
    out = []
    for lo, hi in zip(C.lower, C.upper):
        if isinstance(lo, Root2):
            t = Fraction(rng.randrange(0, 257), 256)
            out.append(lo + (hi - lo) * Root2(t))
        else:
            out.append(rng.uniform(lo, hi))
    return tuple(out)


def random_points(C: CompactBox, rng: random.Random, n: int) -> list:
    """n points drawn one after another by ``random_point``."""
    return [random_point(C, rng) for _ in range(n)]


def lambdas(exact: bool, rng: random.Random, extra: int = 2) -> list:
    """1/2, 1/4, 3/4, then ``extra`` random weights in (0, 1)."""
    if exact:
        base = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
        base += [Fraction(rng.randrange(1, 64), 64) for _ in range(extra)]
        return base
    return [0.5, 0.25, 0.75] + [rng.uniform(0.05, 0.95) for _ in range(extra)]


def pair_weights(lam):
    """(lam, 1 - lam) in lam's own arithmetic."""
    if isinstance(lam, Fraction):
        return (lam, Fraction(1) - lam)
    return (lam, 1.0 - lam)


def random_subset(pool: list, rng: random.Random, exact: bool) -> tuple:
    """(subset, convex weights): 2 to ``SUBSET_SIZE_MAX`` points drawn from the pool with replacement."""
    k = rng.randint(2, SUBSET_SIZE_MAX)
    subset = tuple(pool[rng.randrange(len(pool))] for _ in range(k))
    raw = [Fraction(rng.randrange(1, 16)) if exact else rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    weights = tuple(r / total for r in raw)
    if exact:
        return subset, weights
    return subset, weights[:-1] + (1.0 - sum(weights[:-1]),)


def probe_chunk(probes: list) -> tuple:
    """The probes (fixed, a, b, lambda), in order, as one chunk of ``segment_plan``."""
    points = [p for probe in probes for p in probe[:3]]
    return points, np.arange(len(points)).reshape(-1, 3), [probe[3] for probe in probes]


def segment_plan(lattice: list, rng: random.Random, exact: bool, trials: int, draw: Callable):
    """The probes (fixed, a, b, lambda) of a mirrored quasiconvexity check, in chunks (points, rows, lams).

    Row r of a chunk is the probe (points[i], points[j], points[k], lams[r]) for (i, j, k) = rows[r].
    First a chunk per lattice point: it with every lattice pair (``itertools.combinations`` order) at
    lambda 1/2.  Then a chunk of ``trials`` triples ``draw(rng)``, each at ``lambdas(extra=1)``.
    """
    half = Fraction(1, 2) if exact else 0.5
    j, k = np.triu_indices(len(lattice), 1)
    for i in range(len(lattice)):
        yield lattice, np.column_stack([np.full(len(j), i), j, k]), [half] * len(j)
    probes = []
    for _ in range(trials):
        fixed, a, b = draw(rng)
        probes += [(fixed, a, b, lam) for lam in lambdas(exact, rng, extra=1)]
    yield probe_chunk(probes)


def level_set_plan(values: list, rng: random.Random, exact: bool) -> tuple:
    """condition_ii's probes at one y, as (rows, lams): row r is the lattice index pair of probe r.

    The pairs are the first ``LEVEL_SET_PAIRS`` (``itertools.combinations`` order) of the lattice points
    whose f-value at y is >= 0, each at ``lambdas(exact, rng)``.
    """
    members = np.array([i for i, v in enumerate(values) if v >= 0], dtype=np.intp)
    a, b = np.triu_indices(len(members), 1)
    pairs = np.column_stack([members[a], members[b]])[:LEVEL_SET_PAIRS]
    per_pair = [lambdas(exact, rng) for _ in pairs]
    return np.repeat(pairs, [len(g) for g in per_pair], axis=0), [lam for g in per_pair for lam in g]


def sqrt2_witness_pairs(C: CompactBox) -> list:
    """Pairs of irrational points in C whose midpoint is rational."""
    lo, hi = C.lower[0], C.upper[0]
    span = hi - lo
    centre = (lo + hi) * Root2(Fraction(1, 2))
    pairs = []
    for denom in (4, 8, 16):
        t = span * Root2(0, Fraction(1, denom))
        pairs.append((centre - t, centre + t))
        pairs.append((lo + t, hi - t))
    return [
        (tuple([p1] + list(C.lower[1:])), tuple([p2] + list(C.lower[1:])))
        for p1, p2 in pairs
        if not p1.is_rational and not p2.is_rational
    ]
