"""Sampling plans for the hypothesis falsifiers.

Every sampling decision of the checkers in ``setmap``, ``bifunction`` and
``solver.smap_closed_graph_probe`` is made here: budgets, lattices, radius
ladders and margins, seeds and every seeded draw.  The checkers evaluate what
a plan names.  Plans are lazy (a draw happens when the checker reaches it),
so each checker's RNG calls come in one fixed order.  The budgets set the
witnesses: changing one changes reports.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .geometry import CompactBox, Grid, Point, Root2

#: Lattice points per axis of the grid probes (closed_graph, lsc, convex_values).
GRID_PROBE_BUDGET = {1: 33, 2: 9, 3: 5}
#: Lattice points per axis of the selection-map closed-graph probe.
SMAP_PROBE_BUDGET = {1: 21, 2: 7, 3: 4}
#: Lattice points per axis of the box lattice of the bifunction checkers.
BOX_LATTICE_BUDGET = {1: 21, 2: 7, 3: 5}

#: Seed of the grid probes: closed_graph uses it, lsc adds 1, convex_values 2.
PROBE_SEED = 947
#: Default seed of the bifunction checkers: condition_ii uses it, condition_iii
#: adds 1, condition_iv 2, qcvx_second 3, qccv_first 4.
CHECK_SEED = 1729


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


def float_map_point(K, x: tuple) -> tuple:
    """A float point in the scalars of K's domain."""
    if K.domain.is_exact:
        return tuple(Root2.from_float(v) for v in x)
    return x


def float_region(K, x: Point) -> tuple[tuple, tuple]:
    """The image box K(x) as float (lower, upper) tuples."""
    region = K.evaluate(x)
    return tuple(map(float, region.lower)), tuple(map(float, region.upper))


def lattice_regions(K, grid: Grid):
    """(x, x in K's scalars, float lower and upper of K(x)) at every grid-probe lattice point x."""
    for index in index_lattice(grid, GRID_PROBE_BUDGET):
        x = tuple(float(grid.axes[k][i]) for k, i in enumerate(index))
        x_map = float_map_point(K, x)
        lo, hi = float_region(K, x_map)
        yield x, x_map, lo, hi


def region_samples(lo: tuple, hi: tuple, per_axis: int) -> list:
    """Evenly spaced points of the box [lo, hi], at most 7 per axis."""
    n = min(per_axis, 7)
    axes = [[a] if b - a <= 0 else [a + (b - a) * i / (n - 1) for i in range(n)] for a, b in zip(lo, hi)]
    return list(itertools.product(*axes))


# -- radius ladders ---------------------------------------------------------


def default_probe_radii(grid: Grid) -> tuple:
    """Halving ladder from 0.1 x diameter down to ~3 grid steps.

    The spec's four base rungs are kept; extra rungs are appended for fine
    grids so a Lipschitz-continuous map cannot be flagged (the smallest radius
    must let bound variation fall below the margin).
    """
    diam = grid.box.diameter()
    floor = 3.0 * grid.max_step()
    radii = [0.1 * diam, 0.05 * diam, 0.025 * diam, 0.0125 * diam]
    r = radii[-1] / 2.0
    while r >= floor and len(radii) < 24:
        radii.append(r)
        r /= 2.0
    return tuple(radii)


def default_margin(grid: Grid, radii: Optional[Sequence[float]] = None) -> float:
    """10 grid steps, floored at 4x the smallest probe radius.

    The floor keeps a Lipschitz-continuous map (slope up to ~3) from being
    diagonal-approached within the last radius rung and falsely flagged.
    """
    base = 10.0 * grid.max_step()
    if radii:
        base = max(base, 4.0 * min(radii))
    return base


def pair_probe_radii(C: CompactBox) -> tuple:
    """condition_iv's ladder: halving from 0.1 x diameter to 1e-5 x diameter."""
    diam = C.diameter()
    ladder = [0.1 * diam]
    while ladder[-1] > 1e-5 * diam:
        ladder.append(ladder[-1] / 2.0)
    return tuple(ladder)


def check_ladder(radii: tuple, margin: float) -> tuple:
    """(radii, margin), once the radii strictly decrease and the margin is positive."""
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if margin <= 0:
        raise ValueError("margin must be positive")
    return radii, margin


def probe_ladder(grid: Grid, radii: Optional[Sequence[float]], margin: Optional[float]) -> tuple:
    """The grid probes' (radii, margin): defaults filled in, then checked."""
    radii = tuple(radii) if radii is not None else default_probe_radii(grid)
    return check_ladder(radii, margin if margin is not None else default_margin(grid, radii))


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


def ball_candidates(x: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """x, x with each axis moved by +-r, then 2 random points: all within sup-distance r, in the box."""
    axis_moves = [_shifted(x, k, s, box) for k in range(len(x)) for s in (r, -r)]
    return [x] + axis_moves + [_jittered(x, r, box, rng) for _ in range(2)]


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


def random_subset(pool: list, rng: random.Random, exact: bool, size_max: int) -> tuple:
    """(subset, convex weights): 2 to ``size_max`` points drawn from the pool with replacement."""
    k = rng.randint(2, max(2, size_max))
    subset = tuple(pool[rng.randrange(len(pool))] for _ in range(k))
    raw = [Fraction(rng.randrange(1, 16)) if exact else rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    weights = tuple(r / total for r in raw)
    if exact:
        return subset, weights
    return subset, weights[:-1] + (1.0 - sum(weights[:-1]),)


def segment_plan(lattice: list, rng: random.Random, exact: bool, trials: int, draw: Callable):
    """The probes (fixed, a, b, lambda) of a mirrored quasiconvexity check.

    First every lattice point with every lattice pair at lambda 1/2, then
    ``trials`` triples ``draw(rng)``, each at ``lambdas(extra=1)``.
    """
    half = Fraction(1, 2) if exact else 0.5
    for fixed in lattice:
        for a, b in itertools.combinations(lattice, 2):
            yield fixed, a, b, half
    for _ in range(trials):
        fixed, a, b = draw(rng)
        for lam in lambdas(exact, rng, extra=1):
            yield fixed, a, b, lam


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
