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
#: The exact lambdas k/64, built once: the exact checkers draw their lambdas from this table.
_SIXTY_FOURTHS = tuple(Fraction(k, 64) for k in range(65))


def tolerance(exact: bool) -> float:
    """The checkers' f-value slack: the int 0 over exact scalars (no float to convert), else ``FLOAT_TOL``."""
    return 0 if exact else FLOAT_TOL


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
    n = BOX_LATTICE_BUDGET[C.dim]
    axes = [
        [lo + (hi - lo) * Fraction(i, n - 1) for i in range(n)] if isinstance(lo, Root2)
        else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        for lo, hi in zip(C.lower, C.upper)
    ]
    return list(itertools.product(*axes))


def float_map_point(domain: CompactBox, x: tuple) -> tuple:
    """A float point in the scalars of the domain box."""
    return tuple(Root2.from_float(v) for v in x) if domain.is_exact else x


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
        yield x, x_map, *float_region(K, x_map)


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
            out.append(index[:k] + (min(max(index[k] + off, 0), sizes[k] - 1),) + index[k + 1:])
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


def _clip_points(P: np.ndarray, box: CompactBox) -> np.ndarray:
    """``_clip`` on every coordinate of an array of points along its last axis: Python's max, then min."""
    lower, upper = np.array(box.lower, dtype=float), np.array(box.upper, dtype=float)
    P = np.where(lower > P, lower, P)
    return np.where(upper < P, upper, P)


def ladder_jitters(centres: np.ndarray, radii: tuple, rungs, box: CompactBox, rng: DrawStream, per_rung: int = 2) -> np.ndarray:
    """The random candidates of ladders that run ``rungs[0]``, ``rungs[1]``, ... rungs, in turn, as (dim, n) columns.

    A rung draws ``per_rung`` points, ``_jittered`` in turn around its ladder's
    centres, cycled: ``centres`` is a (ladders, c, dim) array, such as each
    ladder's x (``ball_candidates``) or (x, y), 8 a rung (``pair_ball_candidates``).
    The draws, read from the stream's cursor, and float operations are the loop's.
    """
    step = [j for n in rungs for j in range(n)]  # each rung's place
    p = np.tile(np.repeat(centres, rungs, axis=0), (1, per_rung // centres.shape[1], 1))  # (rungs, per_rung, dim)
    r = np.array(radii)[step][:, None, None]
    return _clip_points(p + (-r + (r - -r) * rng.take(p.size).reshape(p.shape)), box).reshape(-1, box.dim).T


def pair_moves(P: np.ndarray, r: float, box: CompactBox) -> np.ndarray:
    """``pair_ball_candidates``' 4 * dim axis moves of each pair (x, y) of a (n, 2, dim) array, as (n, 4 * dim, 2, dim)."""
    dim = P.shape[-1]  # sign[axis moved, by +r or -r, point moved (x or y), point, coordinate]
    sign = np.einsum("kc,s,mp->ksmpc", np.eye(dim), [1.0, -1.0], np.eye(2)).reshape(4 * dim, 2, dim)
    return np.where(sign != 0, _clip_points(P[:, None] + r * sign, box), P[:, None])


def pair_ball_candidates(xf: tuple, yf: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """Pairs near (xf, yf): each axis of either point moved by +-r, then 4 random pairs; in the box."""
    cands = []
    for k in range(len(xf)):
        for s in (r, -r):
            cands += [(_shifted(xf, k, s, box), yf), (xf, _shifted(yf, k, s, box))]
    return cands + [(_jittered(xf, r, box, rng), _jittered(yf, r, box, rng)) for _ in range(4)]


# -- seeded draws -----------------------------------------------------------


class DrawStream(random.Random):
    """A seeded ``random.Random`` whose ``random()`` values from position ``base`` on are kept: the loop draws at
    ``cursor``, a batch reads a stretch from there (``take``) and sets ``cursor`` where the loop resumes, never
    before where that stretch began.  No value is drawn twice."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.kept, self.base, self.cursor = np.empty(0), 0, 0

    def random(self) -> float:
        return float(self.take(1)[0])

    def take(self, n: int) -> np.ndarray:
        """The next n values, moving the cursor past them; values are drawn ahead, in blocks."""
        at, draw = self.cursor - self.base, super().random
        if at + n > len(self.kept):  # the values before the cursor are never read again
            fresh = [draw() for _ in range(at + n - len(self.kept) + 1024)]
            self.kept, self.base, at = np.concatenate([self.kept[at:], fresh]), self.cursor, 0
        self.cursor += n
        return self.kept[at:at + n]


def settle_ladders(table: np.ndarray, jittered: Callable, stream: DrawStream, per_rung: int):
    """Yield, in order, the ladders that the loop must run, each with the stream's cursor at its first draw.

    A ladder goes on while a candidate of its rung lets it, fixed ones first,
    and draws ``per_rung`` values a rung.  ``table[i, j]`` > 0 if a fixed
    candidate of rung j lets ladder i go on, 0 if none, < 0 if not finite.
    ``jittered(a, b, rungs)`` codes alike the random candidates of the last
    rungs of ladders a to b - 1, run from the cursor.  The loop runs ladders on
    at every rung, unclear or carried on by a random one; the rest are skipped.
    """
    n, n_rungs = table.shape
    on = table > 0
    stops = np.where(on.all(axis=1), n_rungs, (~on).argmax(axis=1))
    loop = (stops == n_rungs) | (table[np.arange(n), np.minimum(stops, n_rungs - 1)] < 0)
    i = 0
    while i < n:
        if loop[i]:
            yield i  # the loop's draws leave the cursor after this ladder's
            i += 1
            continue
        ahead = loop[i:i + 64]  # a window of 64 ladders at most, up to the next one the loop runs
        end = i + (int(ahead.argmax()) if ahead.any() else len(ahead))
        rungs, start = stops[i:end] + 1, stream.cursor
        b = int(np.append(jittered(i, end, rungs) != 0, True).argmax())
        stream.cursor = start + per_rung * int(rungs[:b].sum())
        loop[i + b:min(i + b + 1, end)] = True  # the ladder a random candidate carries on, if one does
        i += b


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
    """1/2, 1/4, 3/4, then ``extra`` random weights in (0, 1), on exact domains entries of ``_SIXTY_FOURTHS``."""
    if exact:
        return [_SIXTY_FOURTHS[k] for k in [32, 16, 48] + [rng.randrange(1, 64) for _ in range(extra)]]
    return [0.5, 0.25, 0.75] + [rng.uniform(0.05, 0.95) for _ in range(extra)]


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
