"""Sampling plans for the hypothesis falsifiers, and the replays of what a batch cannot settle.

Every sampling decision of the checkers in ``setmap``, ``bifunction`` and ``solver.smap_closed_graph_probe`` is
made here: budgets, lattices, radius ladders and margins, tolerances, seeds and every seeded draw.  A checker's only
sampling parameters are ``trials`` and ``seed``; it evaluates what a plan names.  Plans are lazy: a chunk's draws
happen together, float ones in one ``floats`` call, when the checker reaches the chunk, so RNG calls come in one fixed
order and no chunk grows with ``trials``.  The segment plans give chunks (P, rows, lams, spent), the form that
``bifunction._segment_check`` reads: (dim, N) point columns P in the domain's scalars (float64, or ``Root2``) and one
lam per row (float64, or ``Fraction``); ``subset_plan`` gives condition_iii's chunks, its lattice pairs first.  Plans
combine no points themselves: exact random points, too, come from ``geometry.convex_combinations``.
``settle_ladders`` yields the ladders the loop must run, and ``first_witness`` scans the probes a batch could not
clear, in the loop's order: the one scan of ``_segment_check``, ``check_condition_iii``, ``check_diagonal_zero`` and
``setmap.check_convex_values``.  The budgets set the witnesses: changing one changes reports.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .geometry import CompactBox, Grid, Point, Root2, convex_combinations, point_columns

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
#: qcvx_second on exact domains: lattice points x paired with each sqrt(2) witness pair (``sqrt2_lead``).
SQRT2_LEAD_POINTS = 4
#: convex_values: point pairs per image, and random lambdas after 1/2, 1/4, 3/4.
SEGMENT_PAIRS = 64
SEGMENT_EXTRA_LAMBDAS = 3

#: The most rows of a batch chunk: ``segment_plan``'s, ``subset_plan``'s random ones and ``setmap``'s ladder tables.
CHUNK_ROWS = 2**13

#: Slack of the bifunction checkers' f-value comparisons on float domains (exact domains use 0).
FLOAT_TOL = 1e-9

#: Seed of the grid probes: closed_graph uses it, lsc adds 1, convex_values 2.
PROBE_SEED = 947
#: Default seed of the bifunction checkers: condition_ii uses it, condition_iii
#: adds 1, condition_iv 2, qcvx_second 3, qccv_first 4.
CHECK_SEED = 1729
#: Default random trials of condition_iii, qcvx_second and qccv_first.
CHECK_TRIALS = 400
#: The most random trials of one check, the grid's point budget: more are refused before any draw.
TRIALS_BUDGET = 2**24
#: The exact lambdas k/64, built once: the exact checkers draw their lambdas from this table.
_SIXTY_FOURTHS = np.array([Fraction(k, 64) for k in range(65)], dtype=object)


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


def _jittered(p: tuple, r: float, box: CompactBox, rng: random.Random) -> tuple:
    """p with every axis moved by a uniform draw from [-r, r], clipped to the box."""
    return tuple(_clip(v + rng.uniform(-r, r), k, box) for k, v in enumerate(p))


def axis_moves(x: tuple, r: float, box: CompactBox) -> list:
    """x with each axis moved by +r, then -r, in axis order, clipped to the box: no draw."""
    return [x[:k] + (_clip(x[k] + s, k, box),) + x[k + 1:] for k in range(len(x)) for s in (r, -r)]


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


def point_moves(P: np.ndarray, r: float, box: CompactBox) -> np.ndarray:
    """Each axis of each point moved by +r, then -r, in turn, clipped to the box, of a (n, q, dim) array of groups of q
    points, as (n, 2 * q * dim, q, dim): ``axis_moves`` of each point for q = 1, ``pair_ball_candidates``' for q = 2."""
    q, dim = P.shape[1:]  # sign[axis moved, by +r or -r, point moved, point, coordinate]
    sign = np.einsum("kc,s,mp->ksmpc", np.eye(dim), [1.0, -1.0], np.eye(q)).reshape(2 * q * dim, q, dim)
    return np.where(sign != 0, _clip_points(P[:, None] + r * sign, box), P[:, None])


def pair_ball_candidates(xf: tuple, yf: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """Pairs near (xf, yf): each axis of either point moved by +-r, then 4 random pairs; in the box."""
    cands = [c for mx, my in zip(axis_moves(xf, r, box), axis_moves(yf, r, box)) for c in ((mx, yf), (xf, my))]
    return cands + [(_jittered(xf, r, box, rng), _jittered(yf, r, box, rng)) for _ in range(4)]


# -- seeded draws -----------------------------------------------------------


def floats(rng: random.Random, n: int) -> np.ndarray:
    """The next n values of ``rng.random()`` at once, bit for bit, leaving rng's state where those n calls would.

    ``getrandbits`` packs the Mersenne Twister's 32-bit words first word lowest, and each pair of words is decoded
    as CPython's ``random()`` (``genrand_res53``) does.  ``DrawStream`` does not override ``getrandbits``.
    """
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)


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
        at = self.cursor - self.base
        if at + n > len(self.kept):  # the values before the cursor are never read again
            fresh = floats(self, at + n - len(self.kept) + 1024)
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


def first_witness(n: int, probe: Callable, unclear: Optional[np.ndarray]) -> tuple:
    """(r + 1, witness) at the first r < n where probe(r) gives a witness, else (n, None).

    Given a batch's ``unclear`` rows, probes those alone: the probe gives None at every other row.
    """
    for r in range(n) if unclear is None else np.flatnonzero(unclear).tolist():
        w = probe(r)
        if w is not None:
            return r + 1, w
    return n, None


def _box_columns(C: CompactBox, u: np.ndarray) -> np.ndarray:
    """The points of C at the rows of draws u in [0, 1], as columns: on a float box ``uniform(lo, hi)`` of each
    coordinate; on an exact box, whose draws are multiples of 1/256, hi and lo combined at the weights u and 1 - u."""
    if C.is_exact:
        ends = point_columns([(c,) for pair in zip(C.upper, C.lower) for c in pair])  # (1, 2 dim): hi_1, lo_1, ...
        picks, w = np.tile(np.arange(2 * C.dim).reshape(-1, 2), (u.size // C.dim, 1)), u.reshape(-1, 1)
        return convex_combinations(ends, picks, np.hstack([w, 1 - w])).reshape(-1, C.dim).T
    lo, hi = (np.array(b, dtype=float)[:, None] for b in (C.lower, C.upper))
    return lo + (hi - lo) * u.reshape(-1, C.dim).T


def _exact_draws(rng: random.Random, n: int) -> np.ndarray:  # for _box_columns: n multiples of 1/256, in turn
    return np.array([rng.randrange(0, 257) / 256 for _ in range(n)])


def random_points(C: CompactBox, rng: random.Random, n: int) -> list:
    """n uniform points of C, drawn one after another; on exact boxes a multiple of 1/256 of each side."""
    u = _exact_draws(rng, n * C.dim) if C.is_exact else floats(rng, n * C.dim)
    return list(zip(*_box_columns(C, u).tolist()))


def float_lambdas(u: np.ndarray) -> np.ndarray:
    """Per row of draws u: 1/2, 1/4, 3/4, then ``uniform(0.05, 0.95)`` of each draw; one flat array."""
    fixed = np.broadcast_to([0.5, 0.25, 0.75], (len(u), 3))
    return np.hstack([fixed, 0.05 + (0.95 - 0.05) * u]).ravel()


def lambdas(exact: bool, rng: random.Random, extra: int = 2, rows: int = 1) -> np.ndarray:
    """``rows`` runs of 1/2, 1/4, 3/4 and ``extra`` random weights in (0, 1), one flat array: on exact domains
    entries of ``_SIXTY_FOURTHS`` drawn run by run, in an object array, else ``float_lambdas`` of draws made at once."""
    if exact:
        return _SIXTY_FOURTHS[[k for _ in range(rows) for k in [32, 16, 48] + [rng.randrange(1, 64) for _ in range(extra)]]]
    return float_lambdas(floats(rng, rows * extra).reshape(rows, extra))


def random_subset(n: int, rng: random.Random, exact: bool) -> tuple:
    """(pool indices, convex weights): 2 to ``SUBSET_SIZE_MAX`` indices below n with replacement, then -1s and 0s."""
    k = rng.randint(2, SUBSET_SIZE_MAX)
    picks = tuple(rng.randrange(n) for _ in range(k)) + (-1,) * (SUBSET_SIZE_MAX - k)
    raw = [Fraction(rng.randrange(1, 16)) if exact else rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    weights = tuple(r / total for r in raw)
    weights = weights if exact else weights[:-1] + (1.0 - sum(weights[:-1]),)
    return picks, weights + (weights[0] * 0,) * (SUBSET_SIZE_MAX - k)  # a 0 in the weights' scalars


def subset_plan(C: CompactBox, rng: random.Random, trials: int) -> tuple:
    """condition_iii's (pool, chunks): point columns of C's box lattice and ``SUBSET_POOL_EXTRA`` random points, and
    chunks (picks, weights) for ``geometry.convex_combinations``: each lattice pair (``itertools.combinations`` order)
    at 1/2, 1/2, then ``trials`` ``random_subset``s, ``CHUNK_ROWS // SUBSET_SIZE_MAX`` a chunk drawn when reached."""
    lattice, step, dtype = box_lattice(C), CHUNK_ROWS // SUBSET_SIZE_MAX, object if C.is_exact else float
    pool, (a, b) = point_columns(lattice + random_points(C, rng, SUBSET_POOL_EXTRA)), np.triu_indices(len(lattice), 1)
    rows = lambda tuples, t: np.fromiter(itertools.chain.from_iterable(tuples), t).reshape(len(tuples), -1)
    draws = (zip(*(random_subset(pool.shape[1], rng, C.is_exact) for _ in range(min(step, trials - t))))
             for t in range(0, trials, step))
    pairs = (np.column_stack([a, b]), np.full((len(a), 2), Fraction(1, 2) if C.is_exact else 0.5, dtype))
    return pool, itertools.chain([pairs], ((rows(p, np.intp), rows(w, dtype)) for p, w in draws))


def segment_plan(C: CompactBox, rng: random.Random, trials: int, order: tuple):
    """The probes (fixed, a, b, lambda) of a mirrored quasiconvexity check, in chunks (P, rows, lams, spent).

    Row r of a chunk is the probe (P[:, i], P[:, j], P[:, k], lams[r]) for (i, j, k) = rows[r]; no chunk spends an
    f-value.  First each lattice point of C with every lattice pair (``itertools.combinations`` order) at lambda 1/2,
    as many whole lattice points a chunk as fit in ``CHUNK_ROWS`` rows.  Then ``trials`` triples of points drawn in
    turn, ``CHUNK_ROWS // 4`` a chunk, each probed in ``order`` at ``lambdas(extra=1)``, drawn after its points.
    """
    lattice, half = point_columns(box_lattice(C)), Fraction(1, 2) if C.is_exact else 0.5
    j, k = np.triu_indices(lattice.shape[1], 1)
    step = max(1, CHUNK_ROWS // max(1, len(j)))
    for i in np.split(np.arange(lattice.shape[1]), np.arange(step, lattice.shape[1], step)):  # whole lattice points
        rows = np.column_stack([np.repeat(i, len(j)), np.tile(j, len(i)), np.tile(k, len(i))])
        yield lattice, rows, np.full(len(rows), half), 0
    for t in range(0, trials, CHUNK_ROWS // 4):
        n = min(CHUNK_ROWS // 4, trials - t)
        if C.is_exact:  # one trial after another
            drawn = [(_exact_draws(rng, 3 * C.dim), lambdas(True, rng, extra=1)) for _ in range(n)]
            P, lams = _box_columns(C, np.concatenate([u for u, _ in drawn])), np.concatenate([g for _, g in drawn])
        else:  # per trial, 3 points then one lambda
            u = floats(rng, n * (3 * C.dim + 1)).reshape(n, -1)
            P, lams = _box_columns(C, u[:, :-1]), float_lambdas(u[:, -1:])
        yield P, np.repeat(np.arange(3 * n).reshape(-1, 3)[:, list(order)], 4, axis=0), lams, 0


def level_set_plan(xs: list, y: Point, values: list, rng: random.Random, exact: bool) -> tuple:
    """condition_ii's chunk at y, in ``segment_plan``'s form: P of xs + [y], rows (y, i, j), spent ``len(values)``.

    values are f(x, y) over the lattice xs.  The pairs (i, j) are the first ``LEVEL_SET_PAIRS``
    (``itertools.combinations`` order) of the lattice points whose f-value is >= 0, each at ``lambdas(exact, rng)``.
    """
    members = np.array([i for i, v in enumerate(values) if v >= 0], dtype=np.intp)
    a, b = np.triu_indices(len(members), 1)
    rows = np.column_stack([np.full(len(a), len(xs)), members[a], members[b]])[:LEVEL_SET_PAIRS]
    lams = lambdas(exact, rng, rows=len(rows))
    return point_columns(xs + [y]), np.repeat(rows, len(lams) // max(1, len(rows)), axis=0), lams, len(values)


def sqrt2_lead(C: CompactBox) -> tuple:
    """qcvx_second's lead chunk on exact boxes, in ``segment_plan``'s form: each pair y1, y2 of irrational points of C
    whose midpoint is rational, with each of the first ``SQRT2_LEAD_POINTS`` lattice points x, at lambda 1/2."""
    lo, hi = C.lower[0], C.upper[0]
    span = hi - lo
    centre = (lo + hi) * Root2(Fraction(1, 2))
    pairs = []
    for denom in (4, 8, 16):
        t = span * Root2(0, Fraction(1, denom))
        pairs.append((centre - t, centre + t))
        pairs.append((lo + t, hi - t))
    rest, xs = C.lower[1:], box_lattice(C)[:SQRT2_LEAD_POINTS]
    points = [p for p1, p2 in pairs if not p1.is_rational and not p2.is_rational
              for x in xs for p in (x, (p1, *rest), (p2, *rest))]
    return point_columns(points).reshape(C.dim, -1), np.arange(len(points)).reshape(-1, 3), np.full(len(points) // 3, Fraction(1, 2)), 0
