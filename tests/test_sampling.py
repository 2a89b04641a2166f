"""The draw layer: ``sampling.floats`` against ``random()`` one call at a time, and the float plans built on it
against verbatim copies of the plans that drew one value at a time."""

import itertools
import random
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest

from quasieq import sampling
from quasieq.geometry import CompactBox, Point, Root2

SEEDS = [947, 948, 1729, 1733, 1730, 0, 2**70 + 5]

BOXES = {
    "float-1d": CompactBox((0.0,), (2.0,)),
    "float-2d": CompactBox((-1.0, 0.25), (0.5, 1.5)),
    "float-3d": CompactBox((0.0, -0.0, -3.0), (1.0, 0.1, 2.0)),
    "exact-1d": CompactBox((Root2(0),), (Root2(1),)),
    "exact-2d": CompactBox((Root2(0), Root2(-1)), (Root2(1), Root2(0, 1))),
    "exact-3d": CompactBox((Root2(0),) * 3, (Root2(1), Root2(0, 1), Root2(2, 1))),
}


# -- the plans that drew one value at a time, verbatim ----------------------------


def reference_random_point(C: CompactBox, rng: random.Random) -> Point:
    """A uniform point of C; on exact boxes a multiple of 1/256 of each side."""
    out = []
    for lo, hi in zip(C.lower, C.upper):
        if isinstance(lo, Root2):
            t = Fraction(rng.randrange(0, 257), 256)
            out.append(lo + (hi - lo) * Root2(t))
        else:
            out.append(rng.uniform(lo, hi))
    return tuple(out)


def reference_random_points(C: CompactBox, rng: random.Random, n: int) -> list:
    """n points drawn one after another by ``random_point``."""
    return [reference_random_point(C, rng) for _ in range(n)]


def reference_lambdas(exact: bool, rng: random.Random, extra: int = 2) -> list:
    """1/2, 1/4, 3/4, then ``extra`` random weights in (0, 1), on exact domains entries of ``_SIXTY_FOURTHS``."""
    if exact:
        return [sampling._SIXTY_FOURTHS[k] for k in [32, 16, 48] + [rng.randrange(1, 64) for _ in range(extra)]]
    return [0.5, 0.25, 0.75] + [rng.uniform(0.05, 0.95) for _ in range(extra)]


def as_chunk(points: list, rows: np.ndarray, lams: list, spent: int) -> tuple:
    """A chunk of points and lams in lists as the plans give it: (dim, N) columns and a lams array, holding the
    lists' own objects."""
    return np.array(points, dtype=object).T, rows, np.array(lams, dtype=object), spent


def reference_probe_chunk(probes: list) -> tuple:
    """The probes (fixed, a, b, lambda), in order, as one chunk of ``segment_plan``."""
    points = [p for probe in probes for p in probe[:3]]
    return as_chunk(points, np.arange(len(points)).reshape(-1, 3), [probe[3] for probe in probes], 0)


def reference_segment_plan(lattice: list, rng: random.Random, exact: bool, trials: int, draw: Callable):
    """The probes (fixed, a, b, lambda) of a mirrored quasiconvexity check, in chunks (points, rows, lams, spent).

    Row r of a chunk is the probe (points[i], points[j], points[k], lams[r]) for (i, j, k) = rows[r]; no chunk
    spends an f-value.  First a chunk per lattice point: it with every lattice pair (``itertools.combinations``
    order) at lambda 1/2.  Then a chunk of ``trials`` triples ``draw(rng)``, each at ``lambdas(extra=1)``.
    """
    half = Fraction(1, 2) if exact else 0.5
    j, k = np.triu_indices(len(lattice), 1)
    for i in range(len(lattice)):
        yield as_chunk(lattice, np.column_stack([np.full(len(j), i), j, k]), [half] * len(j), 0)
    probes = []
    for _ in range(trials):
        fixed, a, b = draw(rng)
        probes += [(fixed, a, b, lam) for lam in reference_lambdas(exact, rng, extra=1)]
    yield reference_probe_chunk(probes)


def reference_level_set_plan(xs: list, y: Point, values: list, rng: random.Random, exact: bool) -> tuple:
    """condition_ii's chunk at y, in ``segment_plan``'s form: points xs + [y], rows (y, i, j), spent ``len(values)``.

    values are f(x, y) over the lattice xs.  The pairs (i, j) are the first ``LEVEL_SET_PAIRS``
    (``itertools.combinations`` order) of the lattice points whose f-value is >= 0, each at ``lambdas(exact, rng)``.
    """
    members = np.array([i for i, v in enumerate(values) if v >= 0], dtype=np.intp)
    a, b = np.triu_indices(len(members), 1)
    rows = np.column_stack([np.full(len(a), len(xs)), members[a], members[b]])[:sampling.LEVEL_SET_PAIRS]
    per_row = [reference_lambdas(exact, rng) for _ in rows]
    lams = [lam for g in per_row for lam in g]
    return as_chunk(xs + [y], np.repeat(rows, [len(g) for g in per_row], axis=0), lams, len(values))


def probe_sequence(chunks) -> tuple:
    """Every probe of a plan in order, as the reprs of its points (read from the chunk's columns) and lambda (type
    and sign of zero included), and the f-values its chunks spent."""
    probes, spent = [], 0
    for P, rows, lams, s in chunks:
        names = [repr(p) for p in zip(*P.tolist())]
        probes += [(tuple(names[i] for i in row), repr(lam)) for row, lam in zip(rows.tolist(), lams.tolist())]
        spent += s
    return probes, spent


# -- the bulk draw ------------------------------------------------------------------


class TestFloats:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 311, 312, 313, 624, 5000])
    def test_values_and_state_are_those_of_random(self, seed, n):
        rng, plain = random.Random(seed), random.Random(seed)
        rng.random(), plain.random()  # off the start of a block of the twister's state too
        drawn = sampling.floats(rng, n)
        assert drawn.dtype == np.float64 and drawn.shape == (n,)
        assert drawn.tolist() == [plain.random() for _ in range(n)]
        assert rng.getstate() == plain.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_draw_stream_draws_from_its_twister(self, seed):
        stream, plain = sampling.DrawStream(seed), random.Random(seed)
        assert sampling.floats(stream, 700).tolist() == [plain.random() for _ in range(700)]
        assert stream.getstate() == plain.getstate() and stream.cursor == 0  # the kept values are not touched


# -- the plans against their one-value-at-a-time copies -----------------------------


class TestPlansMatchTheReferences:
    @pytest.mark.parametrize("box", BOXES)
    @pytest.mark.parametrize("n", [0, 1, 3, 16])
    def test_random_points(self, box, n):
        C = BOXES[box]
        rng, reference = random.Random(1730), random.Random(1730)
        assert repr(sampling.random_points(C, rng, n)) == repr(reference_random_points(C, reference, n))
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("exact", [False, True])
    def test_lambdas(self, exact):
        rng, reference = random.Random(948), random.Random(948)
        for n in range(300):
            extra = n % 4
            assert repr(sampling.lambdas(exact, rng, extra).tolist()) == repr(reference_lambdas(exact, reference, extra))
            assert rng.getstate() == reference.getstate()
        assert repr(sampling.lambdas(exact, rng, 2, rows=7).tolist()) == repr([v for _ in range(7) for v in reference_lambdas(exact, reference)])
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("box", BOXES)
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_segment_plan(self, box, order, monkeypatch):
        monkeypatch.setitem(sampling.BOX_LATTICE_BUDGET, 3, 3)  # 27 points: two chunks, the second one partial
        C = BOXES[box]
        exact, trials = C.is_exact, 12 if C.is_exact else 400

        def draw(rng):  # the draw closures of qcvx_second and qccv_first, verbatim
            if order == (0, 1, 2):
                return reference_random_points(C, rng, 3)  # x, y1, y2
            x1, x2, y = reference_random_points(C, rng, 3)
            return y, x1, x2

        rng, reference = random.Random(1732), random.Random(1732)
        got = probe_sequence(sampling.segment_plan(C, rng, trials, order))
        want = probe_sequence(reference_segment_plan(sampling.box_lattice(C), reference, exact, trials, draw))
        assert got == want
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("box", BOXES)
    def test_level_set_plan(self, box):
        C = BOXES[box]
        xs, values_rng = sampling.box_lattice(C), random.Random(3)
        rng, reference = random.Random(1729), random.Random(1729)
        for y in xs[:6]:
            values = [values_rng.uniform(-1.0, 1.0) for _ in xs]  # about half the lattice in the level set
            got, want = (plan(xs, y, values, r, C.is_exact) for plan, r in
                         ((sampling.level_set_plan, rng), (reference_level_set_plan, reference)))
            assert probe_sequence([got]) == probe_sequence([want])
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("box", ["float-2d", "exact-1d"])
    def test_segment_plan_trial_chunks(self, box):
        # 2 * 2048 + 3 trials: three trial chunks, the draws in the order of one
        C, trials = BOXES[box], sampling.CHUNK_ROWS // 2 + 3
        rng, reference = random.Random(1733), random.Random(1733)
        plan = list(sampling.segment_plan(C, rng, trials, (0, 1, 2)))
        want = reference_segment_plan(sampling.box_lattice(C), reference, C.is_exact, trials, lambda r: reference_random_points(C, r, 3))
        assert probe_sequence(plan) == probe_sequence(want)
        assert rng.getstate() == reference.getstate()
        assert [len(rows) for _, rows, _, _ in plan[-3:]] == [sampling.CHUNK_ROWS, sampling.CHUNK_ROWS, 12]


class TestChunkForm:
    """Every chunk carries (dim, N) columns P in the box's dtype and one lam per row: float64 on float boxes, and
    objects holding ``Root2`` and ``Fraction`` on exact ones."""

    def assert_chunk(self, C, chunk):
        P, rows, lams, _ = chunk
        scalar, weight = (Root2, Fraction) if C.is_exact else (float, float)
        assert P.ndim == 2 and P.shape[0] == C.dim and P.dtype == (object if C.is_exact else np.float64)
        assert lams.shape == (len(rows),) and lams.dtype == P.dtype
        assert rows.shape[1] == 3 and (rows < P.shape[1]).all()
        assert all(type(v) is scalar for v in P.ravel().tolist()) and all(type(v) is weight for v in lams.tolist())

    @pytest.mark.parametrize("box", BOXES)
    def test_segment_plan(self, box, monkeypatch):
        monkeypatch.setitem(sampling.BOX_LATTICE_BUDGET, 3, 3)
        C = BOXES[box]
        for chunk in sampling.segment_plan(C, random.Random(5), 40, (2, 0, 1)):
            self.assert_chunk(C, chunk)

    @pytest.mark.parametrize("box", BOXES)
    def test_level_set_plan(self, box):
        C = BOXES[box]
        xs, rng = sampling.box_lattice(C), random.Random(6)
        for values in ([rng.uniform(-1.0, 1.0) for _ in xs], [-1.0] * len(xs)):  # a level set, and an empty one
            self.assert_chunk(C, sampling.level_set_plan(xs, xs[-1], values, rng, C.is_exact))


class TestLatticeChunks:
    @pytest.mark.parametrize("dim, chunks, largest", [(1, 1, 4410), (2, 9, 7056), (3, 125, 7750)])
    def test_whole_lattice_points_up_to_the_cap(self, dim, chunks, largest):
        C = CompactBox((0.0,) * dim, (1.0,) * dim)
        n = sampling.BOX_LATTICE_BUDGET[dim] ** dim
        plan = list(sampling.segment_plan(C, random.Random(1), 1, (0, 1, 2)))
        lattice_chunks = plan[:-1]
        assert len(lattice_chunks) == chunks and max(len(rows) for _, rows, _, _ in lattice_chunks) == largest
        assert all(len(rows) <= sampling.CHUNK_ROWS for _, rows, _, _ in plan)
        for _, rows, _, _ in lattice_chunks:  # every lattice point's rows in one chunk
            assert (np.unique(rows[:, 0], return_counts=True)[1] == n * (n - 1) // 2).all()
        firsts = np.concatenate([rows[:, 0] for _, rows, _, _ in lattice_chunks])
        assert (np.diff(firsts) >= 0).all() and len(np.unique(firsts)) == n


class TestSubsetPlan:
    @pytest.mark.parametrize("box", ["float-2d", "exact-1d"])
    def test_lattice_pairs_then_random_subsets_in_capped_chunks(self, box):
        # 2 * 2048 + 3 subsets: three random chunks, each drawn when it is reached, the draws in the order of one
        C, step = BOXES[box], sampling.CHUNK_ROWS // sampling.SUBSET_SIZE_MAX
        rng, reference = random.Random(1730), random.Random(1730)
        pool, chunks = sampling.subset_plan(C, rng, 2 * step + 3)
        lattice = sampling.box_lattice(C)
        assert list(zip(*pool.tolist())) == lattice + reference_random_points(C, reference, sampling.SUBSET_POOL_EXTRA)
        pairs, halves = next(chunks)  # the lattice pairs draw nothing
        assert rng.getstate() == reference.getstate()
        assert pairs.tolist() == [list(p) for p in itertools.combinations(range(len(lattice)), 2)]
        assert halves.dtype == (object if C.is_exact else float)
        assert repr(halves.tolist()) == repr([[Fraction(1, 2) if C.is_exact else 0.5] * 2] * len(pairs))
        rest = list(chunks)
        want = [sampling.random_subset(pool.shape[1], reference, C.is_exact) for _ in range(2 * step + 3)]
        assert [len(picks) for picks, _ in rest] == [step, step, 3]
        assert all(weights.dtype == halves.dtype for _, weights in rest)
        assert repr([(tuple(p), tuple(w)) for I, W in rest for p, w in zip(I.tolist(), W.tolist())]) == repr(want)
        assert rng.getstate() == reference.getstate()


class TestPointMoves:
    @pytest.mark.parametrize("box", ["float-1d", "float-2d", "float-3d"])
    def test_one_point_moves_are_axis_moves(self, box):
        # the ladders' rung images: each axis moved by +r, then -r, clipped to the box, bit for bit
        C, rng = BOXES[box], random.Random(11)
        xs = [tuple(rng.uniform(lo, hi) for lo, hi in zip(C.lower, C.upper)) for _ in range(5)] + [C.lower, C.upper]
        for r in (0.5, 1e-3, 10.0):
            moves = sampling.point_moves(np.array(xs)[:, None, :], r, C)
            assert moves.shape == (len(xs), 2 * C.dim, 1, C.dim)
            for x, got in zip(xs, moves):
                want = sampling.axis_moves(x, r, C)
                assert [[c.hex() for c in p] for p in got[:, 0].tolist()] == [[c.hex() for c in p] for p in want]
