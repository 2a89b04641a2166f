"""The batch combination ``geometry.convex_combinations`` against the scalar ``convex_combination``.

Column r of the batch must be the scalar at the points ``P[:, picks[r]]`` and weights ``weights[r]``: on float64 bit
for bit, the sign of zero too, and on ``Root2`` the same normal-form triples; where every point of a row is equal, the
first point itself.  Exact rows are formed at once from int64 columns, and a row whose integers could reach
2**EXACT_BATCH_BITS takes the scalar alone.  The report digests at the end were recorded before the batch
existed, when every probe combined its own points.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq import geometry, sampling
from quasieq.bifunction import (
    Bifunction,
    check_condition_ii,
    check_condition_iii,
    check_quasiconcave_first,
    check_quasiconvex_second,
)
from quasieq.catalog import get_instance
from quasieq.cli import main
from quasieq.geometry import CompactBox, Root2, convex_combination, convex_combinations, point_columns
from quasieq.reporting import _sanitize


@pytest.fixture
def scalar_calls(monkeypatch):
    """The rows that ``convex_combinations`` hands to ``convex_combination`` one at a time, counted."""
    calls = []

    def counted(points, weights):
        calls.append(weights)
        return convex_combination(points, weights)

    monkeypatch.setattr(geometry, "convex_combination", counted)
    return calls


def _root2(bits: int, denominators=None):
    """Root2 coordinates (p + q*sqrt(2)) / d with p and q of up to ``bits`` bits, and d of up to ``bits`` bits or drawn
    from ``denominators``."""
    ints = st.integers(-(2**bits) + 1, 2**bits - 1)
    d = st.integers(1, 2**bits - 1) if denominators is None else st.sampled_from(denominators)
    return st.builds(lambda p, q, d: Root2(Fraction(p, d), Fraction(q, d)), ints, ints, d)


#: Two 17-bit primes: a pool's least common denominator is 34 bits, and 21-bit numerators reach the bound or pass it.
PRIMES_17 = [131071, 131063]


FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e308]), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def float_weights(draw, k: int) -> list:
    """``sampling.random_subset``'s float weights: k raw draws over their sum, the last one 1 minus the others."""
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(k)]
    weights = [r / sum(raw) for r in raw]
    return weights[:-1] + [1.0 - sum(weights[:-1])]


@st.composite
def exact_weights(draw, k: int) -> list:
    """Rational weights r/total with r in 1..15, or a lam of ``sampling._SIXTY_FOURTHS`` and 1 - lam for pairs."""
    if k == 2 and draw(st.booleans()):
        lam = draw(st.sampled_from(sampling._SIXTY_FOURTHS.tolist()))
        return [lam, 1 - lam]
    raw = [draw(st.integers(1, 15)) for _ in range(k)]
    return [Fraction(r, sum(raw)) for r in raw]


@st.composite
def batches(draw, coordinate, weights, k_top: int = 4) -> tuple:
    """(P, picks, weights, rows): point columns with repeated points, and rows of 1 to ``k_top`` picks, padded with -1
    to the longest, each with its weights; or rows of pairs and one lam each.  rows lists each row's (picks, weights)."""
    dim = draw(st.integers(1, 3))
    pool = [tuple(draw(coordinate) for _ in range(dim)) for _ in range(draw(st.integers(1, 5)))]
    pool += [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, 3)))]
    index = st.integers(0, len(pool) - 1)
    pairs, k_max = draw(st.booleans()), draw(st.integers(1, k_top))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        k = 2 if pairs else draw(st.integers(1, k_max))
        first = draw(index)
        picks = [first] + [draw(st.one_of(index, st.just(first))) for _ in range(k - 1)]
        rows.append((picks, draw(weights(k))))
    k = max(len(picks) for picks, _ in rows)
    picks = np.array([p + [-1] * (k - len(p)) for p, _ in rows])
    W = np.array([w + [0] * (k - len(w)) for _, w in rows], dtype=object if weights is exact_weights else float)
    return point_columns(pool), picks, W[:, 0] if pairs else W, rows


def _observed(point) -> list:
    return [(type(c), c._t) if isinstance(c, Root2) else (type(c), c.hex()) for c in point]


def _assert_rows_match(P, picks, weights, rows):
    X = convex_combinations(P, picks, weights)
    assert X.dtype == P.dtype and X.shape == (P.shape[0], len(rows))
    for r, (row, w) in enumerate(rows):
        points = [tuple(P[:, i].tolist()) for i in row]
        want = convex_combination(points, w)
        assert _observed(X[:, r].tolist()) == _observed(want), (points, w)
        if P.dtype == object and all(p == points[0] for p in points):
            assert all(a is b for a, b in zip(X[:, r], P[:, row[0]]))  # the first point's own scalars


class TestBatchAgainstTheScalar:
    @given(batches(FLOATS, float_weights))
    @settings(max_examples=300, deadline=None)
    def test_float_columns_bit_for_bit(self, batch):
        _assert_rows_match(*batch)

    @given(batches(_root2(12), exact_weights, k_top=3))
    @settings(max_examples=300, deadline=None)
    def test_small_triples_take_the_batch(self, batch):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "convex_combination", lambda *args: calls.append(args) or convex_combination(*args))
            convex_combinations(*batch[:3])
        # a row's own least common denominators: 12 bits of integers, 3 * 12 of D and 6 of L (weights over at most
        # 64) make 54 bits, under the bound however many denominators the pool holds
        assert not calls
        _assert_rows_match(*batch)

    @given(batches(_root2(12), exact_weights))
    @settings(max_examples=100, deadline=None)
    def test_a_zeroed_bound_takes_the_scalar_row_by_row(self, batch):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "EXACT_BATCH_BITS", 0)
            mp.setattr(geometry, "convex_combination", lambda *args: calls.append(args) or convex_combination(*args))
            _assert_rows_match(*batch)
        assert len(calls) == len(batch[3])

    @given(batches(_root2(21, PRIMES_17), exact_weights))
    @settings(max_examples=150, deadline=None)
    def test_triples_at_the_bound_do_not_wrap(self, batch):
        # 21 + 34 bits a coordinate and weights over up to 64: some batches pass under the bound, others fall back
        _assert_rows_match(*batch)

    @given(batches(_root2(70), exact_weights))
    @settings(max_examples=60, deadline=None)
    def test_triples_past_int64_fall_back(self, batch):
        _assert_rows_match(*batch)

    def test_the_largest_triples_under_the_bound(self, scalar_calls):
        # 27 bits of integers, a least common denominator of 27 bits and lams over 64: 60 bits, near 2**60 products
        top = 2**27
        P = point_columns([(Root2(Fraction(top - 2, top - 1), Fraction(-(top - 3), top - 1)),),
                           (Root2(Fraction(-(top - 4), top - 1), Fraction(top - 5, top - 1)),)])
        picks, lams = np.array([[0, 1], [1, 0], [0, 1]]), np.array([Fraction(63, 64), Fraction(1, 64), Fraction(1, 2)])
        _assert_rows_match(P, picks, lams, [(p, [lam, 1 - lam]) for p, lam in zip(picks.tolist(), lams)])
        assert not scalar_calls

    def test_sqrt2_witness_pairs(self):
        C = CompactBox((Root2(0), Root2(Fraction(1, 3))), (Root2(1), Root2(1, 1)))
        P, rows, _, _ = sampling.sqrt2_lead(C)
        n = P.shape[1]
        picks = np.column_stack([np.repeat(np.arange(n), n), np.tile(np.arange(n), n)])
        lams = sampling._SIXTY_FOURTHS[np.arange(n * n) % 65]
        _assert_rows_match(P, picks, lams, [(p, [lam, 1 - lam]) for p, lam in zip(picks.tolist(), lams)])

    def test_the_remarks_subsets_take_the_batch(self, scalar_calls):
        # 4-point subsets of lattice (denominator 20) and random (256) points at weights r/total: the product of
        # their denominators passes 2**62, their least common denominators do not
        P, chunks = sampling.subset_plan(get_instance("remark").C, random.Random(5), 400)
        for picks, weights in chunks:
            rows = [(p[p >= 0].tolist(), w[p >= 0].tolist()) for p, w in zip(picks, weights)]
            _assert_rows_match(P, picks, weights, rows)
        assert not scalar_calls


class TestScalarFallback:
    def test_only_the_rows_past_the_bound_fall_back(self, scalar_calls):
        # the point over 3**40 passes the bound with any lam; the rows of the other points keep their own 20ths
        P = point_columns([(Root2(Fraction(k, 20)),) for k in range(5)] + [(Root2(Fraction(1, 3**38)),)])
        picks = np.array([[0, 1], [5, 2], [3, 4], [1, 5], [2, 2]])
        lams = np.array([Fraction(k, 64) for k in (1, 32, 63, 5, 7)])
        _assert_rows_match(P, picks, lams, [(p, [lam, 1 - lam]) for p, lam in zip(picks.tolist(), lams)])
        assert scalar_calls == [(lams[1], 1 - lams[1]), (lams[3], 1 - lams[3])]

    def test_a_zeroed_bound_takes_every_row_alone(self, monkeypatch, scalar_calls):
        monkeypatch.setattr(geometry, "EXACT_BATCH_BITS", 0)
        P = point_columns([(Root2(Fraction(k, 20)),) for k in range(21)])
        picks, lams = np.column_stack([np.arange(20), np.arange(1, 21)]), np.full(20, Fraction(1, 2))
        rows = [(p, [Fraction(1, 2)] * 2) for p in picks.tolist()]
        _assert_rows_match(P, picks, lams, rows)
        assert len(scalar_calls) == 20

    @pytest.mark.parametrize("k", [20, 40])
    def test_bounds_with_denominators_near_3_to_the_40(self, k, scalar_calls):
        # 3**20 fits int64 but its products pass the bound; 3**40 does not fit int64 at all
        P = point_columns(sampling.box_lattice(_big_box(k)))
        j, i = np.triu_indices(P.shape[1], 1)
        X = convex_combinations(P, np.column_stack([i, j]), np.full(len(i), Fraction(1, 2)))
        assert len(scalar_calls) == len(i)
        assert X[:, 7].tolist() == list(convex_combination([tuple(P[:, i[7]]), tuple(P[:, j[7]])], [Fraction(1, 2)] * 2))

    @pytest.mark.parametrize("points, lam", [
        ([(Root2(0),), (Root2(1),)], Fraction(3, 2)),
        ([(Root2(0),), (Root2(1),)], Fraction(-1, 64)),
        ([(0.0,), (1.0,)], 1.5),
        ([(0.0,), (1.0,)], float("nan")),
    ])
    def test_a_row_the_scalar_refuses_raises_its_error(self, points, lam):
        P = point_columns(points)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            convex_combinations(P, np.array([[0, 1], [0, 1]]), np.array([lam / 3, lam], dtype=P.dtype))

    def test_float_weights_on_exact_points(self, scalar_calls):
        # two columns of float weights with small ratios, as k/256 and (256 - k)/256, take the batch; float lams go
        # row by row, and the scalar refuses 0.1, whose 1 - lam is not exact
        P = point_columns([(Root2(0),), (Root2(1),)])
        assert convex_combinations(P, np.array([[0, 1]]), np.array([[0.25, 0.75]]))[0, 0] == Root2(Fraction(3, 4))
        assert not scalar_calls
        assert convex_combinations(P, np.array([[0, 1]]), np.array([0.25]))[0, 0] == Root2(Fraction(3, 4))
        assert len(scalar_calls) == 1
        with pytest.raises(ValueError, match="sum to 1 exactly"):
            convex_combinations(P, np.array([[0, 1]]), np.array([0.1]))


class TestRoot2ShortPaths:
    @given(_root2(40), st.integers(-(2**70), 2**70))
    @settings(max_examples=300, deadline=None)
    def test_int_operands_match_the_general_path(self, x, n):
        as_root2 = Root2(n)
        assert (x + n)._t == (x + as_root2)._t == (n + x)._t
        assert (x - n)._t == (x - as_root2)._t
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            assert getattr(x, op)(n) is getattr(x, op)(as_root2)

    def test_bool_keeps_the_general_path(self):
        assert Root2(1) + True == Root2(2) and Root2(1) - True == Root2(0) and Root2(0) < True


# -- reports, byte for byte ------------------------------------------------------------------------------


def _big_box(k: int) -> CompactBox:
    """An exact interval whose bounds have denominators 3**k with sqrt(2) parts."""
    lo = Root2(Fraction(1, 3**k), Fraction(1, 3 ** (k - 1)))
    hi = Root2(Fraction(3**k - 1, 3**k), Fraction(-1, 3 ** (k - 2)))
    return CompactBox((lo,), (hi,))


def _big_box_reports(k: int) -> str:
    """condition_ii, condition_iii, qcvx_second and qccv_first at 50 trials for two bifunctions of the box."""
    C, c = _big_box(k), Fraction(1, 2)
    reports = []
    for fn in (lambda x, y: y[0] * y[0] - x[0] * x[0], lambda x, y: (x[0] - c) * (x[0] - c) - (y[0] - c) * (y[0] - c)):
        f = Bifunction(fn, C)
        reports += [check_condition_ii(f, C), check_condition_iii(f, C, 50), check_quasiconvex_second(f, C, 50),
                    check_quasiconcave_first(f, C, 50)]
    fields = [{"id": r.condition_id, "verdict": r.verdict, "witness": r.witness, "samples": r.samples_used} for r in reports]
    return json.dumps(_sanitize(fields), sort_keys=True)


BIG_BOX_DIGESTS = {
    20: "942deeeeaa500061155bab87463f6f7d328e0e6cd2810684c3b562ae146c2801",
    40: "496f88439c022f67407f141b9b72cfda6ecae3d821dc962e81a395efce2f3864",
}

REMARK_DIGESTS = {
    1729: "8af11a52142a6e85ff0be0ac9d4986e15e6bf1763315d0634814d5b0a80d6d19",
    1730: "0a5aff72f2a6131b0a14c15dd1b309c664c2e2b202fed75e9150d39e65e258a1",
    1731: "c9306dbfa78e7b7ac201f555214a219e6f62239bd55e131d6d0bbd6d19bef276",
    1732: "64be62209c2f97f8634b60cfa5f502bc0331b489029292f925d2ad9a610de3ed",
    1733: "1bf1d31e11d71a6c801a2a948ef2772141b18050df9097c0f48149b369fe7dfa",
    1734: "089349df87e9e133a4417650060448973486642b3b3fe19b0fb055a0a17ee08d",
    1735: "8e02c31828a3b6d104d8374558cd7b460b7d14a736d458e440ef994db9bcb6d5",
    1736: "a9ac81503ec0c50a3018bf861fe7f6f26949f9e4fd74c9b0855c35a02e66eee1",
    1737: "e29bebe565da9eeb3484ee54a5907ccc38590da6d51498c0010e2b3da041bb2f",
    1738: "f8f356c992efa337f9182345c2ebf8876bb3de9acea9e817d1dc514dcaac8e36",
    1739: "4c81290066b1718f015a681f5d400de7aa83e9ea50ff6f9cb53f17718fbe4130",
    1740: "e95b843bf666d2101ac48e3b11f0fc63436594bdce284edf7d8d49ce02fdd9dc",
    1741: "089349df87e9e133a4417650060448973486642b3b3fe19b0fb055a0a17ee08d",
    1742: "c439050f3792b74ced7e49ee3d6b49fe394d3c22a7ba4a462dc6c1b8c1f39a31",
    1743: "e801cd939cb12ab27ec16080f24ba9c50bfc2b9407968f7f21d2f4b907c7f2c3",
    1744: "49c7e05d95f926f8c38c51f50aaf3630a4e97cfe31263efeeddd795e13634b98",
}


def _verify_remark(seed: int) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["verify", "remark", "--seed", str(seed)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


class TestReportsUnchanged:
    @pytest.mark.parametrize("seed", sorted(REMARK_DIGESTS))
    def test_verify_remark(self, seed):
        assert _verify_remark(seed) == REMARK_DIGESTS[seed]

    def test_verify_remark_with_a_zeroed_bound(self, monkeypatch, scalar_calls):
        monkeypatch.setattr(geometry, "EXACT_BATCH_BITS", 0)
        assert _verify_remark(1729) == REMARK_DIGESTS[1729]
        assert scalar_calls

    @pytest.mark.parametrize("k", sorted(BIG_BOX_DIGESTS))
    def test_an_exact_box_that_falls_back(self, k, scalar_calls):
        assert hashlib.sha256(_big_box_reports(k).encode()).hexdigest() == BIG_BOX_DIGESTS[k]
        assert scalar_calls
