"""The exact segment probes' batch combination: ``geometry.pair_combinations`` against ``pair_combination``.

On ``Root2`` points a chunk's combinations are formed at once over int64 columns of the integer triples, and a
chunk whose integers could pass 2**EXACT_BATCH_BITS takes ``pair_combination`` row by row.  Every row must come
out as ``pair_combination``'s: the same normal-form triples, and the point a itself where a == b.  The report
digests at the end were recorded before the batch existed, when every probe called ``pair_combination``.
"""

from __future__ import annotations

import hashlib
import io
import json
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
from quasieq.cli import main
from quasieq.geometry import CompactBox, Root2, pair_combination, pair_combinations
from quasieq.reporting import _sanitize

LAMS = st.one_of(st.sampled_from(sampling._SIXTY_FOURTHS), st.just(Fraction(1, 2)))


@pytest.fixture
def scalar_calls(monkeypatch):
    """The rows that ``pair_combinations`` hands to ``pair_combination`` one at a time, counted."""
    calls = []

    def counted(a, b, lam):
        calls.append(lam)
        return pair_combination(a, b, lam)

    monkeypatch.setattr(geometry, "pair_combination", counted)
    return calls


def _root2(bits: int):
    """Root2 coordinates with sqrt(2) parts whose numerators and denominators have up to ``bits`` bits."""
    ints = st.integers(-(2**bits) + 1, 2**bits - 1)
    return st.builds(lambda p, q, d: Root2(Fraction(p, d), Fraction(q, d)), ints, ints, st.integers(1, 2**bits - 1))


@st.composite
def chunks(draw, coordinate, dim=None):
    """(points, a, b, lams): points of one dimension, with repeats, and rows of index pairs that include a == b."""
    dim = dim or draw(st.integers(1, 3))
    pool = [tuple(draw(coordinate) for _ in range(dim)) for _ in range(draw(st.integers(1, 6)))]
    points = pool + [tuple(draw(st.sampled_from(pool))) for _ in range(draw(st.integers(0, 3)))]
    n = draw(st.integers(1, 24))
    index = st.integers(0, len(points) - 1)
    a = np.array([draw(index) for _ in range(n)], dtype=np.intp)
    b = np.array([draw(st.one_of(index, st.just(int(i)))) for i in a], dtype=np.intp)
    return points, a, b, [draw(LAMS) for _ in range(n)]


def _triples(point):
    return [(type(c), c._t) for c in point]


def _assert_rows_match(points, a, b, lams):
    mid = pair_combinations(points, a, b, lams)
    for r in range(len(lams)):
        expected = pair_combination(points[a[r]], points[b[r]], lams[r])
        got = mid(r)
        assert _triples(got) == _triples(expected)
        if points[a[r]] == points[b[r]]:
            assert got is points[a[r]]


class TestBatchAgainstPairCombination:
    @given(chunks(_root2(12)))
    @settings(max_examples=300, deadline=None)
    def test_small_triples_take_the_batch(self, chunk):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "pair_combination", lambda *args: calls.append(args) or pair_combination(*args))
            _assert_rows_match(*chunk)
        assert not calls  # at most 2 * 12 + 7 + 1 bits: under the bound

    @given(chunks(_root2(28), dim=1))
    @settings(max_examples=200, deadline=None)
    def test_triples_at_the_bound_do_not_wrap(self, chunk):
        # up to 2 * 28 bits per numerator and denominator: some chunks pass under the bound, others fall back
        _assert_rows_match(*chunk)

    def test_the_largest_triples_under_the_bound(self, scalar_calls):
        # 7 + 27 + 27 + 1 = 62 bits: the batch, with products near 2**61
        top = 2**27
        points = [(Root2(Fraction(top - 2, top - 1), Fraction(-(top - 3), top - 1)),),
                  (Root2(Fraction(-(top - 4), top - 3), Fraction(top - 5, top - 3)),)]
        assert max(max(abs(v) for v in c._t) for p in points for c in p).bit_length() == 27
        lams = [Fraction(63, 64), Fraction(1, 64), Fraction(1, 2)]
        _assert_rows_match(points, np.array([0, 1, 0]), np.array([1, 0, 1]), lams)
        assert not scalar_calls

    def test_triples_past_the_bound_fall_back(self, scalar_calls):
        # 7 + 2 * 31 + 1 bits: in int64 the products near 2**66 would wrap, so every row goes alone
        top = 2**31
        points = [(Root2(Fraction(top - 2, top - 1), Fraction(-(top - 3), top - 1)),),
                  (Root2(Fraction(-(top - 4), top - 3), Fraction(top - 5, top - 3)),)]
        lams = [Fraction(63, 64), Fraction(1, 64), Fraction(1, 2)]
        _assert_rows_match(points, np.array([0, 1, 0]), np.array([1, 0, 1]), lams)
        assert len(scalar_calls) == 3

    @given(chunks(_root2(70)))
    @settings(max_examples=100, deadline=None)
    def test_triples_past_int64_fall_back(self, chunk):
        _assert_rows_match(*chunk)

    def test_sqrt2_witness_pairs(self):
        C = CompactBox((Root2(0), Root2(Fraction(1, 3))), (Root2(1), Root2(1, 1)))
        P, rows, _, _ = sampling.sqrt2_lead(C)
        pairs = [tuple(tuple(P[:, i].tolist()) for i in row) for row in rows[::sampling.SQRT2_LEAD_POINTS, 1:].tolist()]
        assert pairs
        points = [p for pair in pairs for p in pair] + [pairs[0][0]]
        n = len(points)
        a = np.repeat(np.arange(n), n)
        b = np.tile(np.arange(n), n)
        lams = [sampling._SIXTY_FOURTHS[k % 65] for k in range(n * n)]
        _assert_rows_match(points, a, b, lams)

    def test_rows_with_equal_points_give_the_point_itself(self):
        p = (Root2(Fraction(1, 3), Fraction(-1, 7)), Root2(2))
        points = [p, tuple(p), (Root2(0), Root2(1))]
        mid = pair_combinations(points, np.array([0, 1, 0]), np.array([1, 0, 2]), [Fraction(3, 64)] * 3)
        assert mid(0) is points[0] and mid(1) is points[1]
        assert mid(2) == pair_combination(points[0], points[2], Fraction(3, 64))


class TestScalarFallback:
    def test_a_zeroed_bound_takes_every_row_alone(self, monkeypatch, scalar_calls):
        monkeypatch.setattr(geometry, "EXACT_BATCH_BITS", 0)
        points = [(Root2(Fraction(k, 20)),) for k in range(21)]
        a, b = np.arange(20), np.arange(1, 21)
        lams = [Fraction(1, 2)] * 20
        mid = pair_combinations(points, a, b, lams)
        assert [mid(r) for r in range(20)] == [pair_combination(points[r], points[r + 1], lams[r]) for r in range(20)]
        assert len(scalar_calls) == 20

    @pytest.mark.parametrize("k", [20, 40])
    def test_bounds_with_denominators_near_3_to_the_40(self, k, scalar_calls):
        # 3**20 fits int64 but its products pass the bound; 3**40 does not fit int64 at all
        C = _big_box(k)
        lattice = sampling.box_lattice(C)
        j, i = np.triu_indices(len(lattice), 1)
        lams = [Fraction(1, 2)] * len(i)
        mid = pair_combinations(lattice, i, j, lams)
        assert mid(7) == pair_combination(lattice[i[7]], lattice[j[7]], lams[7])
        assert len(scalar_calls) == 1

    def test_a_lam_outside_the_unit_interval_raises_at_its_row(self, scalar_calls):
        points = [(Root2(0),), (Root2(1),)]
        mid = pair_combinations(points, np.array([0, 0]), np.array([1, 1]), [Fraction(1, 2), Fraction(3, 2)])
        assert mid(0) == (Root2(Fraction(1, 2)),)
        with pytest.raises(ValueError, match="lam must be"):
            mid(1)

    @pytest.mark.parametrize("points, lam", [([(Root2(0),), (Root2(1),)], 0.25), ([(0.0,), (1.0,)], 0.25)])
    def test_float_lams_and_float_points_go_row_by_row(self, points, lam, scalar_calls):
        mid = pair_combinations(points, np.array([0]), np.array([1]), [lam])
        assert mid(0) == pair_combination(points[0], points[1], lam) and len(scalar_calls) == 1


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
