import bisect
import copy
import dataclasses
import math
import pickle
import random
import struct
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq.bifunction import check_diagonal_zero
from quasieq.catalog import remark_bifunction_instance
from quasieq.errors import InstanceDefinitionError
from quasieq.geometry import (
    EXACT_GRID_POINT_BUDGET,
    GRID_POINT_BUDGET,
    CompactBox,
    Grid,
    Root2,
    box_distance,
    contains,
    convex_combination,
    exact_is_rational,
    grid_coords,
    grid_points,
    point_distance,
)
from quasieq.setmap import FAIL

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)
root2s = st.builds(Root2, fractions, fractions)


class TestRoot2:
    @given(root2s, root2s)
    @settings(max_examples=1000, deadline=None)
    def test_add_sub_roundtrip(self, p, q):
        assert (p + q) - q == p

    @given(root2s, root2s)
    @settings(max_examples=1000, deadline=None)
    def test_mul_div_roundtrip(self, p, q):
        if q == Root2(0):
            return
        assert (p * q) / q == p

    @given(root2s, root2s)
    @settings(max_examples=1000, deadline=None)
    def test_order_matches_float(self, p, q):
        if p < q:
            assert float(p) <= float(q) + 1e-12

    def test_sign_cases(self):
        assert Root2(1, -1).sign() == -1  # 1 - sqrt(2) < 0
        assert Root2(3, -2).sign() == 1  # 3 - 2*sqrt(2) > 0
        assert Root2(-1, 1).sign() == 1  # sqrt(2) - 1 > 0
        assert Root2(-3, 2).sign() == -1
        assert Root2(0, 0).sign() == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Root2(1) / Root2(0)

    def test_the_int_zero_added_or_subtracted_gives_the_same_object(self):
        # an exact check's tolerance is the int 0: r + tol and r - tol build no new Root2
        r = Root2(Fraction(1, 3), -2)
        assert r + 0 is r and r - 0 is r and 0 + r is r
        assert r + 1 == Root2(Fraction(4, 3), -2) and r - 1 == Root2(Fraction(-2, 3), -2) and 0 - r == -r

    def test_str_parse_roundtrip(self):
        for s in (Root2(Fraction(1, 2)), Root2(Fraction(-3, 7), Fraction(2, 5)), Root2(0, 1)):
            assert Root2.parse(str(s)) == s

    def test_copy_deepcopy_and_pickle_give_an_equal_root2(self):
        for r in (Root2(1, 2), Root2(Fraction(-3, 7), Fraction(2, 5)), Root2(0)):
            for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert type(twin) is Root2 and twin == r and twin._t == r._t and hash(twin) == hash(r)

    def test_asdict_of_a_report_with_an_exact_witness(self):
        # dataclasses.asdict deep-copies the witness: diagonal_zero fails on remark at an exact grid point
        inst = remark_bifunction_instance()
        rep = check_diagonal_zero(inst.payload, inst.grid((11,)))
        assert rep.verdict == FAIL and isinstance(rep.witness["x"][0], Root2)
        assert dataclasses.asdict(rep) == {**vars(rep), "witness": rep.witness}


class TestExactIsRational:
    def test_plain_rational(self):
        assert exact_is_rational(Root2(Fraction(1, 2)))

    def test_sqrt2_multiple(self):
        assert not exact_is_rational(Root2(0, Fraction(1, 4)))

    def test_midpoint_of_irrational_pair(self):
        # oracle: exact rational arithmetic on the pair (sqrt2/4, 1 - sqrt2/4)
        y1 = Root2(0, Fraction(1, 4))
        y2 = Root2(1, Fraction(-1, 4))
        a = (y1.a + y2.a) / 2
        b = (y1.b + y2.b) / 2
        assert (a, b) == (Fraction(1, 2), Fraction(0))
        mid = convex_combination([(y1,), (y2,)], [Fraction(1, 2), Fraction(1, 2)])
        assert exact_is_rational(mid[0])
        assert mid[0] == Root2(Fraction(1, 2))
        assert not exact_is_rational(y1) and not exact_is_rational(y2)


class TestContains:
    def test_interior(self):
        box = CompactBox((0.0,), (2.0,))
        assert contains(box, (1.0,))

    def test_boundary(self):
        box = CompactBox((0.0,), (2.0,))
        assert contains(box, (2.0,))

    def test_outside_one_axis(self):
        box = CompactBox((0.0, 0.0), (1.0, 1.0))
        assert not contains(box, (0.5, 1.5))

    def test_exact_box_at_sqrt2_thousandths(self):
        box = CompactBox((Root2(0),), (Root2(1),))
        e = Root2(0, Fraction(1, 1000))
        assert contains(box, (e,)) and contains(box, (1 - e,))
        assert not contains(box, (-e,)) and not contains(box, (1 + e,))

    def test_dimension_mismatch(self):
        box = CompactBox((0.0,), (2.0,))
        with pytest.raises(InstanceDefinitionError):
            contains(box, (0.5, 0.5))

    def test_empty_box_rejected(self):
        with pytest.raises(InstanceDefinitionError):
            CompactBox((1.0,), (0.0,))

    @pytest.mark.parametrize("lower, upper, message", [
        ((0.0,) * 4, (1.0,) * 4, "dimension must be in 1..3, got 4"),
        ((0.0,), (1.0, 1.0), "box bounds have mismatched dimensions"),
    ])
    def test_malformed_box_rejected(self, lower, upper, message):
        with pytest.raises(InstanceDefinitionError, match=message):
            CompactBox(lower, upper)

    @pytest.mark.parametrize("lower, upper", [
        ((0.0,), (0.0,)),
        ((0.5, 0.5), (0.5, 0.5)),
        ((Root2(1),), (Root2(1),)),
        ((-1e308,), (1e308,)),
        ((0.0, -math.inf), (1.0, 0.0)),
    ])
    def test_zero_or_infinite_diameter_rejected(self, lower, upper):
        # every probe ladder halves radii down to a multiple of the grid step, which would never end
        with pytest.raises(InstanceDefinitionError, match="diameter must be positive and finite"):
            CompactBox(lower, upper)

    def test_one_flat_axis_has_positive_diameter(self):
        assert CompactBox((0.0, 0.5), (1.0, 0.5)).diameter() == 1.0


class TestGrid:
    def test_unit_interval_three_points(self):
        g = Grid(CompactBox((0.0,), (1.0,)), (3,))
        assert grid_points(g) == [(0.0,), (0.5,), (1.0,)]

    def test_five_points_on_02(self):
        g = Grid(CompactBox((0.0,), (2.0,)), (5,))
        assert grid_points(g) == [(0.0,), (0.5,), (1.0,), (1.5,), (2.0,)]

    def test_square_corners_lexicographic(self):
        g = Grid(CompactBox((0.0, 0.0), (1.0, 1.0)), (2, 2))
        assert grid_points(g) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    @pytest.mark.parametrize("m", [2, 3, 11, 201, 2001])
    def test_endpoints_bit_exact(self, m):
        box = CompactBox((0.1,), (0.7,))
        g = Grid(box, (m,))
        pts = grid_points(g)
        assert pts[0][0] == 0.1 and pts[-1][0] == 0.7
        assert len(pts) == m
        step = (0.7 - 0.1) / (m - 1)  # the interior coordinates carry the bits of lo + i*step in Python floats
        assert [p[0] for p in pts[1:-1]] == [0.1 + i * step for i in range(1, m - 1)]

    def test_axes_are_read_only_arrays_and_points_python_scalars(self):
        for box, dtype, scalar in [
            (CompactBox((0.0, -1.0), (1.0, 1.0)), np.float64, float),
            (CompactBox((Root2(0), Root2(0)), (Root2(1), Root2(0, 1))), object, Root2),
        ]:
            g = Grid(box, (5, 3))
            assert grid_coords(g).dtype == dtype
            for ax in g.axes:
                assert isinstance(ax, np.ndarray) and ax.dtype == dtype and not ax.flags.writeable
                with pytest.raises(ValueError):
                    ax[1] = ax[0]
            every = grid_points(g)
            picked = [g.point_at((4, 2))] + list(g.points_at(np.array([0, 14])))
            assert picked == [every[14], every[0], every[14]]
            assert all(type(c) is scalar for p in every + picked for c in p)
        # grid_coords holds the points as columns, each coordinate one contiguous row, in 1-D to 3-D
        for d in (1, 2, 3):
            for box in (
                CompactBox((0.1, -1.0, 2.0)[:d], (0.7, 1.0, 3.0)[:d]),
                CompactBox((Root2(0),) * d, (Root2(1), Root2(0, 1), Root2(2, 1))[:d]),
            ):
                g = Grid(box, (4, 3, 2)[:d])
                X = grid_coords(g)
                assert X.shape == (d, g.size()) and X.flags.c_contiguous
                assert [tuple(X[:, i].tolist()) for i in range(g.size())] == grid_points(g)

    def test_axis_index_range_matches_bisect(self):
        rng = random.Random(3)
        for box in (CompactBox((0.0,), (2.0,)), CompactBox((Root2(0),), (Root2(0, 1),))):
            g = Grid(box, (33,))
            ref = g.axes[0].tolist()
            probes = ref[::4] + [rng.uniform(-0.5, 2.5) for _ in range(20)]
            for lo in probes:
                for hi in probes:
                    want = (bisect.bisect_left(ref, lo), bisect.bisect_right(ref, hi))
                    assert g.axis_index_range(0, lo, hi) == want

    def test_exact_grid_coordinates(self):
        box = CompactBox((Root2(0),), (Root2(1),))
        g = Grid(box, (5,))
        assert [p[0] for p in grid_points(g)] == [
            Root2(0),
            Root2(Fraction(1, 4)),
            Root2(Fraction(1, 2)),
            Root2(Fraction(3, 4)),
            Root2(1),
        ]

    def test_too_few_points_rejected(self):
        with pytest.raises(InstanceDefinitionError):
            Grid(CompactBox((0.0,), (1.0,)), (1,))

    @pytest.mark.parametrize("count", [2.9, 5.0, "5", Fraction(5), np.float64(5.0), None])
    def test_non_integral_point_count_rejected(self, count):
        with pytest.raises(InstanceDefinitionError, match="points per axis must be integers"):
            Grid(CompactBox((0.0, 0.0), (1.0, 1.0)), (5, count))

    def test_integral_point_counts_of_any_integer_type(self):
        box = CompactBox((0.0, 0.0), (1.0, 1.0))
        assert Grid(box, (np.int64(5), 3)).points_per_axis == (5, 3) == Grid(box, (5, np.int32(3))).points_per_axis

    def test_points_per_axis_of_the_wrong_length_rejected(self):
        with pytest.raises(InstanceDefinitionError, match="points_per_axis does not match box dimension"):
            Grid(CompactBox((0.0,), (1.0,)), (5, 5))

    def test_oversized_grid_refused_before_any_axis(self, monkeypatch):
        def no_axes(grid, k):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(Grid, "_axis_coords", no_axes)
        for box, ppa in [
            (CompactBox((0.0,), (1.0,)), (GRID_POINT_BUDGET + 1,)),
            (CompactBox((0.0, 0.0), (1.0, 1.0)), (4097, 4097)),
            (CompactBox((Root2(0),) * 3, (Root2(1),) * 3), (257, 256, 256)),
        ]:
            with pytest.raises(InstanceDefinitionError, match=f"exceeds the budget of {GRID_POINT_BUDGET}"):
                Grid(box, ppa)
        # a grid of exactly the budget passes the check and goes on to build its axes
        with pytest.raises(AssertionError, match="an axis was built"):
            Grid(CompactBox((0.0, 0.0), (1.0, 1.0)), (4096, 4096))

    def test_oversized_exact_grid_refused_before_any_axis(self, monkeypatch):
        def no_axes(grid, k):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(Grid, "_axis_coords", no_axes)
        exact2, exact3 = CompactBox((Root2(0),) * 2, (Root2(1),) * 2), CompactBox((Root2(0),) * 3, (Root2(1),) * 3)
        exact1 = CompactBox((Root2(0),), (Root2(1),))
        for box, ppa in [(exact1, (EXACT_GRID_POINT_BUDGET + 1,)), (exact2, (2049, 2048)), (exact3, (162, 162, 160))]:
            with pytest.raises(InstanceDefinitionError, match=f"exceeds the exact budget of {EXACT_GRID_POINT_BUDGET}"):
                Grid(box, ppa)
        # an exact grid of exactly its budget, and a float grid past it, go on to build their axes
        for box in (exact2, CompactBox((0.0, 0.0), (1.0, 1.0))):
            with pytest.raises(AssertionError, match="an axis was built"):
                Grid(box, (2048, 2048))
        with pytest.raises(AssertionError, match="an axis was built"):
            Grid(CompactBox((0.0, 0.0), (1.0, 1.0)), (2049, 2048))


class TestConvexCombination:
    def test_midpoint(self):
        assert convex_combination([(0.0,), (2.0,)], [0.5, 0.5]) == (1.0,)

    def test_identity(self):
        assert convex_combination([(0.3,)], [1.0]) == (0.3,)

    def test_symmetric_three_points(self):
        assert convex_combination([(0.0,), (1.0,), (2.0,)], [0.25, 0.5, 0.25]) == (1.0,)

    def test_identical_points_exact(self):
        p = (0.1, 0.7)
        rng = random.Random(5)
        for _ in range(50):
            w1 = rng.uniform(0.1, 0.9)
            out = convex_combination([p, p], [w1, 1.0 - w1])
            assert out == p

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            convex_combination([(0.0,), (1.0,)], [-0.1, 1.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            convex_combination([(0.0,), (1.0,)], [0.5, 0.6])

    def test_exact_weights_must_sum_exactly(self):
        with pytest.raises(ValueError):
            convex_combination(
                [(Root2(0),), (Root2(1),)], [Fraction(1, 2), Fraction(1, 3)]
            )

    @pytest.mark.parametrize("points, weights, message", [
        ([(0.0,), (1.0,)], [1.0], "points and weights must have equal length"),
        ([], [], "need at least one point"),
        ([(0.0,), (1.0, 2.0)], [0.5, 0.5], "points have mismatched dimensions"),
    ])
    def test_malformed_points_rejected(self, points, weights, message):
        with pytest.raises(ValueError, match=message):
            convex_combination(points, weights)


# -- the reference of two-point combinations: the k-point function and the weights the segment probes gave it, verbatim --


def reference_convex_combination(points: Sequence[tuple], weights: Sequence) -> tuple:
    """Componentwise weighted sum; weights nonnegative and summing to 1.

    For float weights the sum must match 1 within 1e-12; exact weights must
    sum to 1 exactly.  A combination of identical points returns that point
    unchanged (no float dust).
    """
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    if not points:
        raise ValueError("need at least one point")
    first = points[0]
    exact = isinstance(weights[0], (Root2, Fraction)) or isinstance(first[0], Root2)
    if exact:
        exact_weights = [Root2.coerce(w) for w in weights]
        if any(w.sign() < 0 for w in exact_weights) or sum(exact_weights[1:], exact_weights[0]) != 1:
            raise ValueError("weights must be nonnegative and sum to 1 exactly")
    else:
        wsum = sum(weights)
        if any(w < 0 for w in weights) or abs(wsum - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
    if all(p == first for p in points[1:]):
        return first
    dim = len(first)
    if any(len(p) != dim for p in points):
        raise ValueError("points have mismatched dimensions")
    if isinstance(first[0], Root2):  # exact coordinates take exact weights; float ones their own
        weights = exact_weights
    coords = []
    for k in range(dim):
        acc = None
        for p, w in zip(points, weights):
            term = p[k] * w
            acc = term if acc is None else acc + term
        coords.append(acc)
    return tuple(coords)


def pair_weights(lam):
    """(lam, 1 - lam) in lam's own arithmetic."""
    if isinstance(lam, Fraction):
        return (lam, Fraction(1) - lam)
    return (lam, 1.0 - lam)


def _combined(combine) -> tuple:
    """("ok", each coordinate's type and integer triple or float bits) or ("raises", the exception's type).

    A NaN reads "nan": which of two NaNs a float sum passes on depends on the add CPython runs, its float_add or, once
    a ``+`` has been specialized, the interpreter's own, so one function can give two payloads for the same sum.
    """
    try:
        out = combine()
    except ValueError:
        return ("raises", ValueError)
    bits = lambda c: c._t if isinstance(c, Root2) else struct.pack("<d", c) if c == c else "nan"
    return ("ok", [(type(c), bits(c)) for c in out])


@st.composite
def point_pairs(draw, coordinate) -> tuple:
    """(a, b) of one dimension in 1..3; b is a itself, a copy of it or a point of its own."""
    dim = draw(st.integers(1, 3))
    a = tuple(draw(coordinate) for _ in range(dim))
    b = draw(st.sampled_from(["same", "copy", "other"]))
    return a, a if b == "same" else tuple(a) if b == "copy" else tuple(draw(coordinate) for _ in range(dim))


root2_coords = st.builds(Root2, st.fractions(-4, 4, max_denominator=1000), st.fractions(-4, 4, max_denominator=1000))
float_coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=True, allow_infinity=True))
unit_fractions = st.one_of(
    st.integers(0, 64).map(lambda k: Fraction(k, 64)),
    st.fractions(0, 1),
    st.sampled_from([Fraction(0), Fraction(1)]),
)
unit_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0**-60]), st.floats(0.0, 1.0))


class TestTwoPointCombinations:
    """``convex_combination((a, b), pair_weights(lam))`` is the reference's, outcome for outcome: the exact path's one
    normal form a coordinate is the sum the reference built term by term."""

    def assert_same(self, a, b, lam):
        expected = _combined(lambda: reference_convex_combination((a, b), pair_weights(lam)))
        assert _combined(lambda: convex_combination((a, b), pair_weights(lam))) == expected
        return expected

    @given(point_pairs(root2_coords), unit_fractions)
    @settings(max_examples=200, deadline=None)
    def test_exact_points_rational_lambda(self, pair, lam):
        assert self.assert_same(*pair, lam)[0] == "ok"

    @given(point_pairs(root2_coords), unit_floats)
    @settings(max_examples=200, deadline=None)
    def test_exact_points_float_lambda(self, pair, lam):
        # a float lam whose 1.0 - lam is rounded fails the exact weight check in both
        outcome = self.assert_same(*pair, lam)
        assert outcome[0] == ("ok" if lam.as_integer_ratio()[1] <= 2**53 else "raises")

    @given(point_pairs(float_coords), unit_floats)
    @settings(max_examples=400, deadline=None)
    def test_float_points_bit_identical(self, pair, lam):
        assert self.assert_same(*pair, lam)[0] == "ok"

    def test_equal_points_come_back_as_they_are(self):
        a = (Root2(1, 1), Root2(Fraction(1, 3)))
        assert convex_combination((a, tuple(a)), pair_weights(Fraction(3, 64))) is a
        p, q = (0.1, -0.0), (0.1, 0.0)
        assert convex_combination((p, q), pair_weights(0.3)) is p and 0.1 * 0.3 + 0.1 * (1.0 - 0.3) != 0.1

    @pytest.mark.parametrize("lam", [-0.1, 1.5, -math.inf, math.inf, math.nan, Fraction(-1, 64), Fraction(65, 64)])
    @pytest.mark.parametrize("points", [((0.0,), (1.0,)), ((Root2(0),), (Root2(1, 1),))], ids=["float", "exact"])
    def test_lambda_outside_the_unit_interval_raises(self, points, lam):
        # the reference let a NaN lam through on float points, with NaN coordinates, and raised OverflowError on an
        # infinite one on exact points
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            convex_combination(points, pair_weights(lam))

    @pytest.mark.parametrize("points", [((0.0,), (1.0, 2.0)), ((Root2(0), Root2(1)), (Root2(1),))])
    def test_mismatched_dimensions_raise(self, points):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            convex_combination(points, (0.5, 0.5))


class TestPointDistance:
    def test_float_sup_norm(self):
        assert point_distance((0.0, 1.0), (0.5, -1.0)) == 2.0
        assert point_distance((0.3,), (0.3,)) == 0.0

    def test_exact_sup_norm(self):
        # |7/5 - 0| < |sqrt(2) - 0|: the maximum is decided in exact arithmetic
        p, q = (Root2(0), Root2(0)), (Root2(Fraction(7, 5)), Root2(0, 1))
        d = point_distance(p, q)
        assert isinstance(d, Root2) and d == Root2(0, 1)
        assert point_distance(q, q) == Root2(0)


class TestBoxDistance:
    def test_inside_is_zero(self):
        assert box_distance((0.0,), (1.0,), (0.5,)) == 0.0

    def test_below_lower(self):
        assert box_distance((0.75,), (2.0,), (0.5,)) == 0.25

    def test_sup_norm_over_axes(self):
        assert box_distance((0.0, 0.0), (1.0, 1.0), (1.2, -0.5)) == 0.5

    def test_exact_path(self):
        d = box_distance((Root2(0),), (Root2(1),), (Root2(2),))
        assert d == Root2(1)
        assert box_distance((Root2(0),), (Root2(1),), (Root2(0, Fraction(1, 2)),)) == 0
