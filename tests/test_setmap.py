import numpy as np
import pytest

from quasieq.bifunction import check_condition_iv
from quasieq.catalog import figure1_instance
from quasieq.errors import InstanceDefinitionError
from quasieq.geometry import CompactBox, Grid, contains, grid_points
from quasieq.setmap import (
    FAIL,
    NO_VIOLATION_FOUND,
    ConvexRegion,
    SetValuedMap,
    check_closed_graph,
    check_convex_values,
    check_lsc,
    evaluate,
    fixed_point_set,
    image_grid,
    validate_setmap,
)
from quasieq.solver import SolverConfig, smap_closed_graph_probe


@pytest.fixture(scope="module")
def fig1():
    inst = figure1_instance()
    return inst.C, inst.K


class TestEvaluate:
    def test_moving_interval_at_zero(self, fig1):
        _, K = fig1
        r = evaluate(K, (0.0,))
        assert (r.lower, r.upper) == ((1.5,), (2.0,))

    def test_branch_value_at_one(self, fig1):
        # first branch closes at 1: image is the full [0, 2]
        _, K = fig1
        r = evaluate(K, (1.0,))
        assert (r.lower, r.upper) == ((0.0,), (2.0,))

    def test_second_branch_at_two(self, fig1):
        _, K = fig1
        r = evaluate(K, (2.0,))
        assert (r.lower, r.upper) == ((0.0,), (0.5,))

    def test_outside_domain_rejected(self, fig1):
        _, K = fig1
        with pytest.raises(ValueError):
            evaluate(K, (3.0,))

    def test_empty_after_clipping_is_definition_error(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: 2.0], [lambda x: 3.0])
        with pytest.raises(InstanceDefinitionError):
            evaluate(K, (0.5,))
        with pytest.raises(InstanceDefinitionError):
            validate_setmap(K, Grid(C, (5,)))


class TestImageGrid:
    def test_constant_map_full_grid(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap.constant(C)
        g = Grid(C, (3,))
        assert image_grid(K, (0.0,), g) == [(0.0,), (0.5,), (1.0,)]

    def test_narrow_image_at_two(self, fig1):
        # image [0, 1/2] against the 5-point grid on [0, 2]
        C, K = fig1
        g = Grid(C, (5,))
        assert image_grid(K, (2.0,), g) == [(0.0,), (0.5,)]

    def test_high_image_at_zero(self, fig1):
        C, K = fig1
        g = Grid(C, (5,))
        assert image_grid(K, (0.0,), g) == [(1.5,), (2.0,)]

    def test_subset_of_grid_and_image(self, fig1):
        C, K = fig1
        g = Grid(C, (41,))
        all_pts = set(grid_points(g))
        for x in [(0.0,), (0.35,), (1.0,), (1.7,), (2.0,)]:
            region = evaluate(K, x)
            box = CompactBox(region.lower, region.upper)
            for p in image_grid(K, x, g):
                assert p in all_pts
                assert contains(box, p, slack=C.snap())

    def test_empty_intersection_reported_as_degenerate(self):
        # a sliver image between grid points yields an empty list, not an error
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: 0.26], [lambda x: 0.37])
        g = Grid(C, (3,))
        assert image_grid(K, (0.0,), g) == []


class TestFixedPointSet:
    def test_figure1_interval_m2001(self, fig1):
        C, K = fig1
        g = Grid(C, (2001,))
        pts = fixed_point_set(K, g, 0.0)
        lo, hi = pts[0][0], pts[-1][0]
        assert lo == 0.6 and hi == pytest.approx(1.4, abs=1e-12)
        assert len(pts) == 801
        expected = [p for p in grid_points(g) if 0.6 - 1e-12 <= p[0] <= 1.4 + 1e-12]
        assert pts == expected

    @pytest.mark.parametrize("m", [11, 21, 101, 201, 2001])
    def test_interval_at_step_dividing_resolutions(self, fig1, m):
        # every resolution whose step divides 0.2 reproduces grid /\ [0.6, 1.4]
        C, K = fig1
        g = Grid(C, (m,))
        pts = fixed_point_set(K, g, 0.0)
        expected = [p for p in grid_points(g) if 0.6 - 1e-9 <= p[0] <= 1.4 + 1e-9]
        assert pts == expected

    def test_constant_map_all_points(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap.constant(C)
        g = Grid(C, (11,))
        assert fixed_point_set(K, g, 0.0) == grid_points(g)

    def test_half_point_excluded(self, fig1):
        # dist(0.5, [0.75, 2]) = 0.25 > 0
        C, K = fig1
        assert evaluate(K, (0.5,)).distance_to((0.5,)) == pytest.approx(0.25, abs=1e-12)
        g = Grid(C, (5,))
        assert (0.5,) not in fixed_point_set(K, g, 0.0)
        assert (0.5,) in fixed_point_set(K, g, 0.25)


class TestClosedGraphProbe:
    def test_figure1_clean(self, fig1):
        C, K = fig1
        rep = check_closed_graph(K, Grid(C, (201,)))
        assert rep.verdict == NO_VIOLATION_FOUND

    def test_constant_map_clean(self):
        C = CompactBox((0.0,), (1.0,))
        rep = check_closed_graph(SetValuedMap.constant(C), Grid(C, (101,)))
        assert rep.verdict == NO_VIOLATION_FOUND

    def test_half_open_interval_fails(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(
            C,
            [lambda x: 0.0],
            [lambda x: 1.0],
            member_predicate=lambda x, z: z[0] < 1.0,
        )
        rep = check_closed_graph(K, Grid(C, (101,)))
        assert rep.verdict == FAIL
        assert rep.witness["z"] == (1.0,)
        # the approach trail really heads toward z = 1 from inside
        for step in rep.witness["approach"]:
            assert step["z_prime"][0] < 1.0
            assert abs(step["z_prime"][0] - 1.0) <= step["radius"]


class TestLscProbe:
    def test_figure1_clean(self, fig1):
        C, K = fig1
        assert check_lsc(K, Grid(C, (201,))).verdict == NO_VIOLATION_FOUND

    def test_figure1_clean_fine_grid(self, fig1):
        # steep-but-continuous bounds must stay clean at m=2001
        C, K = fig1
        assert check_lsc(K, Grid(C, (2001,))).verdict == NO_VIOLATION_FOUND

    def test_step_map_fails(self):
        C = CompactBox((0.0,), (2.0,))
        K = SetValuedMap(C, [lambda x: 0.0], [lambda x: 1.0 if x[0] <= 0.5 else 0.25])
        rep = check_lsc(K, Grid(C, (201,)))
        assert rep.verdict == FAIL
        # witness replays: K(x') really stays >= margin away from y at every rung
        y = rep.witness["y"]
        for step in rep.witness["receding"]:
            region = evaluate(K, step["x_prime"])
            assert region.distance_to(y) == pytest.approx(step["distance"], abs=1e-12)
            assert step["distance"] >= 0.1
        # the drop at x = 1/2: dist(1, K(1/2 + r)) stays 3/4 however small r gets
        for r in (0.1, 0.01, 1e-4):
            assert evaluate(K, (0.5 + r,)).distance_to((1.0,)) == pytest.approx(0.75)

    def test_step_map_graph_is_still_closed(self):
        C = CompactBox((0.0,), (2.0,))
        K = SetValuedMap(C, [lambda x: 0.0], [lambda x: 1.0 if x[0] <= 0.5 else 0.25])
        assert check_closed_graph(K, Grid(C, (201,))).verdict == NO_VIOLATION_FOUND

    def test_constant_clean(self):
        C = CompactBox((0.0,), (1.0,))
        assert check_lsc(SetValuedMap.constant(C), Grid(C, (101,))).verdict == NO_VIOLATION_FOUND


class TestConvexValuesProbe:
    def test_moving_box_clean(self, fig1):
        C, K = fig1
        assert check_convex_values(K, Grid(C, (101,))).verdict == NO_VIOLATION_FOUND

    def test_union_of_intervals_fails(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(
            C,
            [lambda x: 0.0],
            [lambda x: 1.0],
            member_predicate=lambda x, z: z[0] <= 0.2 or z[0] >= 0.8,
        )
        rep = check_convex_values(K, Grid(C, (101,)))
        assert rep.verdict == FAIL
        mid = rep.witness["combination"][0]
        assert 0.2 < mid < 0.8

    def test_singleton_images_clean(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: x[0]], [lambda x: x[0]])
        assert check_convex_values(K, Grid(C, (51,))).verdict == NO_VIOLATION_FOUND


class TestLoadValidation:
    def test_images_inside_domain_everywhere(self, fig1):
        C, K = fig1
        g = Grid(C, (401,))
        validate_setmap(K, g)
        for x in grid_points(Grid(C, (41,))):
            r = evaluate(K, x)
            assert contains(C, r.lower) and contains(C, r.upper)

    def test_convex_region_rejects_inverted_bounds(self):
        with pytest.raises(InstanceDefinitionError):
            ConvexRegion((1.0,), (0.0,))


@pytest.mark.parametrize(
    "probe",
    [
        lambda inst, grid, radii: check_closed_graph(inst.K, grid, radii=radii),
        lambda inst, grid, radii: check_lsc(inst.K, grid, radii=radii),
        lambda inst, grid, radii: check_condition_iv(inst.bifunction(), grid, radii=radii),
        lambda inst, grid, radii: smap_closed_graph_probe(
            inst.bifunction(), inst.K, SolverConfig(grid), radii=radii
        ),
    ],
    ids=["check_closed_graph", "check_lsc", "check_condition_iv", "smap_closed_graph_probe"],
)
def test_radii_must_decrease(probe):
    inst = figure1_instance()
    with pytest.raises(ValueError, match="strictly decreasing"):
        probe(inst, inst.grid((11,)), [0.1, 0.2])
