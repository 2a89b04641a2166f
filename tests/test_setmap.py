import importlib.util
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasieq import sampling, setmap
from quasieq.bifunction import Bifunction, ObjectiveFunction, check_condition_iv
from quasieq.catalog import figure1_instance, get_instance, random_instance
from quasieq.errors import InstanceDefinitionError, NonFiniteValueError, QuasieqError
from quasieq.expressions import parse_expression
from quasieq.geometry import (
    GRID_POINT_BUDGET,
    CompactBox,
    Grid,
    Root2,
    box_distance,
    contains,
    grid_coords,
    grid_points,
)
from quasieq.setmap import (
    FAIL,
    NO_VIOLATION_FOUND,
    ConvexRegion,
    SetValuedMap,
    TopologyProbeReport,
    _member_samples,
    _nearby_members,
    check_closed_graph,
    check_convex_values,
    check_lsc,
    evaluate,
    fixed_point_set,
    fixed_table,
    image_grid,
    image_index_ranges,
)
from quasieq.solver import SolverConfig, solve_qopt

from rung_reference import ball_candidates


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
            fixed_table(K, Grid(C, (5,)))
        # exact grids take the same bounds table, which names the first empty grid point
        E = CompactBox((Root2(0),), (Root2(1),))
        K = SetValuedMap(E, [lambda x: x[0] + Root2(0, "1/4")], [lambda x: x[0] + 1])
        with pytest.raises(InstanceDefinitionError, match=r"image of grid point \(Root2\(Fraction\(3, 4\)"):
            fixed_table(K, Grid(E, (5,)))

    def test_callable_bound_raises_at_its_point_in_call_order(self):
        # per point in lexicographic order: lower_1, upper_1, lower_2, upper_2; upper_2 raises at (0.5, 0.25)
        C = CompactBox((0.0, 0.0), (1.0, 1.0))
        calls = []

        def bound(name, value):
            def fn(x):
                calls.append((name, x))
                if name == "upper_2" and x == (0.5, 0.25):
                    raise ZeroDivisionError(f"{name} at {x}")
                return value

            return fn

        K = SetValuedMap(C, [bound("lower_1", 0.0), bound("lower_2", 0.0)], [bound("upper_1", 1.0), bound("upper_2", 1.0)])
        with pytest.raises(ZeroDivisionError, match=r"upper_2 at \(0\.5, 0\.25\)"):
            K.bounds_batch(grid_coords(Grid(C, (3, 5))))
        points = grid_points(Grid(C, (3, 5)))[:7]
        assert calls == [(name, x) for x in points for name in ("lower_1", "upper_1", "lower_2", "upper_2")]
        assert all(type(c) is float for _name, x in calls for c in x)


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

    def test_constant_float_map_makes_no_per_point_bound_call(self, monkeypatch):
        # its bounds are Expression constants, each one batch value however many points the grid has
        C = CompactBox((0.0, -1.0), (1.0, 2.0))
        K, grid = SetValuedMap.constant(C), Grid(C, (5, 4))
        monkeypatch.setattr(setmap, "mesh_points", lambda at: pytest.fail("a bound was evaluated point by point"))
        fixed, residuals, spans = fixed_table(K, grid)
        assert fixed.tolist() == list(range(20)) and not residuals.any() and (spans == [(0, 5), (0, 4)]).all()
        h = ObjectiveFunction(parse_expression("power(x_1 - 0.25, 2) + abs(x_2)"))
        assert [r.point for r in solve_qopt(h, K, SolverConfig(grid, 1e-6, 0.0)).solutions] == [(0.25, 0.0)]

    def test_half_point_excluded(self, fig1):
        # dist(0.5, [0.75, 2]) = 0.25 > 0
        C, K = fig1
        assert evaluate(K, (0.5,)).distance_to((0.5,)) == pytest.approx(0.25, abs=1e-12)
        g = Grid(C, (5,))
        assert (0.5,) not in fixed_point_set(K, g, 0.0)
        assert (0.5,) in fixed_point_set(K, g, 0.25)


    @pytest.mark.parametrize("seed, dim, m, delta", [(13, 1, 401, 0.0), (1004, 2, 61, 0.0), (1009, 2, 41, 0.05)])
    def test_fixed_table_residuals_match_the_row_maximum(self, seed, dim, m, delta):
        inst = random_instance(seed, dim)
        g = Grid(inst.C, (m,) * dim)
        X = grid_coords(g)
        lo, hi = (np.stack(np.broadcast_arrays(*b, X[0])[:-1]) for b in inst.K.bounds_batch(X))  # (dim, N) each
        reference = np.maximum(np.maximum(lo - X, X - hi).max(axis=0), 0.0)  # with (dim, N) temporaries
        fixed, residuals, _spans = fixed_table(inst.K, g, delta)
        assert np.array_equal(fixed, np.flatnonzero(reference <= delta + inst.C.snap()))
        assert residuals.tobytes() == reference[fixed].tobytes()  # bits, signs of zero included
    @pytest.mark.parametrize("delta", [float("nan"), -0.1])
    def test_fixed_table_refuses_a_delta_that_is_not_nonnegative(self, fig1, delta):
        C, K = fig1
        with pytest.raises(ValueError, match="nonnegative"):
            fixed_table(K, Grid(C, (11,)), delta)

    @staticmethod
    def _exact_map(name):
        box = CompactBox((Root2(0),), (Root2(1),))
        if name == "remark":
            return get_instance("remark").K
        if name == "moving-box":
            return SetValuedMap(box, [lambda x: x[0] * Fraction(1, 2)], [lambda x: (x[0] + 1) * Fraction(1, 2)])
        # fixed points only on [1/2, sqrt(2)/2], so the residuals elsewhere are exact and positive
        return SetValuedMap(
            box, [lambda x: x[0] * Fraction(1, 2) + Fraction(1, 4)], [lambda x: x[0] * Fraction(1, 2) + Root2(0, "1/4")]
        )

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("name", ["remark", "moving-box", "narrow-box"])
    def test_exact_fixed_table_matches_per_point_evaluation(self, name, delta):
        K = self._exact_map(name)
        g = Grid(K.domain, (17,))
        expected = []
        for i, x in enumerate(grid_points(g)):
            region = K.evaluate(x)
            r = region.distance_to(x)
            if r <= delta:
                expected.append((i, float(r), [list(span) for span in image_index_ranges(K, x, g)]))
        assert len(expected) > 1
        fixed, residuals, spans = fixed_table(K, g, delta)
        assert fixed.dtype == spans.dtype == np.intp and residuals.dtype == float
        assert list(zip(fixed.tolist(), residuals.tolist(), spans.tolist())) == expected
        assert fixed_point_set(K, g, delta) == [grid_points(g)[i] for i, _r, _s in expected]


def test_perfbench_problem_properties_match_fixed_table():
    """perfbench's problem facts read ``image_index_ranges``: a rename of what they call fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "facts.py"
    spec = importlib.util.spec_from_file_location("perfbench_facts", path)
    facts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(facts)
    for inst, ppa in ((figure1_instance(), (2001,)), (random_instance(13, 2), (41, 41))):
        cfg = inst.config(ppa)
        props = facts.problem_properties({"instance": inst, "config": cfg, "payload": inst.payload_kind})
        fixed, _residuals, spans = fixed_table(inst.K, cfg.grid, cfg.delta_membership)
        volumes = np.clip(spans[:, :, 1] - spans[:, :, 0], 0, None).prod(axis=1)
        assert props["fixed_points"] == len(fixed) > 0
        assert props["inner_evaluations"] == int(volumes.sum()) > 0


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
        points = [rep.witness["x"], rep.witness["z"]]
        points += [step[k] for step in rep.witness["approach"] for k in ("x_prime", "z_prime")]
        assert all(type(c) is float for p in points for c in p)


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


class TestProbeEvaluations:
    @pytest.mark.parametrize("check", [check_lsc, check_closed_graph])
    def test_ball_candidate_images_are_memoized(self, check):
        calls = []
        C = CompactBox((0.0, 0.0), (1.0, 1.0))
        K = SetValuedMap(
            C,
            [lambda x: calls.append(x) or 0.3 * x[1] + 0.1, lambda x: 0.1],
            [lambda x: 0.3 * x[1] + 0.4, lambda x: 0.5 - 0.1 * x[0]],
        )
        assert check(K, Grid(C, (41, 41))).verdict == NO_VIOLATION_FOUND
        # the images of each lattice point's ball candidates are memoized; the 81
        # lattice points are evaluated once more, as their own first candidates
        assert len(set(calls)) > 81 and len(calls) == len(set(calls)) + 81


# The probe-by-probe checkers, kept verbatim as the reference of the batch path.


def reference_check_closed_graph(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    radii, margin = sampling.probe_ladder(grid)
    rng = random.Random(sampling.PROBE_SEED)
    regions = list(sampling.lattice_regions(K, grid))
    lattice = [x for x, *_ in regions]
    samples = 0

    def approach(region, x, z, r):
        for x_prime in ball_candidates(x, r, K.domain, rng):
            z_prime = _nearby_members(K, region, x_prime, z, r, grid)
            if z_prime is not None:
                return {"radius": r, "x_prime": x_prime, "z_prime": z_prime}
        return None

    for x, x_map, lo, hi in regions:
        region = sampling.region_lookup(K)  # the ball candidates of x recur for every z
        for z in lattice:
            samples += 1
            outside = box_distance(lo, hi, z)
            if K.member_predicate is not None:
                if K.member_predicate(x_map, z) or outside > margin:
                    continue
            elif outside < margin:
                continue
            trail = sampling.ladder_search(radii, lambda r: approach(region, x, z, r))
            if trail is not None:
                witness = {"x": x, "z": z, "outside_distance": float(outside), "approach": trail}
                return TopologyProbeReport(FAIL, witness, radii, samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, samples)


def reference_check_lsc(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    radii, margin = sampling.probe_ladder(grid)
    rng = random.Random(sampling.PROBE_SEED + 1)
    samples = 0

    def receding(region, x, y, r):
        # the first candidate whose image is farthest from y
        x_prime, d = max(
            ((xp, float(box_distance(*region(xp), y))) for xp in ball_candidates(x, r, K.domain, rng)),
            key=lambda cand: cand[1],
        )
        return None if d < margin else {"radius": r, "x_prime": x_prime, "distance": d}

    for x, x_map, lo, hi in sampling.lattice_regions(K, grid):
        region = sampling.region_lookup(K)  # the ball candidates of x recur for every y
        for y in _member_samples(K, x_map, lo, hi, grid):
            samples += 1
            trail = sampling.ladder_search(radii, lambda r: receding(region, x, y, r))
            if trail is not None:
                witness = {"x": x, "y": y, "receding": trail}
                return TopologyProbeReport(FAIL, witness, radii, samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, radii, samples)


def _expression_map(C: CompactBox, lower: list, upper: list) -> SetValuedMap:
    return SetValuedMap(C, [parse_expression(t) for t in lower], [parse_expression(t) for t in upper])


def _box_map_3d(seed: int) -> SetValuedMap:
    """A seeded 3-D moving box: affine centres, and a step at x_1 = 1/2 in the upper bound of axis 3."""
    rng = random.Random(seed)
    lower, upper = [], []
    for k in range(3):
        centre = " + ".join(f"{rng.uniform(-0.2, 0.2):.6f}*x_{j + 1}" for j in range(3)) + f" + {rng.uniform(0.4, 0.6):.6f}"
        width = rng.uniform(0.15, 0.3)
        lower.append(f"({centre}) - {width:.6f}")
        upper.append(f"({centre}) + {width:.6f}" if k < 2 else f"piecewise(x_1 <= 0.5, ({centre}) + {width:.6f}, {centre})")
    return _expression_map(CompactBox((0.0,) * 3, (1.0,) * 3), lower, upper)


_STEP_C = CompactBox((0.0,), (2.0,))
_DIFFERENTIAL_MAPS = {
    **{f"random-1d-{s}": lambda s=s: (random_instance(s, 1).K, (101,)) for s in (3000, 3003, 3007)},
    **{f"random-2d-{s}": lambda s=s: (random_instance(s, 2).K, (41, 41)) for s in (3101, 3104, 3108)},
    **{f"box-3d-{s}": lambda s=s: (_box_map_3d(s), (9, 9, 9)) for s in (1, 2)},
    # six ladders of closed_graph go on at a random candidate: the failed-guess replay
    "random-2d-3110@401": lambda: (random_instance(3110, 2).K, (401, 401)),
    # lsc FAILs at the drop; closed_graph FAILs at x = 1/2, its ladder going on at every rung
    "step-lsc": lambda: (_expression_map(_STEP_C, ["0"], ["piecewise(x_1 <= 0.5, 1, 0.25)"]), (201,)),
    "step-closed-graph": lambda: (_expression_map(_STEP_C, ["0"], ["piecewise(x_1 < 0.5, 1, 0.25)"]), (201,)),
    # lsc FAILs at x = 1/2 before the bound overflows at the lattice point x = 1.9375, where closed_graph,
    # which evaluates every lattice region first, raises
    "step-then-overflow": lambda: (
        _expression_map(_STEP_C, ["0"], ["piecewise(x_1 <= 0.5, 1, piecewise(x_1 < 1.9, 0.25, power(x_1 * 1e200, 2)))"]),
        (201,),
    ),
    # the bound overflows at x = 0, the first lattice point: both checkers raise before any ladder exists
    "overflow-at-0": lambda: (
        _expression_map(CompactBox((0.0,), (1.0,)), ["0"], ["piecewise(x_1 < 0.001, power(1e200, 2), 1)"]),
        (101,),
    ),
    # the bound overflows in (0.01, 0.02), between lattice points: both checkers raise at a random candidate
    "overflow": lambda: (
        _expression_map(CompactBox((0.0,), (1.0,)), ["0"], ["piecewise(abs(x_1 - 0.015) < 0.005, power(x_1 * 1e200, 2), 0.6)"]),
        (101,),
    ),
    # the image is empty in (0.01, 0.02), between lattice points: both checkers raise at a random candidate
    "empty-image": lambda: (
        _expression_map(CompactBox((0.0,), (1.0,)), ["0"], ["piecewise(abs(x_1 - 0.015) < 0.005, -1, 0.6)"]),
        (101,),
    ),
}


def _outcome(check, K: SetValuedMap, grid: Grid) -> tuple:
    try:
        rep = check(K, grid)
    except QuasieqError as exc:
        return type(exc), str(exc)
    return rep.verdict, rep.witness, rep.probe_radii, rep.samples_used


class TestTopologyBatchDifferential:
    """The batch path of closed_graph and lsc gives the reports, or the exceptions, of the probe-by-probe loop."""

    @pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_MAPS))
    @pytest.mark.parametrize(
        "check, reference", [(check_closed_graph, reference_check_closed_graph), (check_lsc, reference_check_lsc)]
    )
    def test_reports_equal_the_loop(self, name, check, reference):
        K, ppa = _DIFFERENTIAL_MAPS[name]()
        grid = Grid(K.domain, ppa)
        assert _outcome(check, K, grid) == _outcome(reference, K, grid)

    @pytest.mark.parametrize(
        "name, check, outcome",
        [
            ("step-lsc", check_lsc, FAIL),
            ("step-closed-graph", check_closed_graph, FAIL),
            ("overflow", check_closed_graph, NonFiniteValueError),
            ("overflow", check_lsc, NonFiniteValueError),
            ("step-then-overflow", check_lsc, FAIL),
            ("step-then-overflow", check_closed_graph, NonFiniteValueError),
            ("overflow-at-0", check_lsc, NonFiniteValueError),
            ("overflow-at-0", check_closed_graph, NonFiniteValueError),
            ("empty-image", check_lsc, InstanceDefinitionError),
            ("empty-image", check_closed_graph, InstanceDefinitionError),
        ],
    )
    def test_cases_reach_their_outcome(self, name, check, outcome):
        K, ppa = _DIFFERENTIAL_MAPS[name]()
        assert _outcome(check, K, Grid(K.domain, ppa))[0] == outcome

    @pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_MAPS))
    def test_bounds_core_flags_the_points_evaluate_refuses(self, name):
        # the one batch bounds path of the ladders and of bounds_batch: 1-D at 1001 points reaches every overflow
        K, _ppa = _DIFFERENTIAL_MAPS[name]()
        X = grid_coords(Grid(K.domain, {1: (1001,), 2: (41, 41), 3: (9, 9, 9)}[K.domain.dim]))
        lo, hi, finite = K._bounds(X)
        lo, hi = (np.stack(np.broadcast_arrays(*b, X[0])[:-1]) for b in (lo, hi))  # (dim, N) each
        ok = finite & (lo <= hi).all(axis=0)
        for i, x in enumerate(zip(*X.tolist())):
            try:
                region = K.evaluate(x)
            except QuasieqError:
                assert not ok[i], x
                continue
            assert ok[i] and (region.lower, region.upper) == (tuple(lo[:, i]), tuple(hi[:, i])), x
        assert ok.any()
        kept_lo, kept_hi = (np.stack(np.broadcast_arrays(*b, X[0, ok])[:-1]) for b in K.bounds_batch(X[:, ok]))
        assert np.array_equal(kept_lo, lo[:, ok]) and np.array_equal(kept_hi, hi[:, ok])
        if not ok.all():
            with pytest.raises(QuasieqError):
                K.bounds_batch(X)

    def test_a_random_candidate_hit_replays_the_loop(self, monkeypatch):
        K, ppa = _DIFFERENTIAL_MAPS["random-2d-3110@401"]()
        calls = []
        rung_candidates = sampling.rung_candidates
        monkeypatch.setattr(sampling, "rung_candidates", lambda *args: calls.append(args) or rung_candidates(*args))
        assert check_closed_graph(K, Grid(K.domain, ppa)).verdict == NO_VIOLATION_FOUND
        assert 0 < len(calls) < 100  # the loop ran at a few ladders, not at every one of them

    def test_ladder_jitters_are_the_ball_candidates_draws(self):
        C = CompactBox((-1.0, 0.0), (1.0, 0.5))
        radii = (0.4, 0.2, 0.1)
        rng, loop = sampling.DrawStream(5), sampling.DrawStream(5)
        xs = [(0.9, 0.05), (-0.95, 0.45), (0.0, 0.25)]
        rows = [(x, r) for x, n in zip(xs, (1, 3, 2)) for r in radii[:n]]  # a row per rung: 1, 3 and 2 rungs
        jitters = sampling.ladder_jitters(np.array([[x] for x, _ in rows]), np.array([r for _, r in rows]), C, rng)
        assert jitters.shape == (6, 2, 1, 2)
        drawn = [[[list(p)] for p in ball_candidates(x, r, C, loop)[-2:]] for x, r in rows]
        assert jitters.tolist() == drawn
        assert rng.cursor == loop.cursor == 2 * 2 * 6

    @pytest.mark.parametrize("check", [check_closed_graph, check_lsc])
    @pytest.mark.parametrize("name", ["random-1d-3000", "random-2d-3101", "step-lsc"])
    def test_one_settle_per_check(self, monkeypatch, check, name):
        K, ppa = _DIFFERENTIAL_MAPS[name]()
        calls = []
        settle_ladders = sampling.settle_ladders
        monkeypatch.setattr(sampling, "settle_ladders", lambda *args: calls.append(args) or settle_ladders(*args))
        check(K, Grid(K.domain, ppa))
        assert len(calls) == 1

    # 1 MB above the peaks of a settle per lattice point, 1.26 and 1.53 MB: one table for every ladder costs that much
    @pytest.mark.parametrize("check, limit_mb", [(check_closed_graph, 2.25), (check_lsc, 2.5)])
    def test_peak_memory_on_a_3d_box_at_61(self, check, limit_mb):
        # the ladders' candidate images are built a chunk of ladders at a time, never for every ladder at once
        K = _expression_map(
            CompactBox((0.0,) * 3, (1.0,) * 3),
            ["0.1 + 0.2*x_2", "0.2 + 0.1*x_1 - 0.1*x_3", "0.3*x_1"],
            ["0.5 + 0.2*x_2", "0.6 + 0.1*x_1 - 0.1*x_3", "0.4 + 0.3*x_1"],
        )
        grid = Grid(K.domain, (61, 61, 61))
        check(K, grid)  # the expressions compile once, outside the measurement
        tracemalloc.start()
        try:
            assert check(K, grid).verdict == NO_VIOLATION_FOUND
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20


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
        K.bounds_batch(grid_coords(g))
        for x in grid_points(Grid(C, (41,))):
            r = evaluate(K, x)
            assert contains(C, r.lower) and contains(C, r.upper)

    def test_convex_region_rejects_inverted_bounds(self):
        with pytest.raises(InstanceDefinitionError):
            ConvexRegion((1.0,), (0.0,))

    @pytest.mark.parametrize("bounds, variant, message", [
        (2, "fancy", "unknown map variant 'fancy'"),
        (2, "piecewise_moving_interval", "piecewise_moving_interval requires a 1-d domain"),
        (1, "moving_box", "bound count does not match domain dimension"),
    ])
    def test_malformed_map_rejected(self, bounds, variant, message):
        square = CompactBox((0.0, 0.0), (1.0, 1.0))
        zero, one = parse_expression("0"), parse_expression("1")
        with pytest.raises(InstanceDefinitionError, match=message):
            SetValuedMap(square, [zero] * bounds, [one] * bounds, variant=variant)


def _ladder_holds(radii: tuple, margin: float) -> bool:
    return len(radii) > 0 and all(b < a for a, b in zip(radii, radii[1:])) and margin > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_probe_ladders_decrease_with_positive_margin(dim):
    """The radius ladders strictly decrease and the margins are positive, on every grid from 2 to 2001 points per axis."""
    every_size = range(2, 2002)
    exact_sizes = (2, 3, 5, 17, 101, 2001)  # exact axes are slow to build
    for C, sizes in [
        (CompactBox((0.0,) * dim, (1.0,) * dim), every_size),
        (CompactBox((-3.0,) * dim, tuple(5.0 * 10.0**-k for k in range(dim))), every_size),
        (CompactBox((Root2(0),) * dim, (Root2(0, 1),) * dim), exact_sizes),
    ]:
        assert _ladder_holds(sampling.pair_probe_radii(C), 1.0)
        for m in sizes:
            # m points on every axis, or on the first axis alone where m**dim exceeds the grid budget
            ppa = (m,) * dim if m**dim <= GRID_POINT_BUDGET else (m,) + (2,) * (dim - 1)
            assert _ladder_holds(*sampling.probe_ladder(Grid(C, ppa))), (C, ppa)


def test_pair_probe_margin_is_positive():
    nan = float("nan")
    assert sampling.pair_probe_margin([-1.0, 3.0]) == 0.02 * 4.0
    for values in ([], [2.5, 2.5], [nan, 1.0], [1.0, nan], [nan]):
        assert sampling.pair_probe_margin(values) == 1e-9
    C = CompactBox((0.0,), (1.0,))
    rep = check_condition_iv(Bifunction(lambda x, y: nan, C), Grid(C, (11,)))
    assert rep.verdict == NO_VIOLATION_FOUND and rep.tolerance == 1e-9


def reference_check_convex_values(K: SetValuedMap, grid: Grid) -> TopologyProbeReport:
    rng = random.Random(sampling.PROBE_SEED + 2)
    snap = K.domain.snap()
    samples = 0
    for x, x_map, lo, hi in sampling.lattice_regions(K, grid):
        pts = _member_samples(K, x_map, lo, hi, grid)
        lams = sampling.lambdas(False, rng, extra=sampling.SEGMENT_EXTRA_LAMBDAS).tolist()
        pairs = itertools.islice(itertools.combinations(pts, 2), sampling.SEGMENT_PAIRS)
        for y1, y2 in pairs:
            for lam in lams:
                samples += 1
                mid = tuple(lam * a + (1.0 - lam) * b for a, b in zip(y1, y2))
                inside = box_distance(lo, hi, mid) <= snap
                if inside and K.member_predicate is not None:
                    inside = K.member_predicate(x_map, mid)
                if not inside:
                    witness = {"x": x, "y1": y1, "y2": y2, "lambda": lam, "combination": mid}
                    return TopologyProbeReport(FAIL, witness, (), samples)
    return TopologyProbeReport(NO_VIOLATION_FOUND, None, (), samples)


_EXACT_UNIT2 = CompactBox((Root2(0), Root2(0)), (Root2(1), Root2(1)))
_CONVEX_MAPS = {
    **{f"random-1d-{s}": lambda s=s: (random_instance(s, 1).K, (101,)) for s in (3000, 3003)},
    **{f"random-2d-{s}": lambda s=s: (random_instance(s, 2).K, (41, 41)) for s in (3101, 3110)},
    "box-3d": lambda: (_box_map_3d(1), (9, 9, 9)),
    # axis 1 has zero width for x_1 <= 1/2 and axis 2 everywhere: the lattice points have 1 or 7 samples
    "zero-width": lambda: (
        _expression_map(CompactBox((0.0, 0.0), (1.0, 1.0)), ["0.2", "0.3"], ["piecewise(x_1 <= 0.5, 0.2, 0.8)", "0.3"]),
        (21, 21),
    ),
    "exact": lambda: (get_instance("remark").K, (11,)),
    # exact scalars have no membership snap: a float combination one ulp below 1/10 FAILs through the batch path
    "exact-rounding": lambda: (
        SetValuedMap(_EXACT_UNIT2, [lambda x: Root2(Fraction(1, 10))] * 2, [lambda x: Root2(Fraction(7, 10))] * 2),
        (5, 5),
    ),
    # far from the origin the snap, 1e-12 x the diameter, is below an ulp (~1.2e-10): a float FAIL through the batch
    # screen, at sample 388, as the loop gives it
    "off-origin": lambda: (
        _expression_map(
            CompactBox((1e6, 1e6), (1e6 + 1, 1e6 + 1)), ["1000000.1", "x_1 - 0.25"], ["1000000.7", "x_1 + 0.25"]
        ),
        (11, 11),
    ),
    # the loop alone: a member predicate, which breaks convexity
    "union": lambda: (
        SetValuedMap(CompactBox((0.0,), (1.0,)), [lambda x: 0.0], [lambda x: 1.0],
                     member_predicate=lambda x, z: z[0] <= 0.2 or z[0] >= 0.8),
        (101,),
    ),
}


class TestConvexValuesBatchDifferential:
    """The batch path of convex_values gives the report of the probe-by-probe loop."""

    @pytest.mark.parametrize("name", sorted(_CONVEX_MAPS))
    def test_reports_equal_the_loop(self, name):
        K, ppa = _CONVEX_MAPS[name]()
        grid = Grid(K.domain, ppa)
        assert _outcome(check_convex_values, K, grid) == _outcome(reference_check_convex_values, K, grid)

    def test_ragged_and_failing_cases(self):
        K, ppa = _CONVEX_MAPS["zero-width"]()
        grid = Grid(K.domain, ppa)
        counts = {len(_member_samples(K, x_map, lo, hi, grid)) for _, x_map, lo, hi in sampling.lattice_regions(K, grid)}
        assert counts == {1, 7}
        for name in ("exact-rounding", "union", "off-origin"):
            K, ppa = _CONVEX_MAPS[name]()
            assert check_convex_values(K, Grid(K.domain, ppa)).verdict == FAIL

    def test_only_the_flagged_probes_replay(self, monkeypatch):
        # the batch screens every probe; the loop's scan runs over the rows it does not show inside, not all of them
        K, ppa = _CONVEX_MAPS["off-origin"]()
        scanned = []
        first_witness = sampling.first_witness
        monkeypatch.setattr(
            sampling, "first_witness", lambda n, probe, unclear: scanned.append((n, unclear)) or first_witness(n, probe, unclear)
        )
        assert check_convex_values(K, Grid(K.domain, ppa)).samples_used == 388
        assert all(unclear is not None for _n, unclear in scanned)
        assert sum(int(unclear.sum()) for _n, unclear in scanned) < sum(n for n, _unclear in scanned)
