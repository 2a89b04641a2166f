import dataclasses
import random

import numpy as np
import pytest

from quasieq.bifunction import Bifunction, ObjectiveFunction, QviOperator, make_opt_bifunction, make_qvi_bifunction
from quasieq.catalog import (
    figure1_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    random_instance,
)
from quasieq.errors import DegenerateImageError, NonFiniteValueError
from quasieq.expressions import parse_expression
from quasieq.geometry import CompactBox, Grid, grid_points
from quasieq.setmap import NO_VIOLATION_FOUND, SetValuedMap, evaluate, fixed_point_set, image_grid
from quasieq.solver import (
    SolverConfig,
    check_lemma_equivalence,
    qopt_gap,
    smap,
    smap_closed_graph_probe,
    solve_ep,
    solve_qep,
    solve_qopt,
    verify_theorem_instance,
)

C01 = CompactBox((0.0,), (1.0,))


def cfg_for(box_or_inst, m, eps=1e-6, delta=0.0):
    box = box_or_inst if isinstance(box_or_inst, CompactBox) else box_or_inst.C
    return SolverConfig(Grid(box, (m,) * box.dim), eps, delta)


class TestSmap:
    def test_vacuous_condition_keeps_all(self):
        f = Bifunction(lambda x, y: 0.0, "real", "direct-expression", C01)
        K = SetValuedMap.constant(C01)
        cfg = cfg_for(C01, 11)
        res = smap(f, K, (0.0,), cfg)
        assert list(res.members) == grid_points(cfg.grid)

    def test_w_shape_argmin_on_high_image(self):
        inst = figure1_instance()
        f = inst.bifunction()
        cfg = cfg_for(inst, 2001)
        res = smap(f, inst.K, (0.0,), cfg)
        # oracle: exhaustive minimization of h over the image grid [1.5, 2]
        h = inst.payload.fn
        pts = image_grid(inst.K, (0.0,), cfg.grid)
        best = min(h(p) for p in pts)
        expected = [p for p in pts if h(p) <= best + cfg.eps_value]
        assert list(res.members) == expected == [(1.5,)]

    def test_parabola_unique_member(self):
        inst = quasiconvex_variant_instance()
        f = inst.bifunction()
        cfg = cfg_for(inst, 2001)
        res = smap(f, inst.K, (1.0,), cfg)
        assert list(res.members) == [(1.0,)]

    def test_empty_image_raises(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: 0.26], [lambda x: 0.37])
        f = Bifunction(lambda x, y: 0.0, "real", "direct-expression", C)
        with pytest.raises(DegenerateImageError):
            smap(f, K, (0.0,), cfg_for(C, 3))


class TestSolveQep:
    def test_translation_bifunction_lower_corner(self):
        T = QviOperator.constant([(1.0,)])
        f = make_qvi_bifunction(T, C01)
        K = SetValuedMap.constant(C01)
        rep = solve_qep(f, K, cfg_for(C01, 101, eps=0.0))
        assert [r.point for r in rep.solutions] == [(0.0,)]

    def test_parabola_unique_on_grid(self):
        inst = quasiconvex_variant_instance()
        rep = solve_qep(inst.bifunction(), inst.K, cfg_for(inst, 2001, eps=1e-6))
        assert [r.point for r in rep.solutions] == [(1.0,)]

    def test_w_shape_empty(self):
        inst = figure1_instance()
        rep = solve_qep(inst.bifunction(), inst.K, cfg_for(inst, 2001, eps=0.05))
        assert rep.solutions == ()

    def test_brute_force_cross_check(self):
        # independent oracle: pure per-pair evaluation without any batch path
        inst = random_instance(21, 1)
        cfg = cfg_for(inst, 101, eps=inst.eps_default)
        fast = solve_qep(inst.bifunction(), inst.K, cfg)
        g = cfg.grid
        snap = inst.C.snap()
        h = inst.payload.fn
        expected = []
        for x in grid_points(g):
            if evaluate(inst.K, x).distance_to(x) > cfg.delta_membership + snap:
                continue
            pts = image_grid(inst.K, x, g)
            if not pts:
                continue
            if min(h(y) - h(x) for y in pts) >= -cfg.eps_value:
                expected.append(x)
        assert [r.point for r in fast.solutions] == expected


class TestSolveEp:
    def test_parabola_global_minimum(self):
        h = ObjectiveFunction.from_expression(parse_expression("power(x_1 - 1, 2)"))
        C = CompactBox((0.0,), (2.0,))
        f = make_opt_bifunction(h, C)
        rep = solve_ep(f, C, SolverConfig(Grid(C, (2001,)), 1e-6, 0.0))
        assert [r.point for r in rep.solutions] == [(1.0,)]

    def test_zero_bifunction_everything(self):
        f = Bifunction(lambda x, y: 0.0, "real", "direct-expression", C01)
        cfg = cfg_for(C01, 21)
        rep = solve_ep(f, C01, cfg)
        assert [r.point for r in rep.solutions] == grid_points(cfg.grid)

    def test_w_shape_two_global_minimizers(self):
        inst = figure1_instance()
        f = inst.bifunction()
        rep = solve_ep(f, inst.C, cfg_for(inst, 2001, eps=1e-6))
        assert [r.point for r in rep.solutions] == [(0.5,), (1.5,)]

    def test_matches_qep_with_constant_map(self):
        inst = figure1_instance()
        f = inst.bifunction()
        cfg = cfg_for(inst, 201, eps=1e-6)
        ep = solve_ep(f, inst.C, cfg)
        qep = solve_qep(f, SetValuedMap.constant(inst.C), cfg)
        assert dataclasses.replace(ep, problem_kind=qep.problem_kind) == qep


class TestQoptGap:
    def test_left_fixed_endpoint(self):
        inst = figure1_instance()
        cfg = cfg_for(inst, 2001)
        # h(0.6) = 0.1 and the image [0.6, 2] contains the zero of h at 1.5
        assert qopt_gap(inst.payload, inst.K, (0.6,), cfg) == pytest.approx(0.1, abs=1e-9)

    def test_right_fixed_endpoint(self):
        inst = figure1_instance()
        cfg = cfg_for(inst, 2001)
        # symmetric: image [0, 1.4] contains the zero at 0.5
        assert qopt_gap(inst.payload, inst.K, (1.4,), cfg) == pytest.approx(0.1, abs=1e-9)

    def test_parabola_zero_gap_at_one(self):
        inst = quasiconvex_variant_instance()
        cfg = cfg_for(inst, 2001)
        assert qopt_gap(inst.payload, inst.K, (1.0,), cfg) == 0.0

    def test_degenerate_image_raises(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: 0.26], [lambda x: 0.37])
        h = ObjectiveFunction(lambda x: x[0])
        with pytest.raises(DegenerateImageError):
            qopt_gap(h, K, (0.0,), cfg_for(C, 3))


class TestSolveQopt:
    def test_w_shape_no_solution_with_gap_floor(self):
        inst = figure1_instance()
        rep = solve_qopt(inst.payload, inst.K, cfg_for(inst, 2001, eps=0.05))
        assert rep.solutions == ()
        assert 0.095 <= rep.min_gap_over_fixed_points <= 0.105

    def test_parabola_unique(self):
        inst = quasiconvex_variant_instance()
        rep = solve_qopt(inst.payload, inst.K, cfg_for(inst, 2001, eps=1e-6))
        assert [r.point for r in rep.solutions] == [(1.0,)]
        assert rep.solutions[0].gap == 0.0

    def test_identity_singleton_map_everything_solves(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: x[0]], [lambda x: x[0]])
        h = ObjectiveFunction(lambda x: (x[0] - 0.3) ** 2)
        cfg = cfg_for(C, 21, eps=0.0)
        rep = solve_qopt(h, K, cfg)
        assert [r.point for r in rep.solutions] == grid_points(cfg.grid)
        assert all(r.gap == 0.0 for r in rep.solutions)

    def test_map_evaluated_once_per_grid_point(self):
        calls = []
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: calls.append(x) or x[0]], [lambda x: x[0]])
        h = ObjectiveFunction(lambda x: (x[0] - 0.3) ** 2)
        rep = solve_qopt(h, K, SolverConfig(Grid(C, (1001,)), 0.0, 0.0))
        assert len(rep.solutions) == 1001
        assert len(calls) == 1001


class TestNonFinite:
    @staticmethod
    def _overflowing():
        h = ObjectiveFunction.from_expression(parse_expression("power(x_1, 2000) - power(x_1, 2000)"))
        C = CompactBox((0.0,), (2.0,))
        return h, SetValuedMap.constant(C), cfg_for(C, 21)

    def test_qopt_names_first_offending_point(self):
        h, K, cfg = self._overflowing()
        with pytest.raises(NonFiniteValueError, match=r"objective is not finite at grid point \(1\.5,\)"):
            solve_qopt(h, K, cfg)

    def test_qep_adapter_names_first_offending_point(self):
        h, K, cfg = self._overflowing()
        with pytest.raises(NonFiniteValueError, match=r"\(1\.5,\)"):
            solve_qep(make_opt_bifunction(h, K.domain), K, cfg)

    def test_row_minimum_names_its_point(self):
        f = Bifunction(
            lambda x, y: 0.0, "real", "direct-expression", C01,
            row_fn=lambda x, Y: np.full(len(Y), np.nan if x[0] > 0.6 else 0.0),
        )
        with pytest.raises(NonFiniteValueError, match=r"is nan at grid point \(0\.75,\)"):
            solve_qep(f, SetValuedMap.constant(C01), cfg_for(C01, 5))

    def test_nan_map_bound_is_named(self):
        K = SetValuedMap.from_expressions(
            C01, [parse_expression("x_1 - 0.1")], [parse_expression("power(10*x_1, 400) - power(10*x_1, 400)")]
        )
        h = ObjectiveFunction.from_expression(parse_expression("x_1"))
        with pytest.raises(NonFiniteValueError, match="map bound"):
            solve_qopt(h, K, cfg_for(C01, 11))

    def test_scalar_overflow_is_named(self):
        h, _K, _cfg = self._overflowing()
        with pytest.raises(NonFiniteValueError, match="overflows"):
            h((2.0,))


class TestLemmaEquivalence:
    def test_w_shape_both_empty(self):
        inst = figure1_instance()
        assert check_lemma_equivalence(inst.payload, inst.K, cfg_for(inst, 2001, eps=0.05))

    def test_parabola_both_unique(self):
        inst = quasiconvex_variant_instance()
        assert check_lemma_equivalence(inst.payload, inst.K, cfg_for(inst, 2001, eps=1e-6))

    def test_random_instances(self):
        for seed in range(15):
            inst = random_instance(seed, 1 if seed % 3 else 2)
            assert check_lemma_equivalence(inst.payload, inst.K, inst.config())


class TestVerifyTheoremInstance:
    def test_parabola_all_clean_nonempty(self):
        inst = quasiconvex_variant_instance()
        rep = verify_theorem_instance(inst, inst.config())
        assert all(v == NO_VIOLATION_FOUND for v in rep.verdicts().values())
        assert rep.solve_report.solutions and not rep.anomaly

    def test_w_shape_failed_check_explains_emptiness(self):
        inst = figure1_instance()
        rep = verify_theorem_instance(inst, inst.config(eps=0.05))
        assert rep.checks["condition_ii"].verdict == "FAIL"
        assert not rep.solve_report.solutions
        assert not rep.anomaly

    def test_random_instance_clean(self):
        inst = random_instance(40, 1)
        rep = verify_theorem_instance(inst, inst.config())
        assert not rep.anomaly and rep.solve_report.solutions

    def test_two_point_grid_triggers_anomaly(self):
        # the coarse grid has no near-fixed points, so the solution set is
        # empty while every sampled check stays clean
        inst = quasiconvex_variant_instance()
        rep = verify_theorem_instance(inst, inst.config(points_per_axis=(2,)))
        assert all(v == NO_VIOLATION_FOUND for v in rep.verdicts().values())
        assert rep.anomaly


class TestSolverInvariants:
    def test_smap_qep_consistency_at_zero_delta(self):
        inst = quasiconvex_variant_instance()
        cfg = cfg_for(inst, 201, eps=1e-6, delta=0.0)
        f = inst.bifunction()
        rep = solve_qep(f, inst.K, cfg)
        sols = {r.point for r in rep.solutions}
        snap = inst.C.snap()
        for x in grid_points(cfg.grid):
            near_fixed = evaluate(inst.K, x).distance_to(x) <= snap
            in_members = near_fixed and x in smap(f, inst.K, x, cfg).members
            assert (x in sols) == in_members

    def test_solutions_reverify_within_tolerance(self):
        inst = random_instance(8, 1)
        cfg = inst.config()
        f = inst.bifunction()
        rep = solve_qep(f, inst.K, cfg)
        assert rep.solutions
        for rec in rep.solutions:
            region = evaluate(inst.K, rec.point)
            assert abs(float(region.distance_to(rec.point)) - rec.membership_residual) <= 1e-12
            pts = image_grid(inst.K, rec.point, cfg.grid)
            direct = min(f.fn(rec.point, y) for y in pts)
            assert abs(direct - rec.min_f) <= 1e-12
            assert rec.min_f >= -cfg.eps_value

    def test_eps_monotonicity(self):
        inst = random_instance(5, 1)
        grid = inst.grid()
        f = inst.bifunction()
        prev: set = set()
        for eps in (0.0, 1e-6, 1e-3, 1e-1):
            rep = solve_qep(f, inst.K, SolverConfig(grid, eps, 0.0))
            cur = {r.point for r in rep.solutions}
            assert prev <= cur
            prev = cur

    def test_selection_map_graph_closed_probe(self):
        # continuous objective + continuous bounds imply a closed selection map
        for inst in (quasiconvex_variant_instance(), figure1_instance()):
            cfg = cfg_for(inst, 401, eps=1e-6)
            rep = smap_closed_graph_probe(inst.bifunction(), inst.K, cfg)
            assert rep.verdict == NO_VIOLATION_FOUND

    def test_qvi_scaling_leaves_zero_tolerance_solutions(self):
        for seed in (0, 3, 4):
            inst = qvi_instance(seed)
            cfg = inst.config(eps=0.0)
            base = solve_qep(make_qvi_bifunction(inst.payload, inst.C), inst.K, cfg)
            for lam in (2.0, 10.0):
                scaled = make_qvi_bifunction(inst.payload.scaled(lam), inst.C)
                rep = solve_qep(scaled, inst.K, cfg)
                assert [r.point for r in rep.solutions] == [r.point for r in base.solutions]

    @pytest.mark.parametrize("seed, dim, m", [(13, 1, 101), (1004, 2, 41)], ids=["1d", "2d"])
    def test_row_min_path_matches_pure_eval(self, seed, dim, m):
        inst = random_instance(seed, dim)
        cfg = cfg_for(inst, m, eps=inst.eps_default)
        f = inst.bifunction()
        pure = Bifunction(f.fn, f.scalar_kind, f.provenance, f.domain)
        a = solve_qep(f, inst.K, cfg)
        b = solve_qep(pure, inst.K, cfg)
        q = solve_qopt(inst.payload, inst.K, cfg)
        assert a.solutions
        assert [(r.point, r.min_f) for r in a.solutions] == [(r.point, r.min_f) for r in b.solutions]
        assert [(r.point, r.min_f) for r in a.solutions] == [(r.point, -r.gap) for r in q.solutions]
