import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasieq import solver
from quasieq.bifunction import (
    Bifunction,
    ObjectiveFunction,
    QviOperator,
    make_opt_bifunction,
    make_qvi_bifunction,
)
from quasieq.catalog import (
    figure1_instance,
    get_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    random_instance,
)
from quasieq.cli import main
from quasieq.errors import DegenerateImageError, InstanceDefinitionError, NonFiniteValueError
from quasieq.expressions import parse_expression
from quasieq.geometry import CompactBox, Grid, Root2, grid_coords, grid_points
from quasieq.setmap import (
    NO_VIOLATION_FOUND,
    SetValuedMap,
    evaluate,
    fixed_table,
    image_grid,
)
from quasieq.reporting import report_to_json
from quasieq.solver import (
    QOPT,
    SolutionRecord,
    SolverConfig,
    SolveReport,
    _range_minima,
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


class TestSolverConfig:
    @pytest.mark.parametrize("eps, delta", [(float("nan"), 0.0), (1e-6, float("nan")), (-1e-6, 0.0), (0.0, -0.1)])
    def test_refuses_a_tolerance_that_is_not_nonnegative(self, eps, delta):
        with pytest.raises(ValueError, match="nonnegative"):
            SolverConfig(Grid(C01, (11,)), eps, delta)


class TestSmap:
    def test_vacuous_condition_keeps_all(self):
        f = Bifunction(lambda x, y: 0.0, C01)
        K = SetValuedMap.constant(C01)
        cfg = cfg_for(C01, 11)
        res = smap(f, K, (0.0,), cfg)
        assert list(res) == grid_points(cfg.grid)

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
        assert list(res) == expected == [(1.5,)]

    def test_parabola_unique_member(self):
        inst = quasiconvex_variant_instance()
        f = inst.bifunction()
        cfg = cfg_for(inst, 2001)
        res = smap(f, inst.K, (1.0,), cfg)
        assert list(res) == [(1.0,)]

    def test_empty_image_raises(self):
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap(C, [lambda x: 0.26], [lambda x: 0.37])
        f = Bifunction(lambda x, y: 0.0, C)
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
        h = ObjectiveFunction(parse_expression("power(x_1 - 1, 2)"))
        C = CompactBox((0.0,), (2.0,))
        f = make_opt_bifunction(h, C)
        rep = solve_ep(f, C, SolverConfig(Grid(C, (2001,)), 1e-6, 0.0))
        assert [r.point for r in rep.solutions] == [(1.0,)]

    def test_zero_bifunction_everything(self):
        f = Bifunction(lambda x, y: 0.0, C01)
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

    def test_points_reach_reports_as_python_floats(self):
        inst = random_instance(2, 2)
        cfg = inst.config()
        reps = (solve_qopt(inst.payload, inst.K, cfg), solve_qep(inst.bifunction(), inst.K, cfg))
        points = [r.point for rep in reps for r in rep.solutions]
        points += smap(inst.bifunction(), inst.K, points[0], cfg)
        assert all(type(c) is float for p in points for c in p)

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
        h = ObjectiveFunction(parse_expression("power(x_1, 2000) - power(x_1, 2000)"))
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
        f = Bifunction(lambda x, y: math.nan if x[0] > 0.6 else 0.0, C01)
        with pytest.raises(NonFiniteValueError, match=r"is nan at grid point \(0\.75,\)"):
            solve_qep(f, SetValuedMap.constant(C01), cfg_for(C01, 5))

    def test_nan_map_bound_is_named(self):
        K = SetValuedMap(
            C01, [parse_expression("x_1 - 0.1")], [parse_expression("power(10*x_1, 400) - power(10*x_1, 400)")]
        )
        h = ObjectiveFunction(parse_expression("x_1"))
        with pytest.raises(NonFiniteValueError, match="map bound"):
            solve_qopt(h, K, cfg_for(C01, 11))

    def test_nan_callable_bound_is_named(self):
        K = SetValuedMap(C01, [lambda x: float("nan") if x[0] > 0.6 else 0.0], [lambda x: 1.0])
        h = ObjectiveFunction(lambda x: x[0])
        with pytest.raises(NonFiniteValueError, match=r"map bound is not finite at grid point \(0\.75,\)"):
            solve_qopt(h, K, cfg_for(C01, 5))

    def test_nan_bound_of_one_image_is_named(self):
        K = SetValuedMap(C01, [lambda x: float("nan") if x[0] > 0.6 else 0.0], [lambda x: 1.0])
        h = ObjectiveFunction(lambda x: x[0])
        with pytest.raises(NonFiniteValueError, match=r"map bound is not finite at \(0\.75,\)"):
            qopt_gap(h, K, (0.75,), cfg_for(C01, 5))

    def test_infinite_bound_is_named_before_clipping(self):
        # clipped to the domain, the upper bound would read 1.0 at every point
        K = SetValuedMap(C01, [lambda x: 0.0], [lambda x: math.inf if x[0] > 0.6 else 1.0])
        h = ObjectiveFunction(lambda x: x[0])
        with pytest.raises(NonFiniteValueError, match=r"map bound is not finite at grid point \(0\.75,\)"):
            solve_qopt(h, K, cfg_for(C01, 5))
        with pytest.raises(NonFiniteValueError, match=r"map bound is not finite at \(0\.75,\) on axis 1: \[0\.0, inf\]"):
            qopt_gap(h, K, (0.75,), cfg_for(C01, 5))

    def test_scalar_overflow_is_named(self):
        h, _K, _cfg = self._overflowing()
        with pytest.raises(NonFiniteValueError, match="overflows"):
            h((2.0,))


class TestOneBoundsPath:
    """Float maps have one bounds path: callables and expressions give the same reports."""

    BOUNDS = {
        1: (["(0.3 + 0.4*x_1) - 0.15"], ["(0.3 + 0.4*x_1) + 0.15"]),
        2: (
            ["(0.45 + 0.1*x_2) - 0.3", "(0.55 - 0.15*x_1) - 0.25"],
            ["(0.45 + 0.1*x_2) + 0.3", "(0.55 - 0.15*x_1) + 0.25"],
        ),
        3: (
            ["(0.45 + 0.1*x_2) - 0.3", "(0.55 - 0.15*x_3) - 0.25", "(0.5 + 0.1*x_1) - 0.3"],
            ["(0.45 + 0.1*x_2) + 0.3", "(0.55 - 0.15*x_3) + 0.25", "(0.5 + 0.1*x_1) + 0.3"],
        ),
    }
    OBJECTIVE = {
        1: "abs(x_1 - 0.6)",
        2: "abs(x_1 - 0.4) + abs(x_2 - 0.6)",
        3: "abs(x_1 - 0.4) + abs(x_2 - 0.6) + abs(x_3 - 0.5)",
    }
    FIELD = {
        1: "(0.6*x_1 - 0.1)*(y_1 - x_1)",
        2: "(0.6*x_1 - 0.4*x_2 + 0.1)*(y_1 - x_1) + (-0.3*x_1 + 0.8*x_2 - 0.2)*(y_2 - x_2)",
        3: "(0.6*x_1 - 0.4*x_2 + 0.1)*(y_1 - x_1) + (-0.3*x_1 + 0.8*x_2 - 0.2)*(y_2 - x_2)"
        " + (0.2*x_2 + 0.7*x_3 - 0.35)*(y_3 - x_3)",
    }
    GRIDS = [(1, 201), (2, 31), (3, 9)]

    @classmethod
    def _problem(cls, dim, m):
        C = CompactBox((0.0,) * dim, (1.0,) * dim)
        lower, upper = cls.BOUNDS[dim]
        K = SetValuedMap(C, [parse_expression(t) for t in lower], [parse_expression(t) for t in upper])
        return K, SolverConfig(Grid(C, (m,) * dim), 0.05, 0.01)

    @classmethod
    def _solve(cls, payload, dim, K, cfg):
        h = ObjectiveFunction(parse_expression(cls.OBJECTIVE[dim]))
        if payload == "qopt":
            return solve_qopt(h, K, cfg)
        if payload == "opt-adapter":
            return solve_qep(make_opt_bifunction(h, K.domain), K, cfg)
        field = parse_expression(cls.FIELD[dim])
        return solve_qep(Bifunction(field, K.domain), K, cfg)

    @pytest.mark.parametrize("payload", ["qopt", "opt-adapter", "affine-field"])
    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_callable_twin_matches_expression_map(self, payload, dim, m):
        K_expr, cfg = self._problem(dim, m)
        calls = []
        # the scalar evaluations wrapped in plain callables, so bounds_batch takes its per-row branch
        K_call = SetValuedMap(
            K_expr.domain,
            [lambda x, e=e: calls.append(x) or e(x) for e in K_expr.lower_fns],
            [lambda x, e=e: calls.append(x) or e(x) for e in K_expr.upper_fns],
        )
        expr_report = self._solve(payload, dim, K_expr, cfg)
        assert expr_report.solutions
        assert not calls
        call_report = self._solve(payload, dim, K_call, cfg)
        assert len(calls) == 2 * dim * m**dim  # every bound once per grid point
        assert report_to_json(call_report) == report_to_json(expr_report)

    @pytest.mark.parametrize("dim, m", GRIDS)
    def test_callable_field_matches_expression_field(self, dim, m):
        K, cfg = self._problem(dim, m)
        field = parse_expression(self.FIELD[dim])
        calls = []
        f_call = Bifunction(lambda x, y: calls.append(y) or field(x, y), K.domain)  # Bifunction.row's per-point loop
        expr_report = solve_qep(Bifunction(field, K.domain), K, cfg)
        assert expr_report.solutions
        assert not calls
        call_report = solve_qep(f_call, K, cfg)
        assert calls
        assert report_to_json(call_report) == report_to_json(expr_report)

    def test_empty_expression_image_raises(self):
        K = SetValuedMap(
            C01, [parse_expression("0")], [parse_expression("1000*abs(x_1 - 0.5005) - 0.1")]
        )
        h = ObjectiveFunction(parse_expression("abs(x_1 - 0.25)"))
        assert solve_qopt(h, K, cfg_for(C01, 201)).solutions
        with pytest.raises(InstanceDefinitionError, match=r"image of grid point \(0\.5005"):
            solve_qopt(h, K, cfg_for(C01, 2001))


def _bits(values):
    """Values and signs, so that 0.0 and -0.0 differ."""
    return [(float(v), math.copysign(1.0, v)) for v in values]


def _slice_reports(h, K, cfg):
    """The QOpt and opt-adapter reports with one slice minimum of the table of h per fixed point: the reference."""
    X = grid_coords(cfg.grid)
    table = h.eval_batch(X)
    shaped = table.reshape(cfg.grid.points_per_axis)
    eps = cfg.eps_value
    qopt, qep, min_gap, degenerate = [], [], None, 0
    fixed, residuals, spans = fixed_table(K, cfg.grid, cfg.delta_membership)
    for i, r, span in zip(fixed, residuals, spans):
        if any(s >= e for s, e in span):
            degenerate += 1
            continue
        x = tuple(X[:, i].tolist())
        m = shaped[tuple(slice(s, e) for s, e in span)].min()
        gap, min_f = float(table[i] - m), float(m - table[i])
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if gap <= eps:
            qopt.append(SolutionRecord(x, float(r), -gap, gap=gap))
        if min_f >= -eps:
            qep.append(SolutionRecord(x, float(r), min_f))
    return (
        SolveReport(QOPT, tuple(qopt), cfg.echo(), min_gap, degenerate),
        SolveReport("QEP", tuple(qep), cfg.echo(), degenerate_points=degenerate),
    )


class TestRangeMinima:
    """The sparse-table inner minimum of separable scans against the slice minimum it replaced."""

    @staticmethod
    def _slice_minima(table, spans):
        return [table[tuple(slice(s, e) for s, e in span)].min() for span in spans]

    @pytest.mark.parametrize("shape", [(300,), (1, 40), (40, 1), (25, 25), (9, 1, 9), (12, 12, 12)])
    @pytest.mark.parametrize("kind", ["normal", "mixed-zeros", "root2"])
    def test_random_boxes_match_slice_minimum(self, shape, kind):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        if kind == "root2":  # exact values with repeats, an exact zero among them
            values = [Root2(0), Root2(1, -1), Root2(-1, 1), Root2(Fraction(1, 2)), Root2(Fraction(-1, 3), Fraction(1, 4))]
            table = np.array(values, dtype=object)[rng.integers(0, len(values), size=shape)]
        else:
            table = rng.choice([0.0, -0.0, 1.5, 2.0], size=shape) if kind == "mixed-zeros" else rng.normal(size=shape)
        queries = 200 if kind == "root2" else 1500
        starts = np.stack([rng.integers(0, n, queries) for n in shape], axis=1)
        stops = np.stack([rng.integers(starts[:, k] + 1, n + 1) for k, n in enumerate(shape)], axis=1)
        spans = np.stack([starts, stops], axis=2)
        mins = _range_minima(table, spans)
        if kind == "root2":
            assert mins.dtype == object
            assert list(mins) == [min(table[tuple(slice(s, e) for s, e in span)].flat) for span in spans]
        else:
            assert _bits(mins) == _bits(self._slice_minima(table, spans))

    @staticmethod
    def _case(name):
        """(h, K, points per axis, delta) of one seeded instance."""
        if name.startswith("random"):
            inst = random_instance(13, 1) if name == "random-1d" else random_instance(1004, 2)
            return inst.payload, inst.K, 401 if name == "random-1d" else 61, 0.0
        dim = int(name[-2])
        h = ObjectiveFunction(parse_expression(TestOneBoundsPath.OBJECTIVE[dim]))
        if name == "box-3d":
            return h, TestOneBoundsPath._problem(3, 13)[0], 13, 0.01
        # images 0.6 grid steps wide: many hold no grid point, the others one on each axis
        m = {1: 201, 2: 21, 3: 11}[dim]
        C = CompactBox((0.0,) * dim, (1.0,) * dim)
        lower = [parse_expression(f"0.3 + 0.37*x_{k % dim + 1}") for k in range(1, dim + 1)]
        upper = [parse_expression(f"0.3 + 0.37*x_{k % dim + 1} + {0.6 / (m - 1)!r}") for k in range(1, dim + 1)]
        return h, SetValuedMap(C, lower, upper), m, 0.6

    @pytest.mark.parametrize("case", ["random-1d", "random-2d", "box-3d", "narrow-1d", "narrow-2d", "narrow-3d"])
    def test_every_fixed_point_matches_slice_minimum(self, case):
        h, K, m, delta = self._case(case)
        cfg = SolverConfig(Grid(K.domain, (m,) * K.domain.dim), 0.05, delta)
        X = grid_coords(cfg.grid)
        table = h.eval_batch(X).reshape(cfg.grid.points_per_axis)
        _fixed, _residuals, spans = fixed_table(K, cfg.grid, delta)
        held = spans[(spans[:, :, 0] < spans[:, :, 1]).all(axis=1)]
        assert len(held) > 100
        if case.startswith("narrow"):
            assert len(held) < len(spans)  # degenerate images
            assert (held[:, :, 1] - held[:, :, 0] == 1).any()  # images one grid point wide on an axis
        assert _bits(_range_minima(table, held)) == _bits(self._slice_minima(table, held))
        qopt = solve_qopt(h, K, cfg)
        qep = solve_qep(make_opt_bifunction(h, K.domain), K, cfg)
        assert qopt.solutions
        assert [r.point for r in qep.solutions] == [r.point for r in qopt.solutions]

    @pytest.mark.parametrize("dim, m", TestOneBoundsPath.GRIDS)
    def test_mixed_zero_objective_reports_match_slice_path(self, dim, m):
        # both zero signs in the table, so zero minima are ties between 0.0 and -0.0
        def h_fn(x):
            s = sum(x)
            return math.copysign(0.0, math.sin(37.0 * s + 11.0 * x[0])) if s < 0.7 * dim else s

        h = ObjectiveFunction(h_fn)
        K, cfg = TestOneBoundsPath._problem(dim, m)
        qopt_ref, qep_ref = _slice_reports(h, K, cfg)
        signs = [math.copysign(1.0, v) for v in [r.gap for r in qopt_ref.solutions] + [r.min_f for r in qep_ref.solutions]]
        assert -1.0 in signs and qopt_ref.solutions and qep_ref.solutions
        assert report_to_json(solve_qopt(h, K, cfg)) == report_to_json(qopt_ref)
        assert report_to_json(solve_qep(make_opt_bifunction(h, K.domain), K, cfg)) == report_to_json(qep_ref)

    def test_overflowing_gap_names_first_point(self):
        C = CompactBox((0.0, 0.0), (1.0, 1.0))
        special = {(0.25, 0.75): 1e308, (0.5, 0.25): 1e308, (0.75, 0.0): -1e308}
        h = ObjectiveFunction(lambda x: special.get(tuple(x), 0.0))
        K, cfg = SetValuedMap.constant(C), cfg_for(C, 5)
        with pytest.raises(NonFiniteValueError, match=r"the gap is inf at grid point \(0\.25, 0\.75\)"):
            solve_qopt(h, K, cfg)
        with pytest.raises(NonFiniteValueError, match=r"over K\(x\) is -inf at grid point \(0\.25, 0\.75\)"):
            solve_qep(make_opt_bifunction(h, C), K, cfg)

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_min_gap_tie_keeps_the_first_zero(self, first):
        # K(x) is the next grid point (the last maps to itself); the gaps are
        # h(x_i) - h(x_i+1): `first`, then -first's zero, then positive
        heights = [first, -first, 0.0] + [-float(k) for k in range(1, 8)] + [-8.0]
        h = ObjectiveFunction(lambda x: heights[round(10 * x[0])])
        step = [lambda x: min(x[0] + 0.1, 1.0)]
        K = SetValuedMap(C01, step, step)
        rep = solve_qopt(h, K, cfg_for(C01, 11, eps=0.0, delta=0.15))
        expected = first - (-first)
        assert _bits([rep.min_gap_over_fixed_points]) == _bits([expected])
        assert _bits([r.gap for r in rep.solutions][:2]) == _bits([expected, -first - 0.0])


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

    def test_exact_gap_decides_where_its_float_has_the_wrong_sign(self):
        # h(0) = (a + b sqrt(2)) / 2**1100 with a**2 - 2 b**2 = 1: exact and positive, but its float underflows to
        # 0.0, so a decision on the float gaps would keep all three grid points; the exact one keeps [1/2, 1]
        tiny = Root2(1023286908188737, -723573111879672) / 2**1100
        assert tiny > 0 and float(tiny) == 0.0
        box = CompactBox((Root2(0),), (Root2(1),))
        h = ObjectiveFunction(lambda x: tiny if x[0] == 0 else Root2(0))
        cfg = SolverConfig(Grid(box, (3,)), 0.0, 0.0)
        rep = solve_qopt(h, SetValuedMap.constant(box), cfg)
        assert [r.point for r in rep.solutions] == grid_points(cfg.grid)[1:]
        assert rep.min_gap_over_fixed_points == 0.0
        assert check_lemma_equivalence(h, SetValuedMap.constant(box), cfg)


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
            in_members = near_fixed and x in smap(f, inst.K, x, cfg)
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

    def test_selection_map_probe_with_no_image_on_the_grid(self):
        # K(x) = [0.123, 0.124] holds no point of the 11-point grid: every member set is empty, so nothing approaches
        K = SetValuedMap(C01, [parse_expression("0.123")], [parse_expression("0.124")])
        rep = smap_closed_graph_probe(Bifunction(parse_expression("y_1 - x_1"), C01), K, cfg_for(C01, 11))
        assert (rep.verdict, rep.witness, rep.samples_used) == (NO_VIOLATION_FOUND, None, 121)

    def test_qvi_scaling_leaves_zero_tolerance_solutions(self):
        for seed in (0, 3, 4):
            inst = qvi_instance(seed)
            cfg = inst.config(eps=0.0)
            base = solve_qep(make_qvi_bifunction(inst.payload, inst.C), inst.K, cfg)
            for lam in (2.0, 10.0):
                scaled = make_qvi_bifunction(inst.payload.scaled(lam), inst.C)
                rep = solve_qep(scaled, inst.K, cfg)
                assert [r.point for r in rep.solutions] == [r.point for r in base.solutions]

    @staticmethod
    def _separable_case(case):
        """(h, K, cfg) of a seeded float instance or of an exact moving-box problem."""
        if case in ("1d", "2d"):
            inst = random_instance(13, 1) if case == "1d" else random_instance(1004, 2)
            return inst.payload, inst.K, cfg_for(inst, 101 if case == "1d" else 41, eps=inst.eps_default)
        box = CompactBox((Root2(0),), (Root2(1),))
        K = SetValuedMap(box, [lambda x: x[0] * Fraction(1, 2)], [lambda x: (x[0] + 1) * Fraction(1, 2)])
        if case == "exact":
            h = ObjectiveFunction(lambda p: p[0] * p[0] - p[0] * Root2(0, 1))
        elif case == "exact-tiny":  # h increases by a tiny step, so min f(x, .) is a negative that rounds to -0.0
            h = ObjectiveFunction(lambda p: p[0] * Fraction(1, 10**400))
        else:  # the same as an expression, whose float constants multiply exactly in Root2
            h = ObjectiveFunction(parse_expression("x_1 * 1e-300 * 1e-300"))
        return h, K, SolverConfig(Grid(box, (17,)), 0.0, 0.0)

    @pytest.mark.parametrize("case", ["1d", "2d", "exact", "exact-tiny", "exact-tiny-expression"])
    def test_row_min_path_matches_pure_eval(self, case):
        h, K, cfg = self._separable_case(case)
        f = make_opt_bifunction(h, K.domain)
        pure = Bifunction(f.fn, f.domain)
        a = solve_qep(f, K, cfg)
        b = solve_qep(pure, K, cfg)
        q = solve_qopt(h, K, cfg)
        assert a.solutions
        assert [(r.point, r.min_f) for r in a.solutions] == [(r.point, r.min_f) for r in b.solutions]
        if case.startswith("exact-tiny"):
            # QEP compares the exact minimum with -eps, QOpt the exact gap with eps;
            # only 0 and 1/16 hold no grid point below themselves in their images
            assert [r.point for r in a.solutions] == grid_points(cfg.grid)[:2]
            assert [r.point for r in q.solutions] == grid_points(cfg.grid)[:2]
        else:
            assert [(r.point, r.min_f) for r in a.solutions] == [(r.point, -r.gap) for r in q.solutions]

    @pytest.mark.parametrize("payload", ["expression", "qvi"])
    def test_exact_row_payloads_stay_exact(self, payload):
        # f(x, y) is a tiny multiple of y - x, negative below x but zero once rounded to a float
        _h, K, cfg = self._separable_case("exact-tiny")
        box = K.domain
        if payload == "expression":
            f = Bifunction(parse_expression("(y_1 - x_1) * 1e-300 * 1e-300"), box)
        else:
            f = make_qvi_bifunction(QviOperator(lambda x: ((Root2(Fraction(1, 10**400)),),)), box)
        pure = Bifunction(lambda x, y: f.fn(x, y), box)  # one scalar call per pair
        expected = grid_points(cfg.grid)[:2]
        assert [r.point for r in solve_qep(f, K, cfg).solutions] == expected
        assert [r.point for r in solve_qep(pure, K, cfg).solutions] == expected

    @pytest.mark.parametrize("case", ["exact", "exact-tiny"])
    def test_exact_smap_and_gap_match_per_point_reference(self, case):
        h, K, cfg = self._separable_case(case)
        eps = cfg.eps_value
        f = make_opt_bifunction(h, K.domain)
        for x in grid_points(cfg.grid):
            pts = image_grid(K, x, cfg.grid)
            members = tuple(x0 for x0 in pts if all(f.fn(x0, y) >= -eps for y in pts))
            assert smap(f, K, x, cfg) == members
            assert smap(Bifunction(f.fn, f.domain), K, x, cfg) == members
            assert qopt_gap(h, K, x, cfg) == float(h.fn(x) - min(h.fn(y) for y in pts))
        if case == "exact-tiny":
            assert members == (pts[0],)  # float values would keep every image point

    def test_remark_smap_matches_per_point_reference(self):
        inst = get_instance("remark")
        f, cfg = inst.bifunction(), inst.config(points_per_axis=(17,))
        for x in grid_points(cfg.grid):
            pts = image_grid(inst.K, x, cfg.grid)
            members = tuple(x0 for x0 in pts if all(f.fn(x0, y) >= -cfg.eps_value for y in pts))
            assert smap(f, inst.K, x, cfg) == members


def _block_path(monkeypatch):
    """Make every fixed point take ``_row_minima``, as all did before the corner path."""
    def no_corners(e, grid, X, fixed, spans):
        return np.zeros(len(fixed), dtype=bool), np.empty(len(fixed))

    monkeypatch.setattr(solver, "_corner_minima", no_corners)


class TestCornerPath:
    """Monotone expression rows take their minimum at one corner of the image block; every other row, and every input the pass cannot prove monotone, takes the block, and the report bytes never change."""

    C2 = CompactBox((0.0, 0.0), (1.0, 1.0))
    K2 = SetValuedMap(
        C2,
        [parse_expression("(0.45 + 0.1*x_2) - 0.3"), parse_expression("(0.55 - 0.15*x_1) - 0.25")],
        [parse_expression("(0.45 + 0.1*x_2) + 0.3"), parse_expression("(0.55 - 0.15*x_1) + 0.25")],
    )

    @staticmethod
    def _spied(monkeypatch, grid):
        """The grid points whose minimum ``_row_minima`` takes, recorded as the solver calls it."""
        seen = []
        block = solver._row_minima

        def spy(f, g, X, fixed, spans):
            seen.extend(grid.points_at(fixed))
            return block(f, g, X, fixed, spans)

        monkeypatch.setattr(solver, "_row_minima", spy)
        return seen

    def _reports(self, f, monkeypatch):
        """The report, the points whose minimum took the block, and the report bytes of the all-block solve."""
        if isinstance(f, QviOperator):
            f = make_qvi_bifunction(f, self.C2)
        else:
            f = Bifunction(parse_expression(f), self.C2)
        cfg = SolverConfig(Grid(self.C2, (31, 31)), 1e-6, 0.0)
        seen = self._spied(monkeypatch, cfg.grid)
        report, seen = solve_qep(f, self.K2, cfg), list(seen)
        _block_path(monkeypatch)
        return report, seen, report_to_json(solve_qep(f, self.K2, cfg))

    @pytest.mark.parametrize("f", [
        "abs(y_1 - x_1)",
        "power(y_1 - x_1, 2)",
        "piecewise(y_1 <= x_1, x_1 - y_1, 2*(y_1 - x_1))",
        QviOperator.constant([(1.0, 0.5), (-1.0, 0.25)]),  # vertex signs differ in coordinate 1
    ], ids=["abs", "power", "piecewise-in-y", "mixed-sign-vertices"])
    def test_unknown_rows_take_the_block(self, f, monkeypatch):
        report, seen, block_bytes = self._reports(f, monkeypatch)
        fixed, _residuals, _spans = fixed_table(self.K2, Grid(self.C2, (31, 31)))
        assert report.solutions and len(seen) == len(fixed)
        assert report_to_json(report) == block_bytes

    @pytest.mark.parametrize("f", [
        # the first factor is +0.0 at x_2 = 0.5, so those blocks hold 0.0 and -0.0 and either may be the minimum
        "(x_2 - 0.5)*(y_1 - x_1) + (0.3*x_1 - 0.2)*(y_2 - x_2)",
        QviOperator.constant([(1.0, -0.5), (0.25, -2.0)]),  # vertex signs agree in each coordinate
    ], ids=["affine-field", "same-sign-vertices"])
    def test_monotone_rows_take_the_block_only_at_a_zero_corner(self, f, monkeypatch):
        report, seen, block_bytes = self._reports(f, monkeypatch)
        zeros = [rec.point for rec in report.solutions if rec.min_f == 0]
        assert zeros and seen == zeros
        assert report_to_json(report) == block_bytes

    def test_row_path_pool_matches_the_benchmark_reference(self, tmp_path, monkeypatch):
        """Every scan-rowpath problem of perfbench, through ``quasieq solve``, hashes to its reference digest."""
        root = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        digests = json.loads((root / "reference.json").read_text(encoding="utf-8"))["digests"]
        keys = []
        for source, _count in workloads.WORKLOADS["scan-rowpath"].mix:
            for seed in source.pool.seeds:
                problem = source.make(seed, tmp_path)
                assert hashlib.sha256(problem.run()).hexdigest() == digests[problem.key], problem.key
                keys.append(problem.key)
        assert len(keys) == 48

    def test_three_dimensional_spec_end_to_end(self, tmp_path, monkeypatch):
        """<A x + b, y - x> on [0,1]^3 with a moving box, through ``quasieq solve``: the block path's report."""
        spec = tmp_path / "field3d.spec"
        spec.write_text(
            "[domain]\ndim = 3\nlower = 0.0, 0.0, 0.0\nupper = 1.0, 1.0, 1.0\n\n"
            "[map]\nkind = moving_box\n"
            "lower_1 = (0.45 + 0.1*x_2) - 0.3\nupper_1 = (0.45 + 0.1*x_2) + 0.3\n"
            "lower_2 = (0.55 - 0.15*x_3) - 0.25\nupper_2 = (0.55 - 0.15*x_3) + 0.25\n"
            "lower_3 = (0.5 + 0.1*x_1) - 0.3\nupper_3 = (0.5 + 0.1*x_1) + 0.3\n\n"
            "[payload]\nkind = bifunction\nexpr = (0.6*x_1 - 0.4*x_2 + 0.1)*(y_1 - x_1)"
            " + (-0.3*x_1 + 0.8*x_2 - 0.2)*(y_2 - x_2) + (0.2*x_2 + 0.7*x_3 - 0.35)*(y_3 - x_3)\n\n"
            "[solver]\ngrid = 21, 21, 21\neps = 0.05\ndelta = 0.01\n"
        )
        seen = self._spied(monkeypatch, Grid(CompactBox((0.0,) * 3, (1.0,) * 3), (21, 21, 21)))
        outs, blocks = [], []
        for name in ("corner.json", "block.json"):
            assert main(["solve", str(spec), "--format", "json", "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
            blocks.append(len(seen))
            _block_path(monkeypatch)
        assert json.loads(outs[0])["solutions"]
        assert blocks[0] < (blocks[1] - blocks[0]) / 10  # most minima come from a corner
        assert outs[0] == outs[1]
