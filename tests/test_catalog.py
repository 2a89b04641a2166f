import dataclasses
from fractions import Fraction

import pytest

from quasieq.bifunction import Bifunction, ObjectiveFunction, QviOperator, make_qvi_bifunction
from quasieq.catalog import (
    catalog_names,
    figure1_instance,
    get_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    qvi_vertex_oracle,
    random_instance,
    remark_bifunction_instance,
)
from quasieq.errors import SpecError
from quasieq.expressions import parse_expression
from quasieq.geometry import Root2, grid_points
from quasieq.reporting import report_to_json
from quasieq.setmap import NO_VIOLATION_FOUND, SetValuedMap, check_convex_values, fixed_point_set
from quasieq.solver import solve_qep


class TestFigure1:
    def test_objective_values(self):
        h = figure1_instance().payload
        assert h((0.0,)) == 0.5
        assert h((0.5,)) == 0.0
        assert h((2.0,)) == 0.5

    def test_branch_point_agreement(self):
        # both branch formulas give 1/2 at x = 1; the closed first branch wins
        h = figure1_instance().payload
        assert h((1.0,)) == 0.5
        assert abs(1.0 - 0.5) == abs(1.0 - 1.5) == 0.5

    def test_fixed_points_fill_interval(self):
        inst = figure1_instance()
        g = inst.grid()
        pts = fixed_point_set(inst.K, g, 0.0)
        lo, hi = inst.known_facts["fixed_point_interval"]
        expected = [p for p in grid_points(g) if lo - 1e-9 <= p[0] <= hi + 1e-9]
        assert pts == expected

    def test_known_facts_hold(self):
        inst = figure1_instance()
        rep = inst.solve(inst.config(eps=0.05))
        assert inst.known_facts["qopt_empty"] and rep.solutions == ()
        lo, hi = inst.known_facts["gap_floor_range"]
        assert lo <= rep.min_gap_over_fixed_points <= hi


class TestQuasiconvexVariant:
    def test_unique_solution_and_gap(self):
        inst = quasiconvex_variant_instance()
        rep = inst.solve(inst.config())
        assert [list(r.point) for r in rep.solutions] == inst.known_facts["expected_solutions"]
        assert rep.solutions[0].gap == inst.known_facts["expected_gap"]

    def test_first_argument_quasiconcavity_clean(self):
        from quasieq.bifunction import check_quasiconcave_first

        inst = quasiconvex_variant_instance()
        rep = check_quasiconcave_first(inst.bifunction(), inst.C)
        assert rep.verdict == inst.known_facts["verdicts"]["qccv_first"]


class TestRemark:
    def test_indicator_values(self):
        inst = remark_bifunction_instance()
        f = inst.payload
        x = (Root2(Fraction(1, 7)),)
        assert f.fn(x, (Root2(Fraction(1, 2)),)) == Root2(1)
        assert f.fn(x, (Root2(0, Fraction(1, 4)),)) == Root2(0)

    def test_expected_verdicts(self):
        from quasieq.bifunction import (
            check_condition_ii,
            check_diagonal_zero,
            check_quasiconvex_second,
        )

        inst = remark_bifunction_instance()
        want = inst.known_facts["verdicts"]
        assert check_condition_ii(inst.payload, inst.C).verdict == want["condition_ii"]
        assert check_quasiconvex_second(inst.payload, inst.C).verdict == want["qcvx_second"]
        assert check_diagonal_zero(inst.payload, inst.grid((21,))).verdict == want["diagonal_zero"]

    def test_not_serializable(self):
        with pytest.raises(SpecError):
            remark_bifunction_instance().serialize()


class TestRandomInstanceGenerator:
    def test_same_seed_byte_identical(self):
        for seed in (0, 7, 123):
            a = random_instance(seed, 1).serialize()
            b = random_instance(seed, 1).serialize()
            assert a == b

    def test_different_seeds_differ(self):
        assert random_instance(1, 1).serialize() != random_instance(2, 1).serialize()

    def test_objective_is_quasiconvex_sampled(self):
        from quasieq.bifunction import check_quasiconvex_second

        for seed in (0, 5):
            inst = random_instance(seed, 1)
            rep = check_quasiconvex_second(inst.bifunction(), inst.C)
            assert rep.verdict == NO_VIOLATION_FOUND

    def test_map_values_convex(self):
        inst = random_instance(9, 2)
        assert check_convex_values(inst.K, inst.grid()).verdict == NO_VIOLATION_FOUND

    def test_solvable_at_recommended_eps(self):
        for seed in (2, 4, 6):
            for dim in (1, 2):
                inst = random_instance(seed, dim)
                rep = inst.solve(inst.config())
                assert rep.solutions, f"seed {seed} dim {dim} came back empty"

    def test_anchor_gap_is_exactly_zero(self):
        inst = random_instance(17, 1)
        rep = inst.solve(inst.config(eps=0.0))
        assert rep.solutions
        assert any(r.gap == 0.0 for r in rep.solutions)


class TestQviInstances:
    def test_unit_vertex_lower_corner(self):
        inst = qvi_instance(0)
        rep = inst.solve(inst.config())
        assert [list(r.point) for r in rep.solutions] == inst.known_facts["expected_solutions"]

    def test_negative_vertex_upper_corner(self):
        inst = qvi_instance(1)
        rep = inst.solve(inst.config())
        assert [list(r.point) for r in rep.solutions] == [[1.0]]

    def test_zero_vertex_every_fixed_point(self):
        inst = qvi_instance(2)
        cfg = inst.config(points_per_axis=(101,))
        rep = inst.solve(cfg)
        assert [r.point for r in rep.solutions] == fixed_point_set(inst.K, cfg.grid, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 10])
    def test_oracle_agrees_with_adapter_route(self, seed):
        inst = qvi_instance(seed)
        cfg = inst.config()
        rep = solve_qep(make_qvi_bifunction(inst.payload, inst.C), inst.K, cfg, kind="QVI")
        oracle = qvi_vertex_oracle(inst.payload, inst.K, cfg)
        assert [r.point for r in rep.solutions] == oracle

    def test_oracle_agrees_at_the_benchmark_grid(self):
        # multi-vertex 2-D operators at 121^2, where a matrix product's rounding once moved the oracle's minima
        for seed in (59, 95, 260):
            inst = qvi_instance(seed)
            cfg = inst.config(points_per_axis=(121, 121))
            rep = solve_qep(make_qvi_bifunction(inst.payload, inst.C), inst.K, cfg, kind="QVI")
            assert len(inst.payload.vertex_exprs) > 1 and rep.solutions
            assert [r.point for r in rep.solutions] == qvi_vertex_oracle(inst.payload, inst.K, cfg)

    def test_same_seed_reproducible(self):
        assert qvi_instance(8).serialize() == qvi_instance(8).serialize()


class TestRegistry:
    def test_names_sorted_and_resolvable(self):
        names = catalog_names()
        assert names == sorted(names)
        for name in names:
            inst = get_instance(name)
            assert inst.name in (name, inst.name)

    def test_unknown_name(self):
        with pytest.raises(SpecError):
            get_instance("nope")

    def test_worked_instances_validate_no_map_at_construction(self, monkeypatch):
        # every solve checks the grid it scans, so construction scans none
        from quasieq.specfile import build_instance, load_spec

        texts = [build().serialize() for build in (figure1_instance, quasiconvex_variant_instance)]

        def refuse(K, X):
            raise AssertionError(f"bounds_batch ran on {X.shape[1]} points")

        monkeypatch.setattr(SetValuedMap, "bounds_batch", refuse)
        for build in (figure1_instance, quasiconvex_variant_instance, remark_bifunction_instance):
            assert build().K.domain.dim == 1
        for text in texts:
            assert build_instance(load_spec(text)).K.domain.dim == 1
        assert qvi_instance(8).K.variant == "moving_box"

    def test_serialization_round_trip(self):
        from quasieq.specfile import build_instance, load_spec

        # operators whose vertex coordinates hold commas inside parentheses, in 1-D and 2-D
        commas = [
            dataclasses.replace(
                random_instance(3, dim),
                payload=QviOperator.from_expressions([[parse_expression(c) for c in v] for v in vertices]),
                grid_default=(41,) * dim,
            )
            for dim, vertices in (
                (1, [["max(x_1, 0.5)"], ["min(x_1, 0.25, 0.75) - 1"]]),
                (2, [["max(x_1, 0.5)", "power(x_2, 2)"], ["piecewise(x_1 <= 0.5, 1, -1)", "min(x_1, max(x_2, 0.25))"]]),
            )
        ]
        for inst in (figure1_instance(), random_instance(3, 2), qvi_instance(5), get_instance("qvi-unit"), *commas):
            text = inst.serialize()
            again = build_instance(load_spec(text), name=inst.name)
            assert again.serialize() == text
            assert report_to_json(again.solve()) == report_to_json(inst.solve())

    @pytest.mark.parametrize(
        "part, what",
        [
            ("map", "maps"),
            ("objective", "objectives"),
            ("bifunction", "bifunctions"),
            ("qvi_operator", "operators"),
        ],
    )
    def test_callable_parts_refuse_to_serialize(self, part, what):
        inst = random_instance(3, 1)
        C = inst.C
        if part == "map":
            inst = dataclasses.replace(inst, K=SetValuedMap(C, [lambda x: 0.0], [lambda x: x[0]]))
        else:
            payload = {
                "objective": ObjectiveFunction(lambda x: x[0]),
                "bifunction": Bifunction(lambda x, y: y[0] - x[0], C),
                "qvi_operator": QviOperator(lambda x: ((1.0,),)),
            }[part]
            inst = dataclasses.replace(inst, payload=payload)
            assert inst.payload_kind == part
        with pytest.raises(SpecError, match=f"only expression-backed {what} are serializable"):
            inst.serialize()

    def test_expression_bifunction_serializes(self):
        from quasieq.specfile import build_instance, load_spec

        inst = random_instance(3, 1)
        inst = dataclasses.replace(inst, payload=Bifunction(parse_expression("y_1 - x_1"), inst.C))
        text = inst.serialize()
        assert "[payload]\nkind = bifunction\nexpr = y_1 - x_1\n" in text
        assert build_instance(load_spec(text)).serialize() == text
