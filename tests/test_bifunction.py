import random
from fractions import Fraction

import numpy as np
import pytest

from quasieq.bifunction import (
    Bifunction,
    ObjectiveFunction,
    QviOperator,
    check_condition_ii,
    check_condition_iii,
    check_condition_iv,
    check_diagonal_zero,
    check_quasiconcave_first,
    check_quasiconvex_second,
    make_opt_bifunction,
    make_qvi_bifunction,
)
from quasieq.catalog import figure1_instance, quasiconvex_variant_instance, remark_bifunction_instance
from quasieq.errors import InstanceDefinitionError
from quasieq.expressions import parse_expression
from quasieq.geometry import CompactBox, Grid, Root2
from quasieq.setmap import FAIL, NO_VIOLATION_FOUND

C02 = CompactBox((0.0,), (2.0,))


def fig1_h():
    return figure1_instance().payload


def fig1_f():
    return figure1_instance().bifunction()


def parabola_f():
    return quasiconvex_variant_instance().bifunction()


class TestEval:
    def test_fig1_difference_value(self):
        # h(0.5) - h(0) = 0 - 0.5
        f = fig1_f()
        assert f.eval((0.0,), (0.5,)) == -0.5

    def test_diagonal_is_zero(self):
        f = fig1_f()
        rng = random.Random(0)
        for _ in range(100):
            x = (rng.uniform(0, 2),)
            assert f.eval(x, x) == 0.0

    def test_remark_values(self):
        f = remark_bifunction_instance().payload
        x = (Root2(Fraction(1, 3)),)
        assert f.eval(x, (Root2(Fraction(1, 2)),)) == Root2(1)
        assert f.eval(x, (Root2(0, Fraction(1, 4)),)) == Root2(0)

    def test_outside_domain_rejected(self):
        f = fig1_f()
        with pytest.raises(ValueError):
            f.eval((3.0,), (0.5,))


class TestBatchArguments:
    """A callable sees Python scalars in batches too, so batch and scalar calls behave alike."""

    def test_callables_see_python_floats_on_every_path(self):
        seen = []

        def record(p):
            seen.append(type(p[0]).__name__)
            return p[0]

        Y = np.array([[0.5]])
        ObjectiveFunction(record)((0.5,))
        ObjectiveFunction(record).eval_batch(Y)
        Bifunction(lambda x, y: record(y), C02).row((0.5,), Y)
        assert seen == ["float", "float", "float"]

    def test_overflow_raises_alike_in_batches(self):
        h = ObjectiveFunction(lambda p: p[0] ** 400)
        f = Bifunction(lambda x, y: y[0] ** 400, CompactBox((0.0,), (20.0,)))
        with pytest.raises(OverflowError) as scalar:
            h((10.0,))
        for batch in (lambda: h.eval_batch(np.array([[10.0]])), lambda: f.row((0.0,), np.array([[10.0]]))):
            with pytest.raises(OverflowError) as batched:
                batch()
            assert batched.value.args == scalar.value.args


class TestOptAdapter:
    def test_parabola_value(self):
        h = ObjectiveFunction(parse_expression("power(x_1 - 1, 2)"))
        f = make_opt_bifunction(h, C02)
        assert f.eval((0.0,), (1.0,)) == -1.0

    def test_fig1_zeros(self):
        f = fig1_f()
        assert f.eval((0.5,), (1.5,)) == 0.0

    def test_antisymmetry_thousand_pairs(self):
        f = fig1_f()
        rng = random.Random(11)
        for _ in range(1000):
            x = (rng.uniform(0, 2),)
            y = (rng.uniform(0, 2),)
            assert abs(f.eval(x, y) + f.eval(y, x)) <= 1e-12

    def test_row_matches_scalar_eval(self):
        f = fig1_f()
        Y = np.linspace(0.0, 2.0, 101).reshape(-1, 1)
        row = f.row((0.3,), Y)
        direct = np.array([f.fn((0.3,), (float(v),)) for v in Y[:, 0]])
        assert np.array_equal(row, direct)
        # the declared separable minimum is the row minimum, bit for bit
        h = f.objective
        assert h.eval_batch(Y).min() - h.fn((0.3,)) == row.min()


class TestQviAdapter:
    def test_single_vertex_inner_product(self):
        T = QviOperator.constant([(1.0,)])
        f = make_qvi_bifunction(T, CompactBox((0.0,), (1.0,)))
        assert f.eval((0.3,), (0.8,)) == 0.5

    def test_diagonal_zero(self):
        T = QviOperator.constant([(2.0, -1.0), (0.5, 3.0)])
        f = make_qvi_bifunction(T, CompactBox((0.0, 0.0), (1.0, 1.0)))
        rng = random.Random(3)
        for _ in range(1000):
            x = (rng.uniform(0, 1), rng.uniform(0, 1))
            assert f.eval(x, x) == 0.0

    def test_two_vertices_take_max(self):
        T = QviOperator.constant([(1.0, 0.0), (0.0, 1.0)])
        f = make_qvi_bifunction(T, CompactBox((0.0, 0.0), (1.0, 2.0)))
        # enumerate both vertices: <(1,0),(1,2)> = 1, <(0,1),(1,2)> = 2
        assert f.eval((0.0, 0.0), (1.0, 2.0)) == 2.0

    def test_empty_vertex_list_rejected(self):
        with pytest.raises(InstanceDefinitionError):
            QviOperator.constant([])

    def test_positive_homogeneity(self):
        T = QviOperator.constant([(1.5,), (-0.5,)])
        box = CompactBox((0.0,), (1.0,))
        f1 = make_qvi_bifunction(T, box)
        f2 = make_qvi_bifunction(T.scaled(2.0), box)
        f10 = make_qvi_bifunction(T.scaled(10.0), box)
        rng = random.Random(7)
        for _ in range(1000):
            x, y = (rng.uniform(0, 1),), (rng.uniform(0, 1),)
            v = f1.eval(x, y)
            assert f2.eval(x, y) == 2.0 * v  # doubling is exact in floats
            assert f10.eval(x, y) == pytest.approx(10.0 * v, rel=1e-15, abs=1e-300)


class TestConditionII:
    def test_remark_clean(self):
        inst = remark_bifunction_instance()
        rep = check_condition_ii(inst.payload, inst.C)
        assert rep.verdict == NO_VIOLATION_FOUND

    def test_parabola_clean_with_level_set_oracle(self):
        f = parabola_f()
        # oracle: on a fine 1-d grid every level set {x : f(x,y) >= 0} is an
        # index interval, so no convexity witness can exist
        xs = [i * 2.0 / 200 for i in range(201)]
        for y in [0.0, 0.3, 1.0, 1.7, 2.0]:
            flags = [f.fn((x,), (y,)) >= 0 for x in xs]
            first, last = flags.index(True), len(flags) - 1 - flags[::-1].index(True)
            assert all(flags[first : last + 1])
        assert check_condition_ii(f, C02).verdict == NO_VIOLATION_FOUND

    def test_w_shape_fails_with_replayable_witness(self):
        f = fig1_f()
        # direct evaluation: h(0.9) = h(1.1) = 0.4, h(1.0) = 0.5, h(0.1) = 0.4,
        # so x1 = 0.9, x2 = 1.1 sit in the level set at y = 0.1 but their
        # midpoint does not: f(1.0, 0.1) = 0.4 - 0.5 = -0.1
        assert f.fn((0.9,), (0.1,)) == pytest.approx(0.0, abs=1e-12)
        assert f.fn((1.1,), (0.1,)) == pytest.approx(0.0, abs=1e-12)
        assert f.fn((1.0,), (0.1,)) == pytest.approx(-0.1, abs=1e-12)
        rep = check_condition_ii(f, C02)
        assert rep.verdict == FAIL
        w = rep.witness
        assert f.fn(w["x1"], w["y"]) >= 0 and f.fn(w["x2"], w["y"]) >= 0
        assert w["f_combination"] < -rep.tolerance


class TestConditionIII:
    def test_parabola_midpoint_value(self):
        f = parabola_f()
        # max(f(1,0), f(1,2)) = max(1, 1) = 1 >= 0
        assert max(f.fn((1.0,), (0.0,)), f.fn((1.0,), (2.0,))) == 1.0
        assert check_condition_iii(f, C02).verdict == NO_VIOLATION_FOUND

    def test_remark_clean(self):
        inst = remark_bifunction_instance()
        assert check_condition_iii(inst.payload, inst.C).verdict == NO_VIOLATION_FOUND

    def test_concave_objective_fails(self):
        h = ObjectiveFunction(parse_expression("-power(x_1 - 1, 2)"))
        f = make_opt_bifunction(h, C02)
        # subset {0, 2} with midpoint 1: both values are -1
        assert f.fn((1.0,), (0.0,)) == -1.0 and f.fn((1.0,), (2.0,)) == -1.0
        rep = check_condition_iii(f, C02)
        assert rep.verdict == FAIL
        w = rep.witness
        replay = max(f.fn(w["combination"], xi) for xi in w["subset"])
        assert replay == w["max_value"] < -rep.tolerance


class TestConditionIV:
    def test_continuous_clean(self):
        f = fig1_f()
        assert check_condition_iv(f, Grid(C02, (101,))).verdict == NO_VIOLATION_FOUND

    def test_remark_clean(self):
        inst = remark_bifunction_instance()
        assert check_condition_iv(inst.payload, inst.grid((11,))).verdict == NO_VIOLATION_FOUND

    def test_jump_fails(self):
        box = CompactBox((0.0,), (1.0,))
        f = Bifunction(lambda x, y: 1.0 if y[0] > 0.5 else -1.0, box)
        # f = -1 on the closed set {y <= 1/2} but f = 1 at y = 1/2 + r for all r
        rep = check_condition_iv(f, Grid(box, (101,)))
        assert rep.verdict == FAIL
        w = rep.witness
        assert w["f_value"] <= -rep.tolerance
        for step in w["approach"]:
            assert f.fn(tuple(step["x_prime"]), tuple(step["y_prime"])) >= 0


class TestQuasiconvexSecond:
    def test_remark_fails_via_sqrt2_witness(self):
        inst = remark_bifunction_instance()
        rep = check_quasiconvex_second(inst.payload, inst.C)
        assert rep.verdict == FAIL
        w = rep.witness
        assert not w["y1"][0].is_rational and not w["y2"][0].is_rational
        assert w["f_mid"] == Root2(1)
        assert max(w["f_y1"], w["f_y2"]) == Root2(0)

    def test_parabola_clean(self):
        assert check_quasiconvex_second(parabola_f(), C02).verdict == NO_VIOLATION_FOUND

    def test_w_shape_fails(self):
        f = fig1_f()
        # y1 = 0.5, y2 = 1.5 both have h = 0 yet the midpoint has h(1) = 0.5
        assert f.fn((0.0,), (1.0,)) == 0.0  # h(1) - h(0) = 0.5 - 0.5
        rep = check_quasiconvex_second(f, C02)
        assert rep.verdict == FAIL
        w = rep.witness
        assert w["f_mid"] > max(w["f_y1"], w["f_y2"]) + rep.tolerance


class TestQuasiconcaveFirst:
    def test_quasiconvex_objective_clean(self):
        assert check_quasiconcave_first(parabola_f(), C02).verdict == NO_VIOLATION_FOUND

    def test_w_shape_fails(self):
        f = fig1_f()
        # x1 = 0.5, x2 = 1.5, midpoint 1, y = 0.1:
        # f(1, 0.1) = -0.1 < 0.4 = min(f(0.5, 0.1), f(1.5, 0.1))
        assert f.fn((0.5,), (0.1,)) == pytest.approx(0.4, abs=1e-12)
        assert f.fn((1.5,), (0.1,)) == pytest.approx(0.4, abs=1e-12)
        rep = check_quasiconcave_first(f, C02)
        assert rep.verdict == FAIL
        w = rep.witness
        assert w["f_mid"] < min(w["f_x1"], w["f_x2"]) - rep.tolerance

    def test_constant_zero_clean(self):
        box = CompactBox((0.0,), (1.0,))
        f = Bifunction(lambda x, y: 0.0, box)
        assert check_quasiconcave_first(f, box).verdict == NO_VIOLATION_FOUND


class TestDiagonalZero:
    def test_opt_adapter_clean(self):
        assert check_diagonal_zero(fig1_f(), Grid(C02, (101,))).verdict == NO_VIOLATION_FOUND

    def test_qvi_adapter_clean(self):
        T = QviOperator.constant([(1.0,), (-2.0,)])
        f = make_qvi_bifunction(T, CompactBox((0.0,), (1.0,)))
        assert check_diagonal_zero(f, Grid(CompactBox((0.0,), (1.0,)), (51,))).verdict == NO_VIOLATION_FOUND

    def test_remark_fails_at_rational_point(self):
        inst = remark_bifunction_instance()
        rep = check_diagonal_zero(inst.payload, inst.grid((11,)))
        assert rep.verdict == FAIL
        x = rep.witness["x"]
        assert x[0].is_rational and rep.witness["f_value"] == Root2(1)


class TestCheckerProperties:
    def test_remark_consistency_triple(self):
        # condition ii holds while the two sufficient conditions fail
        inst = remark_bifunction_instance()
        f = inst.payload
        assert check_condition_ii(f, inst.C).verdict == NO_VIOLATION_FOUND
        assert check_quasiconvex_second(f, inst.C).verdict == FAIL
        assert check_diagonal_zero(f, inst.grid((51,))).verdict == FAIL

    def test_exact_checkers_deterministic(self):
        inst = remark_bifunction_instance()
        f = inst.payload
        first = [
            check_condition_ii(f, inst.C),
            check_condition_iii(f, inst.C),
            check_condition_iv(f, inst.grid((11,))),
            check_quasiconvex_second(f, inst.C),
            check_quasiconcave_first(f, inst.C),
            check_diagonal_zero(f, inst.grid((11,))),
        ]
        second = [
            check_condition_ii(f, inst.C),
            check_condition_iii(f, inst.C),
            check_condition_iv(f, inst.grid((11,))),
            check_quasiconvex_second(f, inst.C),
            check_quasiconcave_first(f, inst.C),
            check_diagonal_zero(f, inst.grid((11,))),
        ]
        assert first == second

    def test_float_witnesses_replay(self):
        f = fig1_f()
        rep = check_condition_ii(f, C02)
        w = rep.witness
        lam = w["lambda"]
        mid = tuple(lam * a + (1 - lam) * b for a, b in zip(w["x1"], w["x2"]))
        assert f.fn(mid, w["y"]) == w["f_combination"]
