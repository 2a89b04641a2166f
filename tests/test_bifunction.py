import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quasieq import geometry, sampling
from quasieq.bifunction import (
    Bifunction,
    ConditionReport,
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
    _above_max,
    _below_min,
    _midpoints,
    _pair_values,
)
from quasieq.catalog import figure1_instance, quasiconvex_variant_instance, random_instance, remark_bifunction_instance
from quasieq.errors import InstanceDefinitionError, NonFiniteValueError, QuasieqError
from quasieq.expressions import parse_expression
from quasieq.geometry import CompactBox, Grid, Root2, convex_combination, pair_combination, point_columns
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
        Y = np.linspace(0.0, 2.0, 101).reshape(1, -1)
        row = f.row((0.3,), Y)
        direct = np.array([f.fn((0.3,), (float(v),)) for v in Y[0]])
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


def _qvi_reference(T: QviOperator, x: tuple, y: tuple) -> float:
    """f_T(x, y) for one pair: each <v, y - x> summed from 0.0 in coordinate order, the first maximum kept."""
    best = None
    for v in T.vertices(x):
        s = 0.0
        for k in range(len(x)):
            s += v[k] * (y[k] - x[k])
        if best is None or s > best:
            best = s
    return best


class TestQviAdapterKernel:
    """The adapter of an expression operator is one ``Expression``: its batch row and its scalar value are the
    per-pair reference to the bit, so no matrix product rounds them."""

    def test_row_and_fn_match_per_pair_reference(self):
        rng = random.Random(20261019)
        for _ in range(300):
            dim = rng.randint(1, 3)
            box = CompactBox((0.0,) * dim, (1.0,) * dim)
            T = QviOperator.from_expressions(
                [[parse_expression(_random_text(rng, dim, "x", 2)) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
            )
            f = make_qvi_bifunction(T, box)
            x = tuple(rng.random() for _ in range(dim))
            Y = point_columns([x] + [tuple(rng.random() for _ in range(dim)) for _ in range(40)])
            row = f.row(x, Y)
            for y, got in zip(zip(*Y.tolist()), row.tolist()):
                want = _qvi_reference(T, x, y)
                for value in (got, f.fn(x, y)):
                    assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want), (T.vertex_exprs, x, y)

    def test_vertex_of_wrong_length_refused(self):
        square = CompactBox((0.0, 0.0), (1.0, 1.0))
        for vertex in (["1.0"], ["1.0", "x_1", "x_2"]):
            T = QviOperator.from_expressions([[parse_expression(c) for c in vertex]])
            with pytest.raises(InstanceDefinitionError, match="2 coordinate"):
                make_qvi_bifunction(T, square)


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
    @pytest.mark.parametrize(
        "check", [check_condition_ii, check_condition_iii, check_quasiconvex_second, check_quasiconcave_first]
    )
    def test_exact_f_values_meet_no_float(self, monkeypatch, check):
        # the exact tolerance is the int 0: a Root2 compare never turns a float into an integer ratio
        floats, parts = [], geometry._parts
        monkeypatch.setattr(geometry, "_parts", lambda x: (isinstance(x, float) and floats.append(x)) or parts(x))
        inst = remark_bifunction_instance()
        rep = check(inst.payload, inst.C)
        assert floats == [] and rep.samples_used > 0
        assert type(rep.tolerance) is float and rep.tolerance == 0.0

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


def _random_text(rng: random.Random, dim: int, names: str, depth: int = 4) -> str:
    """A random expression in the variables <name>_1..<name>_dim for each letter of ``names``."""
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.2:
            return repr(round(rng.uniform(-2, 2), 3))
        return f"{rng.choice(names)}_{rng.randint(1, dim)}"
    sub = [_random_text(rng, dim, names, depth - 1) for _ in range(4)]
    kind = rng.choice(["+", "-", "*", "abs", "min", "max", "power", "piecewise"])
    if kind in "+-*":
        return f"({sub[0]} {kind} {sub[1]})"
    if kind == "abs":
        return f"abs({sub[0]})"
    if kind == "power":
        return f"power({sub[0]}, {rng.randint(0, 3)})"
    if kind == "piecewise":
        return f"piecewise({sub[0]} {rng.choice(['<=', '<', '>=', '>'])} {sub[1]}, {sub[2]}, {sub[3]})"
    return f"{kind}({sub[0]}, {sub[1]})"


def _payload_pair(text: str, C: CompactBox) -> tuple:
    """(batched, scalar): the payload built on the parsed expression, and on the same expression wrapped in a plain
    callable, which keeps the probe-by-probe loop; an expression in x alone is an objective h(y) - h(x)."""
    e = parse_expression(text)
    if e.variables <= {"x_1", "x_2", "x_3"}:
        return make_opt_bifunction(ObjectiveFunction(e), C), make_opt_bifunction(ObjectiveFunction(lambda p: e(p)), C)
    return Bifunction(e, C), Bifunction(lambda x, y: e(x, y), C)


def _same(a, b) -> bool:
    """Equal down to the type of every number and the sign of every zero (NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (a == b or (a != a and b != b)) and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, ConditionReport):
        return _same(vars(a), vars(b))
    return a == b


def _outcome(check, f):
    try:
        return check(f)
    except NonFiniteValueError as err:
        return str(err)


class TestBatchedCheckers:
    """condition_ii, qcvx_second, qccv_first and diagonal_zero batch a float ``Expression`` payload; each gives
    the report of its probe-by-probe loop on the same expression wrapped in a callable."""

    @staticmethod
    def assert_same_reports(text: str, C: CompactBox):
        batched, scalar = _payload_pair(text, C)
        assert _pair_values(batched) is not None and _pair_values(scalar) is None
        grid = Grid(C, (9,) * C.dim)
        checks = [
            lambda f: check_condition_ii(f, C),
            lambda f: check_quasiconvex_second(f, C, trials=100),
            lambda f: check_quasiconcave_first(f, C, trials=100),
            lambda f: check_diagonal_zero(f, grid),
        ]
        outcomes = []
        for check in checks:
            got, want = _outcome(check, batched), _outcome(check, scalar)
            assert _same(got, want), (text, got, want)
            outcomes.append(got)
        return outcomes

    @pytest.mark.parametrize("seed", range(12))
    def test_random_expressions(self, seed, monkeypatch):
        # smaller plans keep the probe-by-probe loops short; both paths read the same plan
        monkeypatch.setitem(sampling.BOX_LATTICE_BUDGET, 2, 4)
        monkeypatch.setitem(sampling.BOX_LATTICE_BUDGET, 3, 3)
        monkeypatch.setattr(sampling, "LEVEL_SET_PAIRS", 100)
        rng = random.Random(seed)
        dim = 1 + seed % 3
        lower = tuple(round(rng.uniform(-1.0, 1.0), 2) for _ in range(dim))
        C = CompactBox(lower, tuple(lo + round(rng.uniform(0.5, 2.0), 2) for lo in lower))
        self.assert_same_reports(_random_text(rng, dim, "x" if seed % 2 else "xy"), C)

    @pytest.mark.parametrize("text", [
        "max(-0.5*x_1 + 0.5, 0.5*x_1 - 0.5, 0.25*x_1)",  # quasiconvex: every check clean
        "1e-7 * abs(abs(x_1 - 1) - 0.5)",  # a shallow W-shape: its violations are at most about 1e-7
        "power(y_1 - 1, 2) - power(x_1 - 1, 2) + piecewise(x_1 > 1.5, 1e-3, 0)",  # diagonal_zero fails
    ])
    def test_clean_and_failing_payloads(self, text):
        self.assert_same_reports(text, C02)

    def test_w_shape_fails_alike(self):
        outcomes = self.assert_same_reports("abs(abs(x_1 - 1) - 0.5)", C02)
        assert [rep.verdict for rep in outcomes] == [FAIL, FAIL, FAIL, NO_VIOLATION_FOUND]

    @pytest.mark.parametrize("text", ["power(x_1, 400)", "power(y_1, 400) - power(x_1, 400)"])
    def test_overflow_raises_the_same_error(self, text):
        # 6.0 is a lattice point of [0, 10] and 6**400 overflows: both paths name the first probe that reaches it
        outcomes = self.assert_same_reports(text, CompactBox((0.0,), (10.0,)))
        assert all(isinstance(out, str) and "overflows" in out for out in outcomes)

    def test_midpoints_match_convex_combination(self):
        rng = random.Random(5)
        A = point_columns([(0.1, 0.2), (rng.uniform(-2, 2), rng.uniform(-2, 2)), (-0.0, 0.0)])
        B = point_columns([(0.1, 0.2), (rng.uniform(-2, 2), rng.uniform(-2, 2)), (0.0, -0.0)])
        lam = np.array([0.3, rng.uniform(0.05, 0.95), 0.5])
        # 0.1 * 0.3 + 0.1 * 0.7 is not 0.1: the equal pair is returned unchanged
        assert 0.1 * 0.3 + 0.1 * (1.0 - 0.3) != 0.1
        a_pts, b_pts, mids = (zip(*M.tolist()) for M in (A, B, _midpoints(A, B, lam)))
        for a, b, w, mid in zip(a_pts, b_pts, lam.tolist(), mids):
            assert _same(tuple(mid), convex_combination((tuple(a), tuple(b)), (w, 1.0 - w)))
            assert _same(tuple(mid), pair_combination(tuple(a), tuple(b), w))

    def test_exact_lambdas_match_fresh_fractions(self):
        def reference_lambdas(exact, rng, extra=2):  # sampling.lambdas as it built a Fraction per weight, verbatim
            """1/2, 1/4, 3/4, then ``extra`` random weights in (0, 1)."""
            if exact:
                return [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)] + [Fraction(rng.randrange(1, 64), 64) for _ in range(extra)]
            return [0.5, 0.25, 0.75] + [rng.uniform(0.05, 0.95) for _ in range(extra)]

        rng, reference_rng = random.Random(64), random.Random(64)
        for n in range(1000):
            extra = {"extra": n % 3 + 1} if n % 2 else {}  # the default 2, and 1 to 3 as the plans ask
            lams, expected = sampling.lambdas(True, rng, **extra), reference_lambdas(True, reference_rng, **extra)
            assert lams == expected and all(type(lam) is Fraction for lam in lams)
            assert rng.getstate() == reference_rng.getstate()

    def test_max_and_min_rules_follow_python(self):
        special = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        triples = [(m, a, b) for m in special for a in special for b in special]
        v_mid, v1, v2 = (np.array(col) for col in zip(*triples))
        tol = sampling.FLOAT_TOL
        assert _above_max(v_mid, v1, v2, tol).tolist() == [m > max(a, b) + tol for m, a, b in triples]
        assert _below_min(v_mid, v1, v2, tol).tolist() == [m < min(a, b) - tol for m, a, b in triples]


# The probe-by-probe condition_iv, kept verbatim as the reference of the batch path.


def reference_check_condition_iv(f: Bifunction, grid: Grid, seed: int = sampling.CHECK_SEED) -> ConditionReport:
    C = grid.box
    rng = random.Random(seed + 2)
    lattice = sampling.box_lattice(C)
    pairs = [(x, y) for x in lattice for y in lattice]
    vals = [f.fn(x, y) for x, y in pairs]
    samples = len(vals)
    margin = sampling.pair_probe_margin([float(v) for v in vals])
    radii = sampling.pair_probe_radii(C)

    def nonneg_near(xf, yf, r):
        nonlocal samples
        for qx, qy in sampling.pair_ball_candidates(xf, yf, r, C, rng):
            samples += 1
            if f.fn(sampling.float_map_point(f.domain, qx), sampling.float_map_point(f.domain, qy)) >= 0:
                return {"radius": r, "x_prime": qx, "y_prime": qy}
        return None

    for (x, y), v in zip(pairs, vals):
        if not (v <= -margin):
            continue
        xf = tuple(float(c) for c in x)
        yf = tuple(float(c) for c in y)
        trail = sampling.ladder_search(radii, lambda r: nonneg_near(xf, yf, r))
        if trail is not None:
            witness = {"x": x, "y": y, "f_value": v, "approach": trail, "margin": margin}
            return ConditionReport("iv", FAIL, witness, samples, margin)
    return ConditionReport("iv", NO_VIOLATION_FOUND, None, samples, margin)


def _jump(x, y):
    return 1.0 if y[0] > 0.5 else -1.0


_UNIT, _UNIT2 = CompactBox((0.0,), (1.0,)), CompactBox((0.0, 0.0), (1.0, 1.0))
_IV_CASES = {
    **{f"random-1d-{s}": lambda s=s: random_instance(s, 1).bifunction() for s in (3000, 3003)},
    **{f"random-2d-{s}": lambda s=s: random_instance(s, 2).bifunction() for s in (3101, 3110)},
    "expression-2d": lambda: Bifunction(parse_expression("abs(y_1 - 0.4) - abs(x_1 - 0.4) + 0.5 * (y_2 - x_2)"), _UNIT2),
    # f = -1 on the closed set {y_1 <= 1/2}, 1 just above: the ladders at y_1 = 1/2 go on at every rung
    "jump-1d": lambda: Bifunction(parse_expression("piecewise(y_1 <= 0.5, -1, 1)"), _UNIT),
    "jump-2d": lambda: Bifunction(parse_expression("piecewise(y_1 <= 0.5, -1, 1)"), _UNIT2),
    # not finite at almost every lattice pair
    "overflow": lambda: Bifunction(parse_expression("1e300 * 1e300 * (y_1 - x_1)"), _UNIT),
    # finite on the lattice, not finite on a band between lattice points that the ladders' candidates reach
    "overflow-band": lambda: Bifunction(
        parse_expression("piecewise(abs(y_1 - 0.62) < 0.02, 1e300 * 1e300 * (y_1 + 1), y_1 - x_1)"), _UNIT
    ),
    # the loop alone: exact scalars and a plain callable
    "remark": lambda: remark_bifunction_instance().payload,
    "callable-jump": lambda: Bifunction(_jump, _UNIT),
}


def _iv_outcome(check, f: Bifunction) -> tuple:
    try:
        rep = check(f, Grid(f.domain, (11,) * f.domain.dim))
    except QuasieqError as exc:
        return type(exc), str(exc)
    return rep.verdict, rep.witness, rep.samples_used, rep.tolerance


class TestConditionIvBatchDifferential:
    """The batch path of condition_iv gives the report, or the exception, of the probe-by-probe loop."""

    @pytest.mark.parametrize("name", sorted(_IV_CASES))
    def test_reports_equal_the_loop(self, name):
        f = _IV_CASES[name]()
        assert _iv_outcome(check_condition_iv, f) == _iv_outcome(reference_check_condition_iv, f)

    @pytest.mark.parametrize("name, outcome, batched", [
        ("jump-1d", FAIL, True),
        ("jump-2d", FAIL, True),
        ("overflow", NonFiniteValueError, True),
        ("overflow-band", NonFiniteValueError, True),
        ("remark", NO_VIOLATION_FOUND, False),
        ("callable-jump", FAIL, False),
    ])
    def test_cases_reach_their_outcome(self, name, outcome, batched):
        f = _IV_CASES[name]()
        assert (_pair_values(f) is not None) == batched
        assert _iv_outcome(check_condition_iv, f)[0] == outcome

    def test_a_random_candidate_hit_replays_one_ladder(self, monkeypatch):
        f = _IV_CASES["random-2d-3101"]()
        calls = []
        pair_ball_candidates = sampling.pair_ball_candidates
        monkeypatch.setattr(sampling, "pair_ball_candidates", lambda *a: calls.append(a[:2]) or pair_ball_candidates(*a))
        assert check_condition_iv(f, Grid(f.domain, (11, 11))).verdict == NO_VIOLATION_FOUND
        # the loop ran a few ladders that a random candidate carried on, each from its first rung, not the others
        ladders = {centre for centre in calls}
        assert 0 < len(ladders) < 100 and len(calls) < 4 * len(ladders)

    def test_no_value_is_drawn_twice(self):
        stream, plain = sampling.DrawStream(7), random.Random(7)
        first = stream.take(5).tolist()
        assert first + [stream.random() for _ in range(3)] == [plain.random() for _ in range(8)]
        state, stream.cursor = stream.getstate(), 2
        assert stream.take(3).tolist() == first[2:] and stream.getstate() == state

    def test_values_before_the_cursor_are_dropped(self):
        stream, plain = sampling.DrawStream(7), random.Random(7)
        drawn = [v for _ in range(10) for v in stream.take(500).tolist()]
        assert drawn == [plain.random() for _ in range(5000)] and len(stream.kept) < 2000
