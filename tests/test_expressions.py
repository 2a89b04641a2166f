import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieq.errors import NonFiniteValueError, ParseError
from quasieq.expressions import Bin, Call, Cmp, Expression, Neg, Num, Piecewise, Var, parse_expression

_constants = st.floats(-4.0, 4.0, allow_nan=False).map(Num)
_divisors = st.sampled_from([-3.0, -0.5, 0.25, 2.0, 7.0]).map(Num)


def _extend(sub):
    return st.one_of(
        sub.map(Neg),
        st.builds(Bin, st.sampled_from("+-*"), sub, sub),
        st.builds(lambda a, d: Bin("/", a, d), sub, _divisors),
        st.builds(lambda a: Call("abs", (a,)), sub),
        st.builds(
            lambda fn, args: Call(fn, tuple(args)),
            st.sampled_from(["min", "max"]),
            st.lists(sub, min_size=2, max_size=3),
        ),
        st.builds(lambda a, n: Call("power", (a, Num(float(n)))), sub, st.integers(0, 5)),
        st.builds(
            lambda op, left, right, a, b: Piecewise(Cmp(op, left, right), a, b),
            st.sampled_from(["<=", "<", ">=", ">"]),
            sub, sub, sub, sub,
        ),
    )


_variables = st.sampled_from(["x_1", "x_2", "x_3", "y_1", "y_2", "y_3"]).map(Var)
_asts = st.recursive(_constants | _variables, _extend, max_leaves=16)


class TestParseAndEvaluate:
    def test_abs_objective(self):
        e = parse_expression("abs(x_1 - 0.5)")
        assert e((0.0,)) == 0.5
        assert e((0.5,)) == 0.0

    def test_piecewise_bound(self):
        e = parse_expression("piecewise(x_1 <= 1, -1.5*x_1 + 1.5, 0)")
        assert e((0.0,)) == 1.5
        assert e((1.0,)) == 0.0
        assert e((2.0,)) == 0.0

    def test_trailing_operator_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x_1 + ")
        assert err.value.position == 6  # 0-based; the token after the 6 input chars

    def test_power(self):
        e = parse_expression("power(x_1 - 1, 2)")
        assert e((3.0,)) == 4.0

    def test_min_max_nary(self):
        e = parse_expression("max(x_1, 2*x_1 - 1, 0.25)")
        assert e((0.1,)) == 0.25
        assert e((0.9,)) == 0.9

    def test_unary_minus_and_parens(self):
        e = parse_expression("-(x_1 - 1) * 2")
        assert e((0.0,)) == 2.0

    def test_division_constant_divisor(self):
        e = parse_expression("x_1 / 4")
        assert e((1.0,)) == 0.25

    def test_division_nonconstant_divisor_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 / x_1")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x_1 / (2 - 2)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expression("foo(x_1)")
        with pytest.raises(ParseError):
            parse_expression("x_9 + 1")

    def test_power_exponent_must_be_integer_literal(self):
        with pytest.raises(ParseError):
            parse_expression("power(x_1, 0.5)")
        with pytest.raises(ParseError):
            parse_expression("power(x_1, x_1)")

    def test_comparison_only_in_piecewise(self):
        with pytest.raises(ParseError):
            parse_expression("x_1 <= 1")

    def test_variables_collected(self):
        e = parse_expression("x_1 + y_2 * 2")
        assert e.variables == {"x_1", "y_2"}


class TestBatchEvaluation:
    def test_batch_matches_scalar(self):
        texts = [
            "abs(x_1 - 0.5)",
            "piecewise(x_1 <= 1, -1.5*x_1 + 1.5, 0)",
            "max(x_1, 1 - x_1, power(x_1, 2))",
            "min(x_1, 0.7) - x_1 / 2",
        ]
        xs = np.linspace(0.0, 2.0, 41)
        for text in texts:
            e = parse_expression(text)
            batch = e.eval_batch([xs])
            scalars = [e((float(v),)) for v in xs]
            assert np.array_equal(np.asarray(batch, dtype=float), np.asarray(scalars))

    def test_mixed_scalar_array_env(self):
        e = parse_expression("y_1 - x_1")
        ys = np.array([0.0, 0.5, 1.0])
        out = e.eval_batch((0.25,), [ys])
        assert np.array_equal(out, ys - 0.25)


class TestScalarBatchDifferential:
    """Scalar and batch evaluation of random expressions agree exactly, down to the sign of a zero, at every point where the value is finite."""

    POINTS = np.random.default_rng(20260).uniform(-2.0, 2.0, size=(256, 6))

    @given(_asts)
    @example(parse_expression("max(0, min(1, power(x_1, 2000) - power(x_1, 2000)))").ast)  # NaN through min/max
    @example(parse_expression("min(x_1 - x_1, -(x_1 - x_1))").ast)  # a 0.0/-0.0 tie
    @example(parse_expression("max(-(x_1 - x_1), x_1 - x_1)").ast)
    @settings(max_examples=400, deadline=None)
    def test_scalar_equals_batch(self, ast):
        e = parse_expression(Expression(ast, "", frozenset()).to_text())
        X, Y = self.POINTS[:, :3], self.POINTS[:, 3:]
        with np.errstate(all="ignore"):  # overflowing points are skipped below
            batch = np.broadcast_to(e.eval_batch(X.T, Y.T), len(X))
        for i, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
            try:
                v = e(tuple(x), tuple(y))
            except NonFiniteValueError:
                continue
            assert v == batch[i], (e.to_text(), x, y, v, batch[i])
            assert math.copysign(1, v) == math.copysign(1, batch[i]), (e.to_text(), x, y, v, batch[i])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "abs(x_1 - 0.5)",
            "piecewise(x_1 <= 1, -1.5*x_1 + 1.5, 0)",
            "max(0.3*x_1 + 0.1, -1.2*x_1 + 0.4, x_2)",
            "-(x_1 + 2) * (x_1 - 3) + x_1 / 8",
            "power(x_1 - 1, 3)",
        ],
    )
    def test_to_text_reparses_equal(self, text):
        e = parse_expression(text)
        again = parse_expression(e.to_text())
        assert again.ast == e.ast
        assert again.to_text() == e.to_text()
