import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieq.bifunction import Bifunction
from quasieq.errors import NonFiniteValueError, ParseError
from quasieq import expressions
from quasieq.cli import main
from quasieq.expressions import (
    BRACKET_LEVELS,
    MAX_DEPTH,
    Bin,
    Call,
    Cmp,
    Expression,
    Neg,
    Num,
    Piecewise,
    Var,
    _same_tree,
    parse_expression,
)
from quasieq.geometry import CompactBox, Grid, grid_coords
from quasieq.solver import _corner_minima

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x_1 $ 2", "unexpected character '$'"),
            ("abs(x_1, 2)", "abs takes 1 argument(s), got 2"),
            ("min(x_1)", "min takes at least 2 arguments"),
            ("piecewise(x_1, 1, 2)", "expected a comparison operator, found ','"),
            ("(x_1 + 1", "expected ')', found end of input"),
            ("abs(x_1 x_1)", "expected ')', found 'x_1'"),
            ("piecewise(x_1", "expected a comparison operator, found end of input"),
        ],
    )
    def test_parse_error_names_the_fault(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert str(err.value).startswith(message)


def _sum_text(n: int) -> str:
    """1*x_1 + 2*x_1 + ... + n*x_1: n - 1 chained operators over products, n levels deep."""
    return " + ".join(f"{k}*x_1" for k in range(1, n + 1))


class TestDepthLimit:
    @pytest.mark.parametrize("n", [201, 1000])
    def test_long_sums_evaluate_alike(self, n):
        e = parse_expression(_sum_text(n))
        X = np.linspace(-1.0, 1.0, 9)[None, :]
        values = [e((x,)) for x in X[0].tolist()]
        summed = [functools.reduce(lambda acc, k: acc + k * x, range(2, n + 1), 1 * x) for x in X[0].tolist()]
        assert values == e.eval_batch(X).tolist() == summed
        # the passes over the tree walk a long chain in a loop: no recursion limit is reached
        assert parse_expression(e.to_text()).to_text() == e.to_text()
        assert e == parse_expression(e.to_text()) and e != parse_expression(_sum_text(n).replace("1*x_1", "7*x_1", 1))
        assert e.finite_subterms([X[0]], [X[0]]).all()
        rise, fall = parse_expression(_sum_text(n).replace("x_1", "y_1")).y_directions([X[0]], 1)
        assert rise.all() and not fall.any()

    def test_long_chains_hash_without_recursion(self):
        a, b = parse_expression(_sum_text(1000)).ast, parse_expression(_sum_text(1000)).ast
        assert a is not b and _same_tree(a, b) and hash(a) == hash(b)
        changed = parse_expression(_sum_text(1000).replace("1*x_1", "7*x_1", 1)).ast
        assert not _same_tree(a, changed) and hash(changed) != hash(a)
        # trees that _same_tree finds equal hash equal: Num(-0.0) == Num(0.0), and a call's argument tuples
        zero, minus_zero = (Call("min", (Var("x_1"), Num(2.0), Bin("*", Num(z), Var("y_1")))) for z in (0.0, -0.0))
        assert _same_tree(zero, minus_zero) and hash(zero) == hash(minus_zero)

    def test_long_chains_compare_without_recursion(self):
        # a node's own == goes through _same_tree: the dataclasses' == recursed one frame per level
        a, b = parse_expression(_sum_text(1000)).ast, parse_expression(_sum_text(1000)).ast
        changed = parse_expression(_sum_text(1000).replace("1*x_1", "7*x_1", 1)).ast
        assert a is not b and a == b and len({a, b}) == 1
        assert a != changed and not a == changed and len({a, changed}) == 2
        # nodes of different kinds are unequal, at the root and below it, without looping
        assert Num(1.0) != Var("x_1") and Bin("+", Num(1.0), Var("x_1")) != Bin("+", Var("x_1"), Num(1.0))
        assert not _same_tree(Num(1.0), Var("x_1")) and Num(1.0) != 1.0

    @pytest.mark.parametrize(
        "text",
        [
            _sum_text(MAX_DEPTH),
            " + ".join(["x_1"] * (MAX_DEPTH + 1)),
            "(" * (MAX_DEPTH // BRACKET_LEVELS) + "x_1" + ")" * (MAX_DEPTH // BRACKET_LEVELS),
            "-" * (MAX_DEPTH // BRACKET_LEVELS) + "x_1",
            "abs(" * (MAX_DEPTH // BRACKET_LEVELS) + "x_1" + ")" * (MAX_DEPTH // BRACKET_LEVELS),
            "max(" * (MAX_DEPTH // BRACKET_LEVELS) + "x_1" + ", 0.5)" * (MAX_DEPTH // BRACKET_LEVELS),
        ],
        ids=["products", "variables", "brackets", "minuses", "calls", "max"],
    )
    def test_at_the_limit_parses_and_one_level_more_does_not(self, text):
        e = parse_expression(text)
        X = np.array([[-0.75, 0.5, 2.0]])
        assert [e((x,)) for x in X[0].tolist()] == np.broadcast_to(e.eval_batch(X), 3).tolist()
        deeper = {"+": f"{text} + x_1", "(": f"({text})", "-": f"-{text}", "a": f"abs({text})", "m": f"max({text}, 0)"}
        for more in deeper.values():
            with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
                parse_expression(more)

    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "x_1" + ")" * 3000, "-" * 5000 + "x_1", " + ".join(["x_1"] * 5000), "x_1 - (" * 100 + "x_1" + ")" * 100]
    )
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse_expression(text)

    def test_number_too_large_for_a_float(self):
        e = parse_expression("min(1e400, x_1) - 1e999")
        assert e.to_text() == "min(1e999, x_1) - 1e999" and parse_expression(e.to_text()) == e
        assert math.isinf(e.eval_batch(np.array([[0.5]]))[0])
        with pytest.raises(NonFiniteValueError, match="overflows"):
            e((0.5,))
        assert parse_expression("min(1e400, x_1)")((0.5,)) == 0.5


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


# 1e300 * (y_1 - x_1) * 1e300 is +inf wherever y_1 > x_1 and the subtrahend is +inf wherever y_2 < x_2,
# so the difference is NaN inside a block whose two extreme corners clip to the finite -5 and 5
CLIPPED_NAN = "max(min(1e300*(y_1 - x_1)*1e300 - (-1e300)*(y_2 - x_2)*1e300, 5), -5)"


@st.composite
def _blocks(draw):
    """A 3-D float grid, a few of its points in lexicographic order and an index block of the grid for each."""
    lower = [draw(st.floats(-2.0, 1.0)) for _ in range(3)]
    upper = [lo + draw(st.floats(0.25, 3.0)) for lo in lower]
    ppa = [draw(st.integers(2, 5)) for _ in range(3)]
    size = ppa[0] * ppa[1] * ppa[2]
    fixed = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=6)))
    spans = [[sorted(draw(st.lists(st.integers(0, m), min_size=2, max_size=2, unique=True))) for m in ppa] for _ in fixed]
    return lower, upper, ppa, fixed, spans


class TestCornerMinima:
    """Wherever the monotonicity pass lets the solver take a row's minimum at one corner of its block, that value is the block's minimum from ``Bifunction.row``, down to the sign of a zero."""

    @given(_asts, _blocks())
    @example(parse_expression(CLIPPED_NAN).ast, ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [11, 11, 2], [2], [[[0, 11], [0, 11], [0, 2]]]))
    @example(parse_expression("0.5 * (y_1 - x_1) - 2 * (y_2 - x_2) + max(y_3, y_3 / 4 - 1)").ast,
             ([-1.0, -1.0, 0.0], [1.0, 1.0, 1.0], [5, 5, 3], [0, 31, 74], [[[0, 5], [0, 5], [0, 3]]] * 3))
    @settings(max_examples=300, deadline=None)
    def test_claimed_corner_is_the_block_minimum(self, ast, block):
        e = parse_expression(Expression(ast, "", frozenset()).to_text())
        lower, upper, ppa, fixed, spans = block
        C = CompactBox(tuple(lower), tuple(upper))
        grid = Grid(C, tuple(ppa))
        X = grid_coords(grid)
        fixed, spans = np.array(fixed, dtype=np.intp), np.array(spans, dtype=np.intp)
        with np.errstate(all="ignore"):  # non-finite values never get a corner; the block keeps them
            taken, minima = _corner_minima(e, grid, X, fixed, spans)
            cube = X.reshape((3,) + tuple(ppa))
            for j in np.flatnonzero(taken):
                Y = cube[(slice(None),) + tuple(slice(s, t) for s, t in spans[j])].reshape(3, -1)
                want = Bifunction(e, C).row(tuple(X[:, fixed[j]].tolist()), Y).min()
                assert minima[j] == want, (e.to_text(), X[:, fixed[j]], spans[j], minima[j], want)
                assert math.copysign(1, minima[j]) == math.copysign(1, want)

    @pytest.mark.parametrize("text", [
        "abs(y_1 - x_1)",
        "power(y_1 - x_1, 2)",
        "y_1 * y_2",
        "piecewise(y_1 <= x_1, x_1 - y_1, y_1 - x_1)",
        "max(0.0 + (1.0) * (y_1 - x_1), 0.0 + (-1.0) * (y_1 - x_1))",
        "(y_1 - x_1) - y_1",
    ])
    def test_unknown_directions(self, text):
        x = [np.linspace(0.0, 1.0, 5)] * 2
        rise, fall = parse_expression(text).y_directions(x, 2)
        assert (rise & fall)[:, 0].all()

    def test_directions_follow_sign_and_branch(self):
        x = [np.array([-1.0, 0.0, 2.0]), np.array([0.5, 0.5, 0.5])]
        e = parse_expression("piecewise(x_1 < 1, (x_1 - 0.5) * (y_1 - x_1), y_2 / -4)")
        rise, fall = e.y_directions(x, 2)
        assert rise.tolist() == [[False, False], [False, False], [False, False]]
        assert fall.tolist() == [[True, False], [True, False], [False, True]]

    def test_nan_factor_is_not_finite(self):
        """A NaN factor makes its product NaN at every y, so the finiteness rule refuses the corner whatever the directions say."""
        x, y = [np.array([0.5, 1.0])] * 2, [np.array([0.25, 2.0])] * 2
        with np.errstate(invalid="ignore"):
            assert not parse_expression("(x_1 * 1e400 - x_1 * 1e400) * y_1 + y_2").finite_subterms(x, y).any()


# -- the monotonicity pass against its select-always form ------------------

# constants that overflow a product to inf, and an inf - inf to NaN, or make a factor zero
_wide_asts = st.recursive(_constants | st.sampled_from([0.0, -0.0, 1e300, -1e300]).map(Num) | _variables, _extend, max_leaves=16)
_coords = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -3.0, 1e300, -1e300, math.inf, math.nan])


def _select_always_link(link, rise, fall, left_axes, x, dim):
    """``expressions._link_directions`` as it was before the one-sign shortcut: every flip goes through ``np.where``."""
    right_axes = expressions._y_axes(link.right)
    axes = left_axes | right_axes
    if not axes:
        return np.zeros(dim, dtype=bool), np.zeros(dim, dtype=bool), axes
    if link.op in "+-":
        right_rise, right_fall = expressions._directions(link.right, x, dim)
        if link.op == "-":
            right_rise, right_fall = right_fall, right_rise
        return rise | right_rise, fall | right_fall, axes
    if left_axes and right_axes:
        reads = np.array([k in axes for k in range(dim)])
        return reads, reads, axes
    if left_axes:
        flip = np.asarray(expressions._walk(link.right, x, ())[0] < 0)[..., None]
    else:
        flip = np.asarray(expressions._walk(link.left, x, ())[0] < 0)[..., None]
        rise, fall = expressions._directions(link.right, x, dim)
    return np.where(flip, fall, rise), np.where(flip, rise, fall), axes


def _two_walk_corners(e, grid, X, fixed, spans):
    """``solver._corner_minima`` as it was before the stacked walk: one ``finite_subterms`` walk per extreme corner."""
    x = X[:, fixed]
    rise, fall = e.y_directions(x, grid.dim)
    first, last = spans[:, :, 0], spans[:, :, 1] - 1
    low = [ax[c] for ax, c in zip(grid.axes, np.where(fall, last, first).T)]
    high = [ax[c] for ax, c in zip(grid.axes, np.where(fall, first, last).T)]
    minima = np.array(np.broadcast_to(e.eval_batch(x, low), len(fixed)), dtype=float)
    taken = ~(rise & fall).any(axis=1) & (minima != 0) & e.finite_subterms(x, low) & e.finite_subterms(x, high)
    return taken, minima


class TestMonotonicityPassDifferential:
    """The one-sign shortcut of the flip factors and the stacked finiteness walk give the booleans of the forms they replace."""

    @given(_wide_asts, st.lists(st.tuples(_coords, _coords, _coords), min_size=1, max_size=6))
    @example(parse_expression("(x_1 - 0.5) * (y_1 - x_1) + y_2 * x_2").ast, [(2.0, 3.0, 0.0), (1.0, 1e300, 0.0)])  # one sign
    @example(parse_expression("(x_1 - 0.5) * (y_1 - x_1) + y_2 * x_2").ast, [(0.0, -3.0, 0.0), (-1.0, -0.5, 0.0)])
    @example(parse_expression("(x_1 - 0.5) * (y_1 - x_1) - x_2 * y_2").ast, [(2.0, -3.0, 0.0), (0.0, 0.5, 0.0)])  # mixed
    @example(parse_expression("(x_1 - x_1) * y_1 + y_2 / -4 * x_2").ast, [(math.inf, math.nan, 0.0), (math.nan, -0.0, 0.0)])  # NaN
    @settings(max_examples=400, deadline=None)
    def test_y_directions_equal_the_select_always_form(self, ast, points):
        e = parse_expression(Expression(ast, "", frozenset()).to_text())
        x = list(np.array(points, dtype=float).T)
        with np.errstate(all="ignore"):
            rise, fall = e.y_directions(x, 3)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(expressions, "_link_directions", _select_always_link)
                want_rise, want_fall = e.y_directions(x, 3)
        assert rise.tolist() == want_rise.tolist() and fall.tolist() == want_fall.tolist(), e.to_text()

    @given(_wide_asts, _blocks())
    @example(parse_expression(CLIPPED_NAN).ast, ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [11, 11, 2], [2, 60], [[[0, 11], [0, 11], [0, 2]]] * 2))
    # finite at the low corner, y_1 = 0, and a subterm inf at the high corner, y_1 = 1
    @example(parse_expression("min(max(y_1 - 0.5, 0) * 1e300 * 1e300, 5) + 1").ast, ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [5, 5, 2], [12], [[[0, 5], [0, 5], [0, 2]]]))
    @settings(max_examples=300, deadline=None)
    def test_stacked_finiteness_walk_equals_one_walk_per_corner(self, ast, block):
        e = parse_expression(Expression(ast, "", frozenset()).to_text())
        lower, upper, ppa, fixed, spans = block
        grid = Grid(CompactBox(tuple(lower), tuple(upper)), tuple(ppa))
        fixed, spans = np.array(fixed, dtype=np.intp), np.array(spans, dtype=np.intp)
        with np.errstate(all="ignore"):
            taken, minima = _corner_minima(e, grid, grid_coords(grid), fixed, spans)
            want_taken, want_minima = _two_walk_corners(e, grid, grid_coords(grid), fixed, spans)
        assert taken.tolist() == want_taken.tolist(), e.to_text()
        assert minima.tobytes() == want_minima.tobytes()


class TestLazyCompile:
    """Each evaluator is compiled on its first call, by the one ``_compile``."""

    def test_scalar_after_batch_compiles_and_equals_eager(self, monkeypatch):
        text = "piecewise(x_1 < 0.5, power(y_1 - x_1, 3), max(x_1, -y_1)) / 4"
        e, compiled = parse_expression(text), []
        real = expressions._compile
        monkeypatch.setattr(expressions, "_compile", lambda node, batch: compiled.append(batch) or real(node, batch))
        X, Y = np.array([[0.25, 0.75, -1.0]]), np.array([[2.0, -0.5, 0.0]])
        batch = e.eval_batch(X, Y)
        assert compiled == [True]
        scalar = [e((x,), (y,)) for x, y in zip(X[0].tolist(), Y[0].tolist())]
        assert compiled == [True, False]  # each once, however often it is called
        eager = real(e.ast, batch=False)
        assert scalar == [eager((x,), (y,)) for x, y in zip(X[0].tolist(), Y[0].tolist())] == batch.tolist()

    def test_cli_solve_compiles_only_the_batch_evaluators_it_runs(self, tmp_path, monkeypatch):
        # exprbif_spec(3) of perfbench: four map bounds and the payload, each evaluated in batches only
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, loader.name, workloads)  # its dataclasses look their module up
        loader.loader.exec_module(workloads)
        spec = tmp_path / "exprbif-3.spec"
        spec.write_text(workloads.exprbif_spec(3), encoding="utf-8")
        compiled, real = [], expressions._compile
        monkeypatch.setattr(expressions, "_compile", lambda node, batch: compiled.append(batch) or real(node, batch))
        assert main(["solve", str(spec), "--format", "json", "--grid", "121", "--out", str(tmp_path / "r.json")]) == 0
        assert compiled == [True] * 5
