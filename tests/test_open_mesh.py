"""Separable scans on the grid's open mesh against the (dim, N) columns path they replaced.

``fixed_table``, the objective table and ``check_diagonal_zero`` read the open mesh ``np.ix_(*grid.axes)``: each
bound and h in the shape of the axes it reads.  The references below evaluate every bound and h over the columns of
``grid_coords(grid)``, as the package did before, and must give the same bits, the same errors and the same points.
"""

import gc
import importlib.util
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasieq import sampling, solver
from quasieq.bifunction import Bifunction, ObjectiveFunction, check_diagonal_zero, make_opt_bifunction
from quasieq.errors import InstanceDefinitionError, NonFiniteValueError
from quasieq.expressions import Expression, parse_expression
from quasieq.geometry import CompactBox, Grid, Root2, grid_coords
from quasieq.setmap import SetValuedMap, fixed_table
from quasieq.solver import SolverConfig, solve_qep, solve_qopt

# per dimension: (lower, upper) texts of bounds that read every axis, one axis or none (a constant)
BOUNDS = {
    1: {"every": (["0.25*x_1 + 0.125"], ["0.75*x_1 + 0.375"]), "none": (["0.25"], ["0.625"])},
    2: {
        "every": (["0.25*x_1 - 0.125*x_2 + 0.25", "0.5*x_2 - 0.25*x_1 + 0.125"],
                  ["0.25*x_1 + 0.125*x_2 + 0.5", "0.5*x_2 + 0.25*x_1 + 0.375"]),
        "one": (["0.5*x_2 - 0.25", "0.25"], ["0.5*x_2 + 0.25", "0.5*x_1 + 0.375"]),
        "none": (["0.125", "0.25"], ["0.75", "0.5"]),
    },
    3: {
        "every": (["0.25*x_1 - 0.125*x_2 + 0.125*x_3 + 0.125", "0.5*x_2 - 0.25*x_3 + 0.25", "0.25*x_3 + 0.125*x_1"],
                  ["0.25*x_1 + 0.125*x_2 + 0.5", "0.5*x_2 + 0.25*x_3 + 0.25", "0.25*x_3 + 0.125*x_1 + 0.5"]),
        "one": (["0.5*x_2 - 0.25", "0.5*x_3 - 0.125", "0.25"], ["0.5*x_2 + 0.25", "0.5*x_3 + 0.375", "0.5*x_1 + 0.5"]),
        "none": (["0.125", "0.25", "0.375"], ["0.75", "0.5", "0.875"]),
    },
}
OBJECTIVES = {
    1: ["abs(x_1 - 0.375)", "0.5"],
    2: ["max(x_1 - 0.5*x_2, 0.25*x_2 - x_1)", "abs(x_2 - 0.375)", "0.5"],
    3: ["max(x_1 - 0.5*x_2, 0.25*x_3 - x_1) + abs(x_3 - 0.25)", "abs(x_2 - 0.375)", "0.5"],
}
FLOAT_GRIDS = {1: (401,), 2: (41, 33), 3: (13, 11, 9)}
EXACT_GRIDS = {1: (17,), 2: (7, 5), 3: (5, 4, 3)}


def _box(dim: int, exact: bool) -> CompactBox:
    if exact:  # sqrt(2)/2 as an upper end: coordinates with an irrational part
        return CompactBox((Root2(0),) * dim, (Root2(0, Fraction(1, 2)),) * (dim - 1) + (Root2(1),))
    return CompactBox((0.0,) * dim, (1.0,) * dim)


def _map(dim: int, reads: str, exact: bool, callable_bounds: bool) -> SetValuedMap:
    lower, upper = ([parse_expression(t) for t in texts] for texts in BOUNDS[dim][reads])
    if callable_bounds:  # the per-point loop
        lower, upper = ([lambda x, e=e: e(x) for e in fns] for fns in (lower, upper))
    return SetValuedMap(_box(dim, exact), lower, upper)


def _columns_bounds(K: SetValuedMap, X: np.ndarray) -> tuple:
    """Every bound over the columns of X into (dim, N) arrays, clipped; and where they were all finite before."""
    lo, hi = np.empty(X.shape, dtype=X.dtype), np.empty(X.shape, dtype=X.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K.domain.dim):
            for out, fn in ((lo, K.lower_fns[k]), (hi, K.upper_fns[k])):
                out[k] = fn.eval_batch(X) if isinstance(fn, Expression) else [fn(x) for x in zip(*X.tolist())]
    finite = np.ones(X.shape[1], dtype=bool)
    if X.dtype != object:
        finite = np.isfinite(lo).all(axis=0) & np.isfinite(hi).all(axis=0)
    np.maximum(lo, np.asarray(K.domain.lower, dtype=X.dtype)[:, None], out=lo)
    np.minimum(hi, np.asarray(K.domain.upper, dtype=X.dtype)[:, None], out=hi)
    return lo, hi, finite


def _columns_fixed_table(K: SetValuedMap, grid: Grid, delta: float) -> tuple:
    """``fixed_table`` over the (dim, N) columns of ``grid_coords``: the reference."""
    X, snap = grid_coords(grid), K.domain.snap()
    lo, hi, _finite = _columns_bounds(K, X)
    residuals = np.zeros(X.shape[1], dtype=X.dtype)
    for k in range(grid.dim):
        np.maximum(residuals, lo[k] - X[k], out=residuals)
        np.maximum(residuals, X[k] - hi[k], out=residuals)
    np.maximum(residuals, 0.0, out=residuals)
    fixed = np.flatnonzero(residuals <= delta + snap)
    spans = np.empty((len(fixed), grid.dim, 2), dtype=np.intp)
    for k, ax in enumerate(grid.axes):
        spans[:, k, 0] = np.searchsorted(ax, lo[k, fixed] - snap, side="left")
        spans[:, k, 1] = np.searchsorted(ax, hi[k, fixed] + snap, side="right")
    return fixed, residuals[fixed].astype(float), spans


_CASES = [(dim, reads) for dim in (1, 2, 3) for reads in BOUNDS[dim]]


class TestBitIdentity:
    @pytest.mark.parametrize("callable_bounds", [False, True], ids=["expressions", "callables"])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "root2"])
    @pytest.mark.parametrize("dim, reads", _CASES)
    def test_fixed_table_matches_the_columns_path(self, dim, reads, exact, callable_bounds):
        K = _map(dim, reads, exact, callable_bounds)
        grid = Grid(K.domain, (EXACT_GRIDS if exact else FLOAT_GRIDS)[dim])
        for delta in (0.0, 0.05):
            fixed, residuals, spans = fixed_table(K, grid, delta)
            want_fixed, want_residuals, want_spans = _columns_fixed_table(K, grid, delta)
            assert len(want_fixed) > 0
            assert fixed.dtype == spans.dtype == np.intp and residuals.dtype == float
            assert np.array_equal(fixed, want_fixed) and np.array_equal(spans, want_spans)
            assert residuals.tobytes() == want_residuals.tobytes()  # bits, signs of zero included

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "root2"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_objective_table_matches_the_columns_path(self, dim, exact):
        grid = Grid(_box(dim, exact), (EXACT_GRIDS if exact else FLOAT_GRIDS)[dim])
        X = grid_coords(grid)
        for text in OBJECTIVES[dim]:
            e = parse_expression(text)
            for h in (ObjectiveFunction(e), ObjectiveFunction(lambda x, e=e: e(x))):
                table = solver._objective_table(h, grid)
                want = np.broadcast_to(np.asarray(e.eval_batch(X), dtype=X.dtype), X.shape[1:]).reshape(grid.points_per_axis)
                assert table.shape == grid.points_per_axis and table.dtype == X.dtype
                if exact:
                    assert table.tolist() == want.tolist()
                else:
                    assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_diagonal_zero_matches_the_columns_path(self, dim):
        grid = Grid(_box(dim, False), FLOAT_GRIDS[dim])
        X = grid_coords(grid)
        # not zero on the diagonal past x_dim = 1/2, which the last axis alone decides: the first such point is the witness
        terms = [f"(y_{k} - x_{k})" for k in range(1, dim + 1)] + [f"piecewise(x_{dim} > 0.5, 0.001, 0)"]
        f = Bifunction(parse_expression(" + ".join(terms)), grid.box)
        bad = np.flatnonzero(~(np.abs(f.fn.eval_batch(X, X)) <= sampling.tolerance(False)))
        rep = check_diagonal_zero(f, grid)
        assert rep.samples_used == bad[0] + 1
        assert rep.witness["x"] == tuple(X[:, bad[0]].tolist()) and rep.witness["x"][-1] > 0.5
        h = ObjectiveFunction(parse_expression(OBJECTIVES[dim][0]))
        rep = check_diagonal_zero(make_opt_bifunction(h, grid.box), grid)
        assert (rep.witness, rep.samples_used) == (None, grid.size())


def _first_column(X: np.ndarray, flags: np.ndarray) -> tuple:
    return tuple(X[:, np.flatnonzero(flags)[0]].tolist())


class TestFirstOffender:
    """Errors name the first offending point in lexicographic order, as the columns path did, when the offending bound
    or objective reads one axis: its small array's first offender is not the grid's."""

    GRIDS = {2: (9, 11), 3: (5, 9, 7)}

    @staticmethod
    def _solvers(h: ObjectiveFunction, K: SetValuedMap, cfg: SolverConfig):
        return (lambda: solve_qopt(h, K, cfg), lambda: solve_qep(make_opt_bifunction(h, K.domain), K, cfg))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_bound(self, dim):
        lower, upper = BOUNDS[dim]["one"]
        upper = [*upper[:-1], "piecewise(x_2 <= 0.5, 1, power(1e200 * x_2, 2))"]  # reads x_2 alone
        K = SetValuedMap(_box(dim, False), [parse_expression(t) for t in lower], [parse_expression(t) for t in upper])
        cfg = SolverConfig(Grid(K.domain, self.GRIDS[dim]))
        X = grid_coords(cfg.grid)
        point = _first_column(X, ~_columns_bounds(K, X)[2])
        assert point[0] == 0.0 and point[1] > 0.5
        for solve in self._solvers(ObjectiveFunction(parse_expression(OBJECTIVES[dim][0])), K, cfg):
            with pytest.raises(NonFiniteValueError) as caught:
                solve()
            assert str(caught.value) == f"a map bound is not finite at grid point {point}"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_image(self, dim):
        lower, upper = BOUNDS[dim]["one"]
        lower = ["piecewise(x_2 < 0.6, 0, 0.95)", *lower[1:]]  # reads x_2 alone; the image of axis 1 empties
        upper = ["0.9", *upper[1:]]
        K = SetValuedMap(_box(dim, False), [parse_expression(t) for t in lower], [parse_expression(t) for t in upper])
        cfg = SolverConfig(Grid(K.domain, self.GRIDS[dim]))
        X = grid_coords(cfg.grid)
        lo, hi, _finite = _columns_bounds(K, X)
        point = _first_column(X, (lo > hi).any(axis=0))
        assert point[0] == 0.0 and point[1] >= 0.6
        for solve in self._solvers(ObjectiveFunction(parse_expression(OBJECTIVES[dim][0])), K, cfg):
            with pytest.raises(InstanceDefinitionError) as caught:
                solve()
            assert str(caught.value) == f"image of grid point {point} is empty after clipping"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_objective(self, dim):
        K = _map(dim, "one", False, False)
        cfg = SolverConfig(Grid(K.domain, self.GRIDS[dim]))
        e = parse_expression("piecewise(x_2 <= 0.5, x_2, power(1e200 * x_2, 2))")  # reads x_2 alone
        X = grid_coords(cfg.grid)
        with np.errstate(over="ignore"):
            point = _first_column(X, ~np.isfinite(np.broadcast_to(e.eval_batch(X), X.shape[1:])))
        assert point[0] == 0.0 and point[1] > 0.5
        for solve in self._solvers(ObjectiveFunction(e), K, cfg):
            with pytest.raises(NonFiniteValueError) as caught:
                solve()
            assert str(caught.value) == f"the objective is not finite at grid point {point}"


def _box3d(seed: int) -> tuple:
    """(h, K, cfg) of perfbench's 3-D moving-box objective spec at 61**3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    inst = workloads.specfile.build_instance(workloads.specfile.load_spec(workloads.box3d_spec(seed)))
    return inst.payload, inst.K, inst.config((61, 61, 61))


def test_box3d_solve_peak_memory_per_point():
    # the bounds stay in the shape of the one axis each reads, and no (dim, N) array of points is built
    h, K, cfg = _box3d(49)
    solve_qopt(h, K, cfg)  # the expressions compile once, outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        assert solve_qopt(h, K, cfg).solutions
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * cfg.grid.size()  # 96 bytes per point over the columns path
