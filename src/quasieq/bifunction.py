"""Bifunctions f: C x C -> R, adapters, and sampled hypothesis checkers.

Two adapters reduce other problem classes to bifunction form: an objective
function h yields f(x, y) = h(y) - h(x), and a finite-vertex operator T yields
f(x, y) = max over the vertex list of <v, y - x>, an ``Expression`` when the
vertices are.

An objective's or a bifunction's ``fn`` may be an ``Expression``; it is then
evaluated in batches because it is one.  Nothing declares the scalar field:
f works over exact Q[sqrt(2)] scalars exactly when its domain box does.

The checkers are falsifiers with verdicts FAIL / NO_VIOLATION_FOUND.  They run
deterministic structured probes (coarse lattices, segment midpoints, and for
exact scalars a sqrt(2)-witness family) before seeded random trials, so
measure-zero witnesses are found reproducibly; each chunk's combined points
come from one ``geometry.convex_combinations``.  Their budgets and tolerances
are ``sampling`` constants: f-values are compared with tolerance 0 over exact
scalars and ``sampling.FLOAT_TOL`` over floats.  Only ``trials`` and ``seed``
are parameters.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .errors import InstanceDefinitionError
from .expressions import Expression, parse_expression
from .geometry import CompactBox, Grid, Point, contains, convex_combinations, mesh_points, point_columns
from .setmap import FAIL, NO_VIOLATION_FOUND


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str  # ii | iii | iv | qcvx_second | qccv_first | diagonal_zero
    verdict: str
    witness: Optional[dict]
    samples_used: int
    tolerance: float

    def __post_init__(self) -> None:
        assert (self.verdict == FAIL) == (self.witness is not None)
        object.__setattr__(self, "tolerance", float(self.tolerance))  # an exact check's int 0 reads 0.0


def _column(values, at) -> np.ndarray:
    """A batch result as a writable array in the dtype and broadcast shape of coordinates ``at``, (dim, N) or a mesh."""
    return np.full(np.broadcast(*at).shape, values, dtype=at[0].dtype)


class ObjectiveFunction:
    """A real-valued objective h on C; an ``Expression`` as ``fn`` is evaluated in batches."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, x: Point):
        return self.fn(x)

    def eval_batch(self, at) -> np.ndarray:
        """h at every point of coordinates ``at``, as ``_column``; a callable sees each point as a tuple of Python scalars."""
        if isinstance(self.fn, Expression):
            return _column(self.fn.eval_batch(at), at)
        return np.array([self.fn(x) for x in mesh_points(at)[1]], dtype=at[0].dtype).reshape(np.broadcast(*at).shape)


class QviOperator:
    """Finite vertex lists v_1(x), ..., v_m(x) of dual vectors, from a callable or from expressions in x."""

    def __init__(self, vertex_fn: Callable, vertex_exprs: Optional[Sequence[Sequence[Expression]]] = None) -> None:
        self.vertex_fn = vertex_fn
        self.vertex_exprs = tuple(tuple(v) for v in vertex_exprs) if vertex_exprs else None

    @classmethod
    def constant(cls, vertices: Sequence[Sequence[float]]) -> QviOperator:
        return cls.from_expressions([[parse_expression(repr(float(c))) for c in v] for v in vertices])

    @classmethod
    def from_expressions(cls, vertex_exprs: Sequence[Sequence[Expression]]) -> QviOperator:
        if not vertex_exprs:
            raise InstanceDefinitionError("vertex list must be nonempty")

        def vertex_fn(x: Point, _ve=tuple(tuple(v) for v in vertex_exprs)):
            return tuple(tuple(e(x) for e in vert) for vert in _ve)

        return cls(vertex_fn, vertex_exprs=vertex_exprs)

    def vertices(self, x: Point) -> tuple:
        verts = tuple(self.vertex_fn(x))
        if not verts:
            raise InstanceDefinitionError(f"empty vertex list at {x}")
        return verts

    def scaled(self, factor: float) -> QviOperator:
        """The operator of expressions with every vertex multiplied by factor, as ``factor * (v_k)``."""
        texts = [[f"{float(factor)!r} * ({e.to_text()})" for e in v] for v in self.vertex_exprs]
        return QviOperator.from_expressions([[parse_expression(t) for t in v] for v in texts])


class Bifunction:
    """An evaluable pairing f(x, y) -> scalar over C x C.

    ``row`` evaluates f(x, .) over a (dim, M) array of second arguments,
    floats or ``Root2`` objects, and equals mapping ``eval`` to the bit on
    floats and exactly on ``Root2``: an ``Expression`` as ``fn`` is evaluated
    in one batch (row == eval is tested on random expressions,
    tests/test_expressions.py), and a plain callable once per point.  Whether
    f works over exact scalars is read from ``domain.is_exact``.
    ``objective``, when set, declares f separable: f(x, y) = h(y) - h(x) for
    that objective h, so the solvers take the minimum of f(x, .) over an
    image as the minimum of h over it minus h(x).
    """

    def __init__(self, fn: Callable, domain: CompactBox, objective: Optional[ObjectiveFunction] = None) -> None:
        self.fn = fn
        self.domain = domain
        self.objective = objective

    def eval(self, x: Point, y: Point):
        """f(x, y); arguments must lie in C."""
        slack = self.domain.snap()
        if not contains(self.domain, x, slack) or not contains(self.domain, y, slack):
            raise ValueError("bifunction arguments must lie in the domain box")
        return self.fn(x, y)

    def row(self, x: Point, Y: np.ndarray) -> np.ndarray:
        """f(x, y) for every point y (column) of Y, in Y's dtype; a callable sees each y as a tuple of Python scalars."""
        if isinstance(self.fn, Expression):
            return _column(self.fn.eval_batch(x, Y), Y)
        return np.array([self.fn(x, y) for y in zip(*Y.tolist())], dtype=Y.dtype)


def make_opt_bifunction(h: ObjectiveFunction, domain: CompactBox) -> Bifunction:
    """f(x, y) = h(y) - h(x), declared separable with objective h."""

    def fn(x: Point, y: Point):
        return h.fn(y) - h.fn(x)

    return Bifunction(fn, domain, objective=h)


def make_qvi_bifunction(T: QviOperator, domain: CompactBox) -> Bifunction:
    """f(x, y) = max over the vertex list of <v, y - x>, summed from 0.0 in coordinate order, the first maximum kept.

    An operator of expressions gives one ``Expression`` of x and y with these operations in this order.
    """
    if T.vertex_exprs is not None:
        if any(len(v) != domain.dim for v in T.vertex_exprs):
            raise InstanceDefinitionError(f"every vertex must have {domain.dim} coordinate(s)")
        terms = [[f"({e.to_text()}) * (y_{k} - x_{k})" for k, e in enumerate(v, 1)] for v in T.vertex_exprs]
        sums = [" + ".join(["0.0"] + t) for t in terms]
        return Bifunction(parse_expression(sums[0] if len(sums) == 1 else f"max({', '.join(sums)})"), domain)

    def fn(x: Point, y: Point):
        best = None
        for v in T.vertices(x):
            s = 0.0
            for vk, yk, xk in zip(v, y, x):
                s += vk * (yk - xk)
            if best is None or s > best:
                best = s
        return best

    return Bifunction(fn, domain)


# -- condition checkers -----------------------------------------------------


def _pair_values(f: Bifunction) -> Optional[Callable]:
    """(X, Y) -> f at the point pairs of float coordinates that broadcast, where f has a batch form that cannot raise; else None.

    Exact domains and plain callables keep the probe-by-probe loop: a batch
    would evaluate a callable past the first hit, where it could raise
    although the loop returned FAIL.
    """
    if f.domain.is_exact:
        return None
    quiet = np.errstate(over="ignore", invalid="ignore")  # non-finite values are replayed by the loop instead
    h = f.objective
    if h is not None and isinstance(h.fn, Expression):
        return quiet(lambda X, Y: h.eval_batch(Y) - h.eval_batch(X))
    if isinstance(f.fn, Expression):
        return quiet(lambda X, Y: _column(f.fn.eval_batch(X, Y), X))
    return None


def _above_max(v_mid, v1, v2, tol):
    """v_mid > max(v1, v2) + tol at every row, with Python's max (v1 unless v2 > v1) on NaN too."""
    return v_mid > np.where(v2 > v1, v2, v1) + tol


def _below_min(v_mid, v1, v2, tol):
    """v_mid < min(v1, v2) - tol at every row, with Python's min (v1 unless v2 < v1) on NaN too."""
    return v_mid < np.where(v2 < v1, v2, v1) - tol


def _unclear(flagged: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """The rows flagged or with a non-finite value: the probes a batch cannot clear."""
    return flagged | ~np.isfinite(values).all(axis=0)


def _refuse(f: Bifunction, C: CompactBox, trials: int = 1) -> None:
    """ValueError, before any draw or evaluation, on trials outside 1 to ``sampling.TRIALS_BUDGET`` or a box C whose
    scalars are not f.domain's: a check's plan draws its points in C's scalars and its lambdas in f's."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > sampling.TRIALS_BUDGET:
        raise ValueError(f"trials must be at most sampling.TRIALS_BUDGET = {sampling.TRIALS_BUDGET}, got {trials}")
    if C.is_exact != f.domain.is_exact:
        kind = ("a float", "an exact")
        raise ValueError(f"C is {kind[C.is_exact]} box but f's domain is {kind[f.domain.is_exact]} box")


def check_condition_ii(f: Bifunction, C: CompactBox, seed: int = sampling.CHECK_SEED) -> ConditionReport:
    """Convexity of {x in C : f(x, y) >= 0} for sampled y.

    Takes sampled x1, x2 in the level set and checks the segment stays in it.
    """
    _refuse(f, C)
    rng = random.Random(seed)
    xs = sampling.box_lattice(C)
    ys = xs[: sampling.LEVEL_SETS]
    ys += sampling.random_points(C, rng, sampling.LEVEL_SETS - len(ys))
    batch = _pair_values(f)
    X = None if batch is None else point_columns(xs, float)

    def plan():  # lazy: the level set at y is evaluated after the probes of the y before it
        for y in ys:
            vals = None if batch is None else batch(X, point_columns([y], float))  # y broadcasts against every column
            if vals is None or not np.isfinite(vals).all():
                vals = [f.fn(x, y) for x in xs]  # raises where the values are not finite
            yield sampling.level_set_plan(xs, y, vals, rng, f.domain.is_exact)

    def violates(y, x1, x2, lam, mid, tol):
        v = f.fn(mid, y)
        if v < -tol:
            f_x1, f_x2 = f.fn(x1, y), f.fn(x2, y)
            return {"x1": x1, "x2": x2, "lambda": lam, "y": y, "f_x1": f_x1, "f_x2": f_x2, "f_combination": v}
        return None

    def suspects(values, y, x1, x2, mid, tol):
        v = values(mid, y)
        return _unclear(v < -tol, v)

    return _segment_check("ii", f, plan(), 1, violates, suspects)


def check_condition_iii(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """The finite-subset condition: max_i f(x, x_i) >= 0 for x in the convex hull of lattice pairs, then of random subsets."""
    _refuse(f, C, trials)
    tol, batch = sampling.tolerance(f.domain.is_exact), _pair_values(f)
    P, chunks = sampling.subset_plan(C, random.Random(seed + 1), trials)
    pool = list(zip(*P.tolist()))  # the points as tuples, for the witnesses

    def violates(r):  # the subset at row r of the chunk and its combination X[:, r], padding left out
        x, xs = tuple(X[:, r].tolist()), [pool[i] for i in picks[r].tolist() if i >= 0]
        vals = [f.fn(x, xi) for xi in xs]
        worst = max(vals)
        if worst < -tol:
            return dict(subset=xs, weights=weights[r].tolist()[:len(xs)], combination=x, values=vals, max_value=worst)
        return None

    samples = 0
    for picks, weights in chunks:  # a subset a row, padded with index -1 and weight 0
        X, live, unclear = convex_combinations(P, picks, weights), picks >= 0, None
        if batch is not None:  # max_i f(x, x_i) < -tol or a value not finite; padding reads a subset's first point
            Y = P[:, np.where(live, picks, picks[:, :1])]  # (dim, subsets, k)
            V = batch(np.broadcast_to(X[:, :, None], Y.shape), Y)
            unclear = _unclear(functools.reduce(lambda m, v: np.where(v > m, v, m), V.T) < -tol, *V.T)  # Python's max
        n, w = sampling.first_witness(len(picks), violates, unclear)
        samples += int(live[:n].sum())
        if w is not None:
            return ConditionReport("iii", FAIL, w, samples, tol)
    return ConditionReport("iii", NO_VIOLATION_FOUND, None, samples, tol)


def _pair_codes(values: Callable, Q: np.ndarray) -> np.ndarray:
    """condition_iv's ``sampling.settle_ladders`` code of each row of candidate pairs Q[..., 0, :], Q[..., 1, :], an
    (n, candidates, 2, dim) array, with f's batch form ``values``: the count of candidates the loop evaluates, through
    the first with f >= 0, else 0, or -1 where a value is not finite."""
    v = values(np.moveaxis(Q[..., 0, :], -1, 0), np.moveaxis(Q[..., 1, :], -1, 0))
    hit = v >= 0
    return np.where(np.isfinite(v).all(axis=1), np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0), -1)


def check_condition_iv(f: Bifunction, grid: Grid, seed: int = sampling.CHECK_SEED) -> ConditionReport:
    """Falsifier for closedness of {(x, y) : f(x, y) >= 0}.

    Candidates are sampled pairs with f below a margin (2% of the sampled
    value range, so continuous bifunctions are never flagged); the
    refinement search may evaluate off-grid since f is total on C x C.  With
    a batch form of f, the loop runs only what ``sampling.settle_ladders`` cannot settle.
    """
    C = grid.box
    _refuse(f, C)
    rng = sampling.DrawStream(seed + 2)
    lattice = sampling.box_lattice(C)
    pairs = [(x, y) for x in lattice for y in lattice]
    batch = _pair_values(f)
    P = None if batch is None else np.array(lattice, dtype=float)[np.indices((len(lattice),) * 2).reshape(2, -1).T]
    vals = None if P is None else batch(P[:, 0].T, P[:, 1].T).tolist()
    if vals is None or not np.isfinite(vals).all():
        vals = [f.fn(x, y) for x, y in pairs]  # raises where the values are not finite
    samples = len(vals)
    margin = sampling.pair_probe_margin([float(v) for v in vals])
    radii = sampling.pair_probe_radii(C)

    def nonneg_near(xf, yf, r):
        nonlocal samples
        for qx, qy in sampling.rung_candidates((xf, yf), r, C, rng):
            samples += 1
            if f.fn(sampling.float_map_point(f.domain, qx), sampling.float_map_point(f.domain, qy)) >= 0:
                return {"radius": r, "x_prime": qx, "y_prime": qy}
        return None

    flagged = [n for n, v in enumerate(vals) if v <= -margin]
    ladders, table = range(len(flagged)), np.zeros((len(flagged), 1), dtype=np.intp)
    if P is not None:
        P, codes = P[flagged], functools.partial(_pair_codes, batch)
        fixed = lambda i, j: codes(sampling.point_moves(P[i], radii[j], C))
        table, ladders = sampling.settle_ladders(P, radii, C, rng, fixed, lambda i, j, Q: codes(Q))
    done = 0  # ladders done to i - 1 were settled by the batches: add their samples, through each one's last rung
    for i in itertools.chain(ladders, [len(flagged)]):
        samples += int(table[done:i].sum()) + (i - done) * (4 * C.dim + 4)
        if i == len(flagged):
            break
        done = i + 1
        (x, y), v = pairs[flagged[i]], vals[flagged[i]]
        xf, yf = (tuple(float(c) for c in p) for p in (x, y))
        trail = sampling.ladder_search(radii, lambda r: nonneg_near(xf, yf, r))
        if trail is not None:
            witness = {"x": x, "y": y, "f_value": v, "approach": trail, "margin": margin}
            return ConditionReport("iv", FAIL, witness, samples, margin)
    return ConditionReport("iv", NO_VIOLATION_FOUND, None, samples, margin)


def _segment_check(condition_id, f, plan, cost, violates, suspects) -> ConditionReport:
    """The driver of the segment falsifiers: condition_ii, qcvx_second and qccv_first.

    ``plan`` gives chunks (P, rows, lams, spent) in turn: row r probes the point columns ``P[:, i] for i in rows[r]``
    at ``lams[r]``, the last two being the segment's ends and any before them held fixed, and ``spent`` counts the
    f-values that planning the chunk took.  ``violates(*points, lam, mid, tol)`` evaluates f ``cost`` times, mid
    being the segment's point at lam, and returns a witness or None; its arguments, tuples and lams of Python scalars,
    are made row by row, in ``sampling.first_witness``'s order.  Every mid comes from one ``convex_combinations`` of
    the chunk; on float columns, where f has a batch form, ``suspects(values, *columns, mid, tol)`` evaluates the
    chunk with it and gives the rows where ``violates`` is run; on ``Root2`` columns every row is.
    """
    tol = sampling.tolerance(f.domain.is_exact)
    batch = _pair_values(f)
    samples = 0
    for P, rows, lams, spent in plan:
        lam, unclear = lams.tolist(), None
        if P.dtype == object:  # every probe is run, in turn, on one tuple per column; mids are made 1,024 rows ahead
            mids = (m for s in range(0, len(rows), 1024)
                    for m in zip(*convex_combinations(P, rows[s:s + 1024, -2:], lams[s:s + 1024]).tolist()))
            probes = zip(*np.fromiter(zip(*P.tolist()), object, P.shape[1])[rows].T, lam, mids)
        else:  # a tuple is made only for a row that is probed
            columns, M = [P[:, rows[:, c]] for c in range(rows.shape[1])], convex_combinations(P, rows[:, -2:], lams)
            unclear = np.ones(len(rows), dtype=bool) if batch is None else suspects(batch, *columns, M, tol)
            probes = ((*[tuple(P[:, i].tolist()) for i in rows[r]], lam[r], tuple(M[:, r].tolist()))
                      for r in np.flatnonzero(unclear).tolist())
        n, w = sampling.first_witness(len(rows), lambda r: violates(*next(probes), tol), unclear)
        samples += spent + cost * n
        if w is not None:
            return ConditionReport(condition_id, FAIL, w, samples, tol)
    return ConditionReport(condition_id, NO_VIOLATION_FOUND, None, samples, tol)


def check_quasiconvex_second(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """Quasiconvexity of f(x, .): f(x, mid) <= max(f(x,y1), f(x,y2)) + tol."""
    _refuse(f, C, trials)

    def violates(x, y1, y2, lam, mid, tol):
        v_mid = f.fn(x, mid)
        v1, v2 = f.fn(x, y1), f.fn(x, y2)
        if v_mid > max(v1, v2) + tol:
            return {"x": x, "y1": y1, "y2": y2, "lambda": lam, "f_mid": v_mid, "f_y1": v1, "f_y2": v2}
        return None

    def suspects(values, x, y1, y2, mid, tol):
        v_mid, v1, v2 = values(x, mid), values(x, y1), values(x, y2)
        return _unclear(_above_max(v_mid, v1, v2, tol), v_mid, v1, v2)

    exact = f.domain.is_exact
    lead = [sampling.sqrt2_lead(C)] if exact else []  # measure-zero witnesses: irrational y1, y2, a rational midpoint
    plan = sampling.segment_plan(C, random.Random(seed + 3), trials, (0, 1, 2))  # x, y1, y2 drawn in turn
    return _segment_check("qcvx_second", f, itertools.chain(lead, plan), 3, violates, suspects)


def check_quasiconcave_first(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """Quasiconcavity of f(., y): f(mid, y) >= min(f(x1,y), f(x2,y)) - tol."""
    _refuse(f, C, trials)

    def violates(y, x1, x2, lam, mid, tol):
        v_mid = f.fn(mid, y)
        v1, v2 = f.fn(x1, y), f.fn(x2, y)
        if v_mid < min(v1, v2) - tol:
            return {"x1": x1, "x2": x2, "y": y, "lambda": lam, "f_mid": v_mid, "f_x1": v1, "f_x2": v2}
        return None

    def suspects(values, y, x1, x2, mid, tol):
        v_mid, v1, v2 = values(mid, y), values(x1, y), values(x2, y)
        return _unclear(_below_min(v_mid, v1, v2, tol), v_mid, v1, v2)

    plan = sampling.segment_plan(C, random.Random(seed + 4), trials, (2, 0, 1))  # x1, x2, y drawn
    return _segment_check("qccv_first", f, plan, 3, violates, suspects)


def check_diagonal_zero(f: Bifunction, grid: Grid) -> ConditionReport:
    """|f(x, x)| <= tol at every grid x (exactly 0 over exact scalars); FAIL with the first offender."""
    _refuse(f, grid.box)
    tol, mesh = sampling.tolerance(f.domain.is_exact), np.ix_(*grid.axes)

    def violates(r):
        x = next(grid.points_at([r]))
        v = f.fn(x, x)
        return None if abs(v) <= tol else {"x": x, "f_value": v}

    batch = _pair_values(f)  # on the open mesh: h or f over the axes it reads
    samples, w = sampling.first_witness(grid.size(), violates, None if batch is None else ~(np.abs(batch(mesh, mesh)) <= tol).ravel())
    return ConditionReport("diagonal_zero", NO_VIOLATION_FOUND if w is None else FAIL, w, samples, tol)
