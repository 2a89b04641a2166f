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
measure-zero witnesses are found reproducibly.  Their budgets and tolerances
are ``sampling`` constants: f-values are compared with tolerance 0 over exact
scalars and ``sampling.FLOAT_TOL`` over floats.  Only ``trials`` and ``seed``
are parameters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .errors import InstanceDefinitionError
from .expressions import Expression, parse_expression
from .geometry import (
    CompactBox,
    Grid,
    Point,
    contains,
    convex_combination,
    grid_coords,
    pair_combination,
    point_columns,
)
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


def _column(values, X: np.ndarray) -> np.ndarray:
    """A batch evaluation's result as a writable array, one value per column of X in X's dtype (a constant expression gives one number)."""
    return np.broadcast_to(np.asarray(values, dtype=X.dtype), X.shape[1:]).copy()


class ObjectiveFunction:
    """A real-valued objective h on C; an ``Expression`` as ``fn`` is evaluated in batches."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, x: Point):
        return self.fn(x)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """h at every point (column) of X, in X's dtype; a callable sees each point as a tuple of Python scalars."""
        if isinstance(self.fn, Expression):
            return _column(self.fn.eval_batch(X), X)
        return np.array([self.fn(x) for x in zip(*X.tolist())], dtype=X.dtype)


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
    """(X, Y) -> f at the column pairs of two float point arrays that broadcast, where f has a batch form that cannot raise; else None.

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


def _midpoints(A: np.ndarray, B: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The batch twin of ``pair_combination(a, b, lam)`` at every column: its products and sum, a == b kept as is."""
    return np.where((A == B).all(axis=0), A, A * lam + B * (1.0 - lam))


def _above_max(v_mid, v1, v2, tol):
    """v_mid > max(v1, v2) + tol at every row, with Python's max (v1 unless v2 > v1) on NaN too."""
    return v_mid > np.where(v2 > v1, v2, v1) + tol


def _below_min(v_mid, v1, v2, tol):
    """v_mid < min(v1, v2) - tol at every row, with Python's min (v1 unless v2 < v1) on NaN too."""
    return v_mid < np.where(v2 < v1, v2, v1) - tol


def _unclear(flagged: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """The rows flagged or with a non-finite value: the probes a batch cannot clear."""
    return flagged | ~np.isfinite(values).all(axis=0)


def _scan(n: int, probe: Callable, unclear: Optional[np.ndarray]) -> tuple:
    """(r + 1, witness) at the first r < n where probe(r) gives a witness, else (n, None).

    Given a batch's ``unclear`` rows, probes those alone: the probe gives None at every other row.
    """
    for r in range(n) if unclear is None else np.flatnonzero(unclear).tolist():
        w = probe(r)
        if w is not None:
            return r + 1, w
    return n, None


def check_condition_ii(f: Bifunction, C: CompactBox, seed: int = sampling.CHECK_SEED) -> ConditionReport:
    """Convexity of {x in C : f(x, y) >= 0} for sampled y.

    Takes sampled x1, x2 in the level set and checks the segment stays in it.
    """
    exact = f.domain.is_exact
    tol = sampling.tolerance(exact)
    rng = random.Random(seed)
    xs = sampling.box_lattice(C)
    ys = xs[: sampling.LEVEL_SETS]
    ys += sampling.random_points(C, rng, sampling.LEVEL_SETS - len(ys))
    batch = _pair_values(f)
    X = None if batch is None else point_columns(xs, float)

    def violates(y, x1, x2, lam):
        v = f.fn(pair_combination(x1, x2, lam), y)
        if v < -tol:
            f_x1, f_x2 = f.fn(x1, y), f.fn(x2, y)
            return {"x1": x1, "x2": x2, "lambda": lam, "y": y, "f_x1": f_x1, "f_x2": f_x2, "f_combination": v}
        return None

    samples = 0
    for y in ys:
        y_col = None if batch is None else point_columns([y], float)  # broadcast against every column
        vals = None if batch is None else batch(X, y_col)
        if vals is None or not np.isfinite(vals).all():
            vals = [f.fn(x, y) for x in xs]  # raises where the values are not finite
        samples += len(vals)
        rows, lams = sampling.level_set_plan(vals, rng, exact)
        unclear = None
        if batch is not None:
            v = batch(_midpoints(X[:, rows[:, 0]], X[:, rows[:, 1]], np.array(lams)), y_col)
            unclear = _unclear(v < -tol, v)
        n, w = _scan(len(rows), lambda r: violates(y, xs[rows[r, 0]], xs[rows[r, 1]], lams[r]), unclear)
        samples += n
        if w is not None:
            return ConditionReport("ii", FAIL, w, samples, tol)
    return ConditionReport("ii", NO_VIOLATION_FOUND, None, samples, tol)


def check_condition_iii(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """The finite-subset condition: max_i f(x, x_i) >= 0 for x in the convex hull."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = f.domain.is_exact
    tol = sampling.tolerance(exact)
    rng = random.Random(seed + 1)
    lattice = sampling.box_lattice(C)
    samples = 0

    def violates(subset, weights):
        nonlocal samples
        x = convex_combination(subset, weights)
        vals = [f.fn(x, xi) for xi in subset]
        samples += len(vals)
        worst = max(vals)
        if worst < -tol:
            return {"subset": list(subset), "weights": list(weights), "combination": x, "values": vals, "max_value": worst}
        return None

    # structured: all lattice pairs at the midpoint
    halves = (Fraction(1, 2), Fraction(1, 2)) if exact else (0.5, 0.5)
    for pair in itertools.combinations(lattice, 2):
        w = violates(pair, halves)
        if w is not None:
            return ConditionReport("iii", FAIL, w, samples, tol)
    # seeded random subsets and weights
    pool = lattice + sampling.random_points(C, rng, sampling.SUBSET_POOL_EXTRA)
    for _ in range(trials):
        w = violates(*sampling.random_subset(pool, rng, exact))
        if w is not None:
            return ConditionReport("iii", FAIL, w, samples, tol)
    return ConditionReport("iii", NO_VIOLATION_FOUND, None, samples, tol)


def _pair_ladders(values: Callable, P: np.ndarray, radii: tuple, C: CompactBox, rng: sampling.DrawStream) -> tuple:
    """(table, the ladders the loop runs) of ``sampling.settle_ladders`` for condition_iv's ladders at the pairs (x, y)
    of a (n, 2, dim) array, with f's batch form.  A code > 0 counts the candidates the loop evaluates at that rung,
    through the first with f >= 0.  The table is filled rung by rung, over the ladders still going on."""

    def codes(Q, before=0):  # per row of pairs Q[..., 0, :], Q[..., 1, :], in candidate order
        v = values(np.moveaxis(Q[..., 0, :], -1, 0), np.moveaxis(Q[..., 1, :], -1, 0))
        hit = v >= 0
        return np.where(np.isfinite(v).all(axis=1), np.where(hit.any(axis=1), before + hit.argmax(axis=1) + 1, 0), -1)

    table, live = np.zeros((len(P), len(radii)), dtype=np.intp), np.arange(len(P))
    for j, r in enumerate(radii):
        if not live.size:
            break
        table[live, j] = codes(sampling.pair_moves(P[live], r, C))
        live = live[table[live, j] > 0]

    def jittered(a, b, rungs):
        J = sampling.ladder_jitters(P[a:b], radii, rungs, C, rng, per_rung=8).T
        last = 8 * np.cumsum(rungs)[:, None] - 8 + np.arange(8)  # the last rung's 4 pairs, x and y in turn
        return codes(J[last].reshape(-1, 4, 2, C.dim), 4 * C.dim)

    return table, sampling.settle_ladders(table, jittered, rng, 8 * C.dim)


def check_condition_iv(f: Bifunction, grid: Grid, seed: int = sampling.CHECK_SEED) -> ConditionReport:
    """Falsifier for closedness of {(x, y) : f(x, y) >= 0}.

    Candidates are sampled pairs with f below a margin (2% of the sampled
    value range, so continuous bifunctions are never flagged); the
    refinement search may evaluate off-grid since f is total on C x C.  With
    a batch form of f, the loop runs only what ``_pair_ladders`` cannot settle.
    """
    C = grid.box
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
        for qx, qy in sampling.pair_ball_candidates(xf, yf, r, C, rng):
            samples += 1
            if f.fn(sampling.float_map_point(f.domain, qx), sampling.float_map_point(f.domain, qy)) >= 0:
                return {"radius": r, "x_prime": qx, "y_prime": qy}
        return None

    flagged = [n for n, v in enumerate(vals) if v <= -margin]
    ladders, table = range(len(flagged)), np.zeros((len(flagged), 1), dtype=np.intp)
    if P is not None:
        table, ladders = _pair_ladders(batch, P[flagged], radii, C, rng)
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


def _segment_check(condition_id, f, C, trials, seed, draw, violates, suspects, lead=()) -> ConditionReport:
    """The driver of the mirrored quasiconvexity checks.

    Tries the ``lead`` chunk, then the lattice-pair and random-trial chunks
    of ``sampling.segment_plan``.  ``violates(fixed, a, b, lam, tol)``
    evaluates f three times and returns a witness or None; ``draw(rng)``
    gives a random-trial triple (fixed, a, b).  Where f has a batch form,
    ``suspects(values, fixed, A, B, mid, tol)`` evaluates a chunk with it and
    gives the rows where ``violates`` is run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = f.domain.is_exact
    tol = sampling.tolerance(exact)
    plan = sampling.segment_plan(sampling.box_lattice(C), random.Random(seed), exact, trials, draw)
    batch = _pair_values(f)
    samples = 0
    for points, rows, lams in itertools.chain(lead, plan):
        unclear = None
        if batch is not None:
            P = point_columns(points, float)
            fixed, A, B = P[:, rows[:, 0]], P[:, rows[:, 1]], P[:, rows[:, 2]]
            unclear = suspects(batch, fixed, A, B, _midpoints(A, B, np.array(lams)), tol)
        n, w = _scan(len(rows), lambda r: violates(*(points[i] for i in rows[r]), lams[r], tol), unclear)
        samples += 3 * n
        if w is not None:
            return ConditionReport(condition_id, FAIL, w, samples, tol)
    return ConditionReport(condition_id, NO_VIOLATION_FOUND, None, samples, tol)


def check_quasiconvex_second(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """Quasiconvexity of f(x, .): f(x, mid) <= max(f(x,y1), f(x,y2)) + tol."""

    def violates(x, y1, y2, lam, tol):
        mid = pair_combination(y1, y2, lam)
        v_mid = f.fn(x, mid)
        v1, v2 = f.fn(x, y1), f.fn(x, y2)
        if v_mid > max(v1, v2) + tol:
            return {"x": x, "y1": y1, "y2": y2, "lambda": lam, "f_mid": v_mid, "f_y1": v1, "f_y2": v2}
        return None

    def suspects(values, x, y1, y2, mid, tol):
        v_mid, v1, v2 = values(x, mid), values(x, y1), values(x, y2)
        return _unclear(_above_max(v_mid, v1, v2, tol), v_mid, v1, v2)

    def draw(rng):
        return sampling.random_points(C, rng, 3)  # x, y1, y2

    lead = []
    if f.domain.is_exact:  # measure-zero witnesses: irrational y1, y2 with a rational midpoint
        xs = sampling.box_lattice(C)[: sampling.SQRT2_LEAD_POINTS]
        probes = [(x, y1, y2, Fraction(1, 2)) for y1, y2 in sampling.sqrt2_witness_pairs(C) for x in xs]
        lead = [sampling.probe_chunk(probes)]
    return _segment_check("qcvx_second", f, C, trials, seed + 3, draw, violates, suspects, lead)


def check_quasiconcave_first(
    f: Bifunction, C: CompactBox, trials: int = sampling.CHECK_TRIALS, seed: int = sampling.CHECK_SEED
) -> ConditionReport:
    """Quasiconcavity of f(., y): f(mid, y) >= min(f(x1,y), f(x2,y)) - tol."""

    def violates(y, x1, x2, lam, tol):
        mid = pair_combination(x1, x2, lam)
        v_mid = f.fn(mid, y)
        v1, v2 = f.fn(x1, y), f.fn(x2, y)
        if v_mid < min(v1, v2) - tol:
            return {"x1": x1, "x2": x2, "y": y, "lambda": lam, "f_mid": v_mid, "f_x1": v1, "f_x2": v2}
        return None

    def suspects(values, y, x1, x2, mid, tol):
        v_mid, v1, v2 = values(mid, y), values(x1, y), values(x2, y)
        return _unclear(_below_min(v_mid, v1, v2, tol), v_mid, v1, v2)

    def draw(rng):
        x1, x2, y = sampling.random_points(C, rng, 3)
        return y, x1, x2

    return _segment_check("qccv_first", f, C, trials, seed + 4, draw, violates, suspects)


def check_diagonal_zero(f: Bifunction, grid: Grid) -> ConditionReport:
    """|f(x, x)| <= tol at every grid x (exactly 0 over exact scalars); FAIL with the first offender."""
    tol, X = sampling.tolerance(f.domain.is_exact), grid_coords(grid)

    def violates(r):
        x = tuple(X[:, r].tolist())
        v = f.fn(x, x)
        return None if abs(v) <= tol else {"x": x, "f_value": v}

    batch = _pair_values(f)
    samples, w = _scan(X.shape[1], violates, None if batch is None else ~(np.abs(batch(X, X)) <= tol))
    if w is not None:
        return ConditionReport("diagonal_zero", FAIL, w, samples, tol)
    return ConditionReport("diagonal_zero", NO_VIOLATION_FOUND, None, samples, tol)
