"""Bifunctions f: C x C -> R, adapters, and sampled hypothesis checkers.

Two adapters reduce other problem classes to bifunction form: an objective
function h yields f(x, y) = h(y) - h(x), and a finite-vertex operator T yields
f(x, y) = max over the vertex list of <v, y - x>.

The checkers are falsifiers with verdicts FAIL / NO_VIOLATION_FOUND.  They run
deterministic structured probes (coarse lattices, segment midpoints, and for
exact scalars a sqrt(2)-witness family) before seeded random trials, so
measure-zero witnesses are found reproducibly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InstanceDefinitionError
from .expressions import Expression
from .geometry import (
    CompactBox,
    Grid,
    Point,
    Root2,
    contains,
    convex_combination,
    grid_points,
)
from .setmap import FAIL, NO_VIOLATION_FOUND

_CHECK_SEED = 1729

REAL = "real"
EXACT = "exact"


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str  # ii | iii | iv | qcvx_second | qccv_first | diagonal_zero
    verdict: str
    witness: Optional[dict]
    samples_used: int
    tolerance: float

    def __post_init__(self) -> None:
        assert (self.verdict == FAIL) == (self.witness is not None)


class ObjectiveFunction:
    """A real-valued objective h on C."""

    def __init__(
        self,
        fn: Callable,
        continuity_claim: bool = True,
        batch_fn: Optional[Callable] = None,
        expr: Optional[Expression] = None,
    ) -> None:
        self.fn = fn
        self.continuity_claim = continuity_claim
        self.batch_fn = batch_fn
        self.expr = expr

    @classmethod
    def from_expression(cls, expr: Expression, continuity_claim: bool = True) -> ObjectiveFunction:
        def fn(x: Point, _e=expr):
            return _e({f"x_{k + 1}": x[k] for k in range(len(x))})

        def batch_fn(X: np.ndarray, _e=expr):
            env = {f"x_{k + 1}": X[:, k] for k in range(X.shape[1])}
            out = _e.eval_batch(env)
            return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],)).copy()

        return cls(fn, continuity_claim=continuity_claim, batch_fn=batch_fn, expr=expr)

    def __call__(self, x: Point):
        return self.fn(x)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        if self.batch_fn is not None:
            return self.batch_fn(X)
        return np.array([self.fn(tuple(row)) for row in X], dtype=float)


class QviOperator:
    """Finite vertex lists v_1(x), ..., v_m(x) of dual vectors."""

    def __init__(self, vertex_fn: Callable, vertex_exprs: Optional[Sequence[Sequence[Expression]]] = None) -> None:
        self.vertex_fn = vertex_fn
        self.vertex_exprs = tuple(tuple(v) for v in vertex_exprs) if vertex_exprs else None

    @classmethod
    def constant(cls, vertices: Sequence[Sequence[float]]) -> QviOperator:
        verts = tuple(tuple(float(c) for c in v) for v in vertices)
        if not verts:
            raise InstanceDefinitionError("vertex list must be nonempty")
        return cls(lambda x: verts)

    @classmethod
    def from_expressions(cls, vertex_exprs: Sequence[Sequence[Expression]]) -> QviOperator:
        if not vertex_exprs:
            raise InstanceDefinitionError("vertex list must be nonempty")

        def vertex_fn(x: Point, _ve=tuple(tuple(v) for v in vertex_exprs)):
            env = {f"x_{k + 1}": x[k] for k in range(len(x))}
            return tuple(tuple(e(env) for e in vert) for vert in _ve)

        return cls(vertex_fn, vertex_exprs=vertex_exprs)

    def vertices(self, x: Point) -> tuple:
        verts = tuple(self.vertex_fn(x))
        if not verts:
            raise InstanceDefinitionError(f"empty vertex list at {x}")
        return verts

    def scaled(self, factor: float) -> QviOperator:
        """The operator with every vertex multiplied by factor."""

        def vertex_fn(x: Point, _inner=self.vertex_fn, _f=factor):
            return tuple(tuple(_f * c for c in v) for v in _inner(x))

        return QviOperator(vertex_fn)


class Bifunction:
    """An evaluable pairing f(x, y) -> scalar over C x C.

    ``row`` evaluates f(x, .) over a batch of second arguments and must be
    float-identical to mapping ``eval``; adapters use it to vectorize the
    solvers' inner scans.  ``objective``, when set, declares f separable:
    f(x, y) = h(y) - h(x) for that objective h, so the solvers take the
    minimum of f(x, .) over an image as the minimum of h over it minus h(x).
    """

    def __init__(
        self,
        fn: Callable,
        scalar_kind: str,
        provenance: str,
        domain: CompactBox,
        row_fn: Optional[Callable] = None,
        expr: Optional[Expression] = None,
        objective: Optional[ObjectiveFunction] = None,
    ) -> None:
        if scalar_kind not in (REAL, EXACT):
            raise InstanceDefinitionError(f"unknown scalar kind {scalar_kind!r}")
        self.fn = fn
        self.scalar_kind = scalar_kind
        self.provenance = provenance
        self.domain = domain
        self.row_fn = row_fn
        self.expr = expr
        self.objective = objective

    def eval(self, x: Point, y: Point):
        """f(x, y); arguments must lie in C."""
        slack = self.domain.snap()
        if not contains(self.domain, x, slack) or not contains(self.domain, y, slack):
            raise ValueError("bifunction arguments must lie in the domain box")
        return self.fn(x, y)

    def row(self, x: Point, Y: np.ndarray) -> np.ndarray:
        """f(x, y) for every row y of Y (floats only)."""
        if self.row_fn is not None:
            return self.row_fn(x, Y)
        return np.array([self.fn(x, tuple(y)) for y in Y], dtype=float)


def make_expression_bifunction(expr: Expression, domain: CompactBox) -> Bifunction:
    dim = domain.dim

    def fn(x: Point, y: Point, _e=expr):
        env = {f"x_{k + 1}": x[k] for k in range(dim)}
        env.update({f"y_{k + 1}": y[k] for k in range(dim)})
        return _e(env)

    def row_fn(x: Point, Y: np.ndarray, _e=expr):
        env = {f"x_{k + 1}": x[k] for k in range(dim)}
        env.update({f"y_{k + 1}": Y[:, k] for k in range(dim)})
        out = _e.eval_batch(env)
        return np.broadcast_to(np.asarray(out, dtype=float), (Y.shape[0],)).copy()

    return Bifunction(fn, REAL, "direct-expression", domain, row_fn=row_fn, expr=expr)


def make_opt_bifunction(h: ObjectiveFunction, domain: CompactBox, scalar_kind: str = REAL) -> Bifunction:
    """f(x, y) = h(y) - h(x), declared separable with objective h."""

    def fn(x: Point, y: Point):
        return h.fn(y) - h.fn(x)

    return Bifunction(fn, scalar_kind, "opt-adapter", domain, objective=h)


def make_qvi_bifunction(T: QviOperator, domain: CompactBox) -> Bifunction:
    """f(x, y) = max over the vertex list of <v, y - x> (exact max, finite list)."""

    def fn(x: Point, y: Point):
        best = None
        for v in T.vertices(x):
            s = 0.0
            for vk, yk, xk in zip(v, y, x):
                s += vk * (yk - xk)
            if best is None or s > best:
                best = s
        return best

    def row_fn(x: Point, Y: np.ndarray):
        V = np.asarray(T.vertices(x), dtype=float)
        D = Y - np.asarray(x, dtype=float)
        return (V @ D.T).max(axis=0)

    return Bifunction(fn, REAL, "qvi-adapter", domain, row_fn=row_fn)


# -- sampling helpers -------------------------------------------------------


def _default_tol(f: Bifunction, tol: Optional[float]) -> float:
    if tol is not None:
        return tol
    return 0.0 if f.scalar_kind == EXACT else 1e-9


def _lattice(C: CompactBox, per_axis: int) -> list:
    axes = []
    for lo, hi in zip(C.lower, C.upper):
        if isinstance(lo, Root2):
            span = hi - lo
            axes.append([lo + span * Fraction(i, per_axis - 1) for i in range(per_axis)])
        else:
            axes.append([lo + (hi - lo) * i / (per_axis - 1) for i in range(per_axis)])
    return [p for p in itertools.product(*axes)]


def _lattice_budget(dim: int) -> int:
    return {1: 21, 2: 7, 3: 5}[dim]


def _random_point(C: CompactBox, rng: random.Random) -> Point:
    out = []
    for lo, hi in zip(C.lower, C.upper):
        if isinstance(lo, Root2):
            t = Fraction(rng.randrange(0, 257), 256)
            out.append(lo + (hi - lo) * Root2(t))
        else:
            out.append(rng.uniform(lo, hi))
    return tuple(out)


def _lambdas(exact: bool, rng: random.Random, extra: int = 2) -> list:
    if exact:
        base = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
        base += [Fraction(rng.randrange(1, 64), 64) for _ in range(extra)]
        return base
    return [0.5, 0.25, 0.75] + [rng.uniform(0.05, 0.95) for _ in range(extra)]


def _pair_weights(lam):
    if isinstance(lam, Fraction):
        return (lam, Fraction(1) - lam)
    return (lam, 1.0 - lam)


# -- condition checkers -----------------------------------------------------


def check_condition_ii(
    f: Bifunction,
    C: CompactBox,
    y_samples: int = 24,
    pair_samples: int = 400,
    tol: Optional[float] = None,
    seed: int = _CHECK_SEED,
) -> ConditionReport:
    """Convexity of {x in C : f(x, y) >= 0} for sampled y.

    Takes sampled x1, x2 in the level set and checks the segment stays in it.
    """
    if y_samples < 1 or pair_samples < 1:
        raise ValueError("sample counts must be >= 1")
    tol = _default_tol(f, tol)
    exact = f.scalar_kind == EXACT
    rng = random.Random(seed)
    xs = _lattice(C, _lattice_budget(C.dim))
    ys = list(xs[: max(1, y_samples)])
    ys += [_random_point(C, rng) for _ in range(max(0, y_samples - len(ys)))]
    samples = 0
    for y in ys:
        vals = [f.fn(x, y) for x in xs]
        samples += len(vals)
        eligible = [x for x, v in zip(xs, vals) if v >= 0]
        budget = pair_samples
        for i in range(len(eligible)):
            for j in range(i + 1, len(eligible)):
                if budget <= 0:
                    break
                budget -= 1
                x1, x2 = eligible[i], eligible[j]
                for lam in _lambdas(exact, rng):
                    mid = convex_combination((x1, x2), _pair_weights(lam))
                    v = f.fn(mid, y)
                    samples += 1
                    if v < -tol:
                        witness = {
                            "x1": x1,
                            "x2": x2,
                            "lambda": lam,
                            "y": y,
                            "f_x1": f.fn(x1, y),
                            "f_x2": f.fn(x2, y),
                            "f_combination": v,
                        }
                        return ConditionReport("ii", FAIL, witness, samples, tol)
            if budget <= 0:
                break
    return ConditionReport("ii", NO_VIOLATION_FOUND, None, samples, tol)


def check_condition_iii(
    f: Bifunction,
    C: CompactBox,
    subset_size_max: int = 4,
    trials: int = 400,
    tol: Optional[float] = None,
    seed: int = _CHECK_SEED,
) -> ConditionReport:
    """The finite-subset condition: max_i f(x, x_i) >= 0 for x in the convex hull."""
    if subset_size_max < 1 or trials < 1:
        raise ValueError("subset_size_max and trials must be >= 1")
    tol = _default_tol(f, tol)
    exact = f.scalar_kind == EXACT
    rng = random.Random(seed + 1)
    lattice = _lattice(C, _lattice_budget(C.dim))
    samples = 0

    def violates(subset, weights):
        nonlocal samples
        x = convex_combination(subset, weights)
        vals = [f.fn(x, xi) for xi in subset]
        samples += len(vals)
        worst = max(vals)
        if worst < -tol:
            return {
                "subset": list(subset),
                "weights": list(weights),
                "combination": x,
                "values": vals,
                "max_value": worst,
            }
        return None

    # structured: all lattice pairs at the midpoint
    half = Fraction(1, 2) if exact else 0.5
    for i in range(len(lattice)):
        for j in range(i + 1, len(lattice)):
            w = violates((lattice[i], lattice[j]), (half, (1 - half) if exact else 0.5))
            if w is not None:
                return ConditionReport("iii", FAIL, w, samples, tol)
    # seeded random subsets and weights
    pool = lattice + [_random_point(C, rng) for _ in range(16)]
    for _ in range(trials):
        k = rng.randint(2, max(2, subset_size_max))
        subset = tuple(pool[rng.randrange(len(pool))] for _ in range(k))
        if exact:
            raw = [Fraction(rng.randrange(1, 16)) for _ in range(k)]
            total = sum(raw)
            weights = tuple(r / total for r in raw)
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
            total = sum(raw)
            weights = tuple(r / total for r in raw)
            weights = weights[:-1] + (1.0 - sum(weights[:-1]),)
        w = violates(subset, weights)
        if w is not None:
            return ConditionReport("iii", FAIL, w, samples, tol)
    return ConditionReport("iii", NO_VIOLATION_FOUND, None, samples, tol)


def check_condition_iv(
    f: Bifunction,
    grid: Grid,
    radii: Optional[Sequence[float]] = None,
    tol: Optional[float] = None,
    seed: int = _CHECK_SEED,
) -> ConditionReport:
    """Falsifier for closedness of {(x, y) : f(x, y) >= 0}.

    Candidates are sampled pairs with f below a margin (default 2% of the
    sampled value range, so continuous bifunctions are never flagged); the
    refinement search may evaluate off-grid since f is total on C x C.
    """
    C = grid.box
    exact = f.scalar_kind == EXACT
    rng = random.Random(seed + 2)
    lattice = _lattice(C, _lattice_budget(C.dim))
    pairs = [(x, y) for x in lattice for y in lattice]
    vals = [f.fn(x, y) for x, y in pairs]
    samples = len(vals)
    fvals = [float(v) for v in vals]
    value_range = max(fvals) - min(fvals) if fvals else 0.0
    margin = max(tol if tol is not None else 0.0, 0.02 * value_range)
    if margin == 0.0:
        margin = 1e-9
    diam = C.diameter()
    if radii is None:
        ladder = [0.1 * diam]
        while ladder[-1] > 1e-5 * diam:
            ladder.append(ladder[-1] / 2.0)
        radii = tuple(ladder)
    else:
        radii = tuple(radii)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")

    lo = [float(v) for v in C.lower]
    hi = [float(v) for v in C.upper]

    def clamp(p):
        return tuple(min(max(v, lo[k]), hi[k]) for k, v in enumerate(p))

    def to_domain(p):
        return tuple(Root2.from_float(v) for v in p) if exact else p

    def nonneg_near(xf, yf, r):
        nonlocal samples
        cands = []
        for k in range(len(xf)):
            for s in (r, -r):
                q = list(xf)
                q[k] += s
                cands.append((clamp(tuple(q)), yf))
                q2 = list(yf)
                q2[k] += s
                cands.append((xf, clamp(tuple(q2))))
        for _ in range(4):
            qx = clamp(tuple(v + rng.uniform(-r, r) for v in xf))
            qy = clamp(tuple(v + rng.uniform(-r, r) for v in yf))
            cands.append((qx, qy))
        for qx, qy in cands:
            samples += 1
            if f.fn(to_domain(qx), to_domain(qy)) >= 0:
                return qx, qy
        return None

    for (x, y), v in zip(pairs, vals):
        if not (v <= -margin):
            continue
        xf = tuple(float(c) for c in x)
        yf = tuple(float(c) for c in y)
        trail = []
        for r in radii:
            hit = nonneg_near(xf, yf, r)
            if hit is None:
                break
            trail.append({"radius": r, "x_prime": hit[0], "y_prime": hit[1]})
        if len(trail) == len(radii):
            witness = {"x": x, "y": y, "f_value": v, "approach": trail, "margin": margin}
            return ConditionReport("iv", FAIL, witness, samples, margin)
    return ConditionReport("iv", NO_VIOLATION_FOUND, None, samples, margin)


def _sqrt2_witness_pairs(C: CompactBox) -> list:
    """Pairs of irrational points in C whose midpoint is rational."""
    lo, hi = C.lower[0], C.upper[0]
    span = hi - lo
    centre = (lo + hi) * Root2(Fraction(1, 2))
    pairs = []
    for denom in (4, 8, 16):
        t = span * Root2(0, Fraction(1, denom))
        pairs.append((centre - t, centre + t))
        pairs.append((lo + t, hi - t))
    return [
        (tuple([p1] + list(C.lower[1:])), tuple([p2] + list(C.lower[1:])))
        for p1, p2 in pairs
        if not p1.is_rational and not p2.is_rational
    ]


def check_quasiconvex_second(
    f: Bifunction,
    C: CompactBox,
    trials: int = 400,
    tol: Optional[float] = None,
    seed: int = _CHECK_SEED,
) -> ConditionReport:
    """Quasiconvexity of f(x, .): f(x, mid) <= max(f(x,y1), f(x,y2)) + tol."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol = _default_tol(f, tol)
    exact = f.scalar_kind == EXACT
    rng = random.Random(seed + 3)
    lattice = _lattice(C, _lattice_budget(C.dim))
    samples = 0

    def violates(x, y1, y2, lam):
        nonlocal samples
        mid = convex_combination((y1, y2), _pair_weights(lam))
        v_mid = f.fn(x, mid)
        v1, v2 = f.fn(x, y1), f.fn(x, y2)
        samples += 3
        if v_mid > max(v1, v2) + tol:
            return {
                "x": x,
                "y1": y1,
                "y2": y2,
                "lambda": lam,
                "f_mid": v_mid,
                "f_y1": v1,
                "f_y2": v2,
            }
        return None

    if exact:
        half = Fraction(1, 2)
        for y1, y2 in _sqrt2_witness_pairs(C):
            for x in lattice[: min(4, len(lattice))]:
                w = violates(x, y1, y2, half)
                if w is not None:
                    return ConditionReport("qcvx_second", FAIL, w, samples, tol)
    lam0 = Fraction(1, 2) if exact else 0.5
    for x in lattice:
        for i in range(len(lattice)):
            for j in range(i + 1, len(lattice)):
                w = violates(x, lattice[i], lattice[j], lam0)
                if w is not None:
                    return ConditionReport("qcvx_second", FAIL, w, samples, tol)
    for _ in range(trials):
        x = _random_point(C, rng)
        y1 = _random_point(C, rng)
        y2 = _random_point(C, rng)
        for lam in _lambdas(exact, rng, extra=1):
            w = violates(x, y1, y2, lam)
            if w is not None:
                return ConditionReport("qcvx_second", FAIL, w, samples, tol)
    return ConditionReport("qcvx_second", NO_VIOLATION_FOUND, None, samples, tol)


def check_quasiconcave_first(
    f: Bifunction,
    C: CompactBox,
    trials: int = 400,
    tol: Optional[float] = None,
    seed: int = _CHECK_SEED,
) -> ConditionReport:
    """Quasiconcavity of f(., y): f(mid, y) >= min(f(x1,y), f(x2,y)) - tol."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol = _default_tol(f, tol)
    exact = f.scalar_kind == EXACT
    rng = random.Random(seed + 4)
    lattice = _lattice(C, _lattice_budget(C.dim))
    samples = 0

    def violates(x1, x2, y, lam):
        nonlocal samples
        mid = convex_combination((x1, x2), _pair_weights(lam))
        v_mid = f.fn(mid, y)
        v1, v2 = f.fn(x1, y), f.fn(x2, y)
        samples += 3
        if v_mid < min(v1, v2) - tol:
            return {
                "x1": x1,
                "x2": x2,
                "y": y,
                "lambda": lam,
                "f_mid": v_mid,
                "f_x1": v1,
                "f_x2": v2,
            }
        return None

    lam0 = Fraction(1, 2) if exact else 0.5
    for y in lattice:
        for i in range(len(lattice)):
            for j in range(i + 1, len(lattice)):
                w = violates(lattice[i], lattice[j], y, lam0)
                if w is not None:
                    return ConditionReport("qccv_first", FAIL, w, samples, tol)
    for _ in range(trials):
        x1 = _random_point(C, rng)
        x2 = _random_point(C, rng)
        y = _random_point(C, rng)
        for lam in _lambdas(exact, rng, extra=1):
            w = violates(x1, x2, y, lam)
            if w is not None:
                return ConditionReport("qccv_first", FAIL, w, samples, tol)
    return ConditionReport("qccv_first", NO_VIOLATION_FOUND, None, samples, tol)


def check_diagonal_zero(
    f: Bifunction,
    grid: Grid,
    tol: Optional[float] = None,
) -> ConditionReport:
    """|f(x, x)| <= tol at every grid x; FAIL with the first offender."""
    tol = _default_tol(f, tol)
    samples = 0
    for x in grid_points(grid):
        v = f.fn(x, x)
        samples += 1
        bad = (v != 0) if f.scalar_kind == EXACT and tol == 0 else not (abs(v) <= tol)
        if bad:
            witness = {"x": x, "f_value": v}
            return ConditionReport("diagonal_zero", FAIL, witness, samples, tol)
    return ConditionReport("diagonal_zero", NO_VIOLATION_FOUND, None, samples, tol)
