"""Built-in problem instances with machine-checkable known facts.

The named instances reproduce the worked one-dimensional examples (the
piecewise-affine objective with a moving constraint interval, its quasiconvex
variant, and the rational-indicator bifunction over exact scalars).  The
seeded generators build hypothesis-satisfying random instances whose
constructions guarantee an on-grid solution, plus finite-vertex operator
instances whose solution sets an independent vertex oracle can reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .bifunction import (
    Bifunction,
    ObjectiveFunction,
    QviOperator,
    make_opt_bifunction,
    make_qvi_bifunction,
)
from .errors import InstanceDefinitionError, SpecError
from .expressions import Expression, parse_expression
from .geometry import CompactBox, Grid, Root2
from .setmap import SetValuedMap, fixed_point_set, image_index_ranges
from .solver import EP, EXTRA_CHECKS, QEP, QOPT, QVI, SolverConfig, solve_qep, solve_qopt

Payload = Union[Bifunction, ObjectiveFunction, QviOperator]

PAYLOAD_KINDS = {ObjectiveFunction: "objective", Bifunction: "bifunction", QviOperator: "qvi_operator"}


@dataclass
class ProblemInstance:
    name: str
    C: CompactBox
    K: SetValuedMap
    payload: Payload
    grid_default: tuple
    eps_default: float
    delta_default: float = 0.0
    known_facts: dict = field(default_factory=dict)
    checks_run: tuple = tuple(EXTRA_CHECKS)  # the extra checks verify runs: a file's [checks] run, or all

    @property
    def payload_kind(self) -> str:
        """objective | bifunction | qvi_operator, from the payload's type."""
        return PAYLOAD_KINDS[type(self.payload)]

    def bifunction(self) -> Bifunction:
        if self.payload_kind == "bifunction":
            return self.payload  # type: ignore[return-value]
        if self.payload_kind == "objective":
            return make_opt_bifunction(self.payload, self.C)
        return make_qvi_bifunction(self.payload, self.C)

    def problem_kind(self) -> str:
        if self.payload_kind == "objective":
            return QOPT
        if self.payload_kind == "qvi_operator":
            return QVI
        return EP if self.K.variant == "constant" else QEP

    def grid(self, points_per_axis: Optional[tuple] = None) -> Grid:
        return Grid(self.C, tuple(points_per_axis or self.grid_default))

    def config(
        self,
        points_per_axis: Optional[tuple] = None,
        eps: Optional[float] = None,
        delta: Optional[float] = None,
    ) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(points_per_axis),
            eps_value=self.eps_default if eps is None else eps,
            delta_membership=self.delta_default if delta is None else delta,
        )

    def solve(self, cfg: Optional[SolverConfig] = None):
        cfg = cfg or self.config()
        if self.payload_kind == "objective":
            return solve_qopt(self.payload, self.K, cfg)
        return solve_qep(self.bifunction(), self.K, cfg, kind=self.problem_kind())

    def serialize(self) -> str:
        """Problem-definition text (see the cli module); exact instances are catalog-only."""
        if self.C.is_exact:
            raise SpecError("exact-kind instances are expressible only via catalog names")
        lines = ["[domain]"]
        lines.append(f"dim = {self.C.dim}")
        lines.append("lower = " + ", ".join(repr(float(v)) for v in self.C.lower))
        lines.append("upper = " + ", ".join(repr(float(v)) for v in self.C.upper))
        lines.append("")
        lines.append("[map]")
        lines.append(f"kind = {self.K.variant}")
        if self.K.variant != "constant":
            if not all(isinstance(fn, Expression) for fn in self.K.lower_fns + self.K.upper_fns):
                raise SpecError("only expression-backed maps are serializable")
            for k in range(self.C.dim):
                lines.append(f"lower_{k + 1} = {self.K.lower_fns[k].to_text()}")
                lines.append(f"upper_{k + 1} = {self.K.upper_fns[k].to_text()}")
        lines.append("")
        lines.append("[payload]")
        lines.append(f"kind = {self.payload_kind}")
        if self.payload_kind in ("objective", "bifunction"):
            if not isinstance(self.payload.fn, Expression):
                raise SpecError(f"only expression-backed {self.payload_kind}s are serializable")
            lines.append(f"expr = {self.payload.fn.to_text()}")
        else:
            if self.payload.vertex_exprs is None:
                raise SpecError("only expression-backed operators are serializable")
            for j, vert in enumerate(self.payload.vertex_exprs):
                lines.append(f"vertex_{j + 1} = " + ", ".join(e.to_text() for e in vert))
        lines.append("")
        lines.append("[solver]")
        lines.append("grid = " + ", ".join(str(m) for m in self.grid_default))
        lines.append(f"eps = {self.eps_default!r}")
        lines.append(f"delta = {self.delta_default!r}")
        lines.append("")
        if self.checks_run != tuple(EXTRA_CHECKS):  # a default instance keeps its bytes: no [checks]
            lines += ["[checks]", "run = " + ", ".join(self.checks_run), ""]
        return "\n".join(lines)


# -- the worked 1-d instances ------------------------------------------------

_FIG1_H = "piecewise(x_1 <= 1, abs(x_1 - 0.5), abs(x_1 - 1.5))"
_FIG1_K_LOWER = "piecewise(x_1 <= 1, -1.5*x_1 + 1.5, 0)"
_FIG1_K_UPPER = "piecewise(x_1 <= 1, 2, -1.5*x_1 + 3.5)"


def _fig1_map() -> tuple[CompactBox, SetValuedMap]:
    C = CompactBox((0.0,), (2.0,))
    K = SetValuedMap(
        C,
        [parse_expression(_FIG1_K_LOWER)],
        [parse_expression(_FIG1_K_UPPER)],
        variant="piecewise_moving_interval",
    )
    return C, K


def figure1_instance() -> ProblemInstance:
    """W-shaped continuous objective with the moving interval constraint.

    Known facts: fixed points of the map fill [3/5, 7/5]; the problem has no
    solution, the gap over fixed points bottoms out at 1/10 (attained at both
    interval endpoints).
    """
    C, K = _fig1_map()
    h = ObjectiveFunction(parse_expression(_FIG1_H))
    return ProblemInstance(
        name="figure1",
        C=C,
        K=K,
        payload=h,
        grid_default=(2001,),
        eps_default=0.05,
        known_facts={
            "fixed_point_interval": [0.6, 1.4],
            "qopt_empty": True,
            "gap_floor": 0.1,
            "gap_floor_range": [0.095, 0.105],
            "lipschitz_bound": 1.0,
            "verdicts": {
                "closed_graph": "NO_VIOLATION_FOUND",
                "lsc": "NO_VIOLATION_FOUND",
                "convex_values": "NO_VIOLATION_FOUND",
                "condition_ii": "FAIL",
            },
        },
    )


def quasiconvex_variant_instance() -> ProblemInstance:
    """The same constraint map with the convex objective (x - 1)^2.

    All six theorem hypotheses hold, so the solution set is nonempty: it is
    exactly the grid point 1.0 with gap 0.
    """
    C, K = _fig1_map()
    h = ObjectiveFunction(parse_expression("power(x_1 - 1, 2)"))
    return ProblemInstance(
        name="quasiconvex-variant",
        C=C,
        K=K,
        payload=h,
        grid_default=(2001,),
        eps_default=1e-6,
        known_facts={
            "expected_solutions": [[1.0]],
            "expected_gap": 0.0,
            "lipschitz_bound": 2.0,
            "verdicts": {
                "closed_graph": "NO_VIOLATION_FOUND",
                "lsc": "NO_VIOLATION_FOUND",
                "convex_values": "NO_VIOLATION_FOUND",
                "condition_ii": "NO_VIOLATION_FOUND",
                "condition_iii": "NO_VIOLATION_FOUND",
                "condition_iv": "NO_VIOLATION_FOUND",
                "qccv_first": "NO_VIOLATION_FOUND",
            },
        },
    )


def remark_bifunction_instance() -> ProblemInstance:
    """The rational-indicator bifunction on [0,1] over exact scalars.

    f(x, y) is 1 when y is rational and 0 otherwise; rationality is decided
    exactly in Q[sqrt(2)], so a floating-point rendering is rejected.
    """
    zero, one = Root2(0), Root2(1)
    C = CompactBox((zero,), (one,))
    K = SetValuedMap.constant(C)

    r_one, r_zero = Root2(1), Root2(0)

    def fn(x, y):
        return r_one if y[0].is_rational else r_zero

    f = Bifunction(fn, C)
    return ProblemInstance(
        name="remark",
        C=C,
        K=K,
        payload=f,
        grid_default=(101,),
        eps_default=0.0,
        known_facts={
            "verdicts": {
                "condition_ii": "NO_VIOLATION_FOUND",
                "qcvx_second": "FAIL",
                "diagonal_zero": "FAIL",
            },
        },
    )


# -- seeded generators -------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def _affine_text(coeffs: list[float], const: float) -> str:
    parts = []
    for k, a in enumerate(coeffs):
        if a != 0:
            parts.append(f"{_fmt(a)}*x_{k + 1}")
    parts.append(_fmt(const))
    return " + ".join(parts)


def random_instance(seed: int, dim: int = 1) -> ProblemInstance:
    """A hypothesis-satisfying instance: max-of-affine objective, moving box map.

    The construction anchors the objective's unique global minimizer at an
    interior point contained in every image K(x), so the problem has an
    on-grid solution with gap exactly zero at any tolerance.  The recorded
    Lipschitz bound is max_i ||a_i||_1 (sup-norm modulus).
    """
    if dim not in (1, 2):
        raise InstanceDefinitionError("generator supports dim 1 or 2")
    rng = random.Random((seed, dim).__hash__() & 0x7FFFFFFF)
    for _attempt in range(20):
        span = rng.choice([1.0, 2.0])
        C = CompactBox((0.0,) * dim, (span,) * dim)
        anchor = tuple(span * rng.randint(2, 6) / 8.0 for _ in range(dim))
        # 3..6 affine pieces: a +/- slope pair per axis anchors the unique
        # minimum, extra tilted pieces stay strictly below it
        affes: list[tuple[list[float], float]] = []
        for k in range(dim):
            for s in (rng.uniform(0.5, 2.5), -rng.uniform(0.5, 2.5)):
                coeffs = [0.0] * dim
                coeffs[k] = round(s, 6)
                affes.append((coeffs, 0.0))
        n_extra = rng.randint(3 - 2 * dim, 6 - 2 * dim) if dim == 1 else rng.randint(0, 2)
        for _ in range(n_extra):
            coeffs = [round(rng.uniform(-2.5, 2.5), 6) for _ in range(dim)]
            affes.append((coeffs, round(-rng.uniform(0.1, 1.0), 6)))
        terms = []
        for coeffs, c in affes:
            const = c - sum(a * p for a, p in zip(coeffs, anchor))
            terms.append(_affine_text(coeffs, const))
        h_text = "max(" + ", ".join(terms) + ")"
        lipschitz = max(sum(abs(a) for a in coeffs) for coeffs, _ in affes)

        # moving box: per-axis center band kept around the anchor
        margin = span / 16.0
        lower_texts, upper_texts = [], []
        ok = True
        for j in range(dim):
            width = rng.uniform(span / 5.0, span / 3.0)
            betas = [round(rng.uniform(-0.2, 0.2) / dim, 6) for _ in range(dim)]
            lo_sum = sum(min(b * 0.0, b * span) for b in betas)
            hi_sum = sum(max(b * 0.0, b * span) for b in betas)
            budget = (width - margin) - (hi_sum - lo_sum) / 2.0
            if budget < 0:
                ok = False
                break
            jitter = rng.uniform(-budget, budget)
            alpha = anchor[j] - (lo_sum + hi_sum) / 2.0 + jitter
            centre = _affine_text(betas, alpha)
            lower_texts.append(f"({centre}) - {_fmt(width)}")
            upper_texts.append(f"({centre}) + {_fmt(width)}")
        if not ok:
            continue
        K = SetValuedMap(
            C,
            [parse_expression(t) for t in lower_texts],
            [parse_expression(t) for t in upper_texts],
        )
        grid_default = (201,) if dim == 1 else (41, 41)
        grid = Grid(C, grid_default)
        try:
            lo, hi = K.bounds_batch(np.ix_(*grid.axes))
        except InstanceDefinitionError:  # an empty image: draw again
            continue
        if not all(((a <= c) & (c <= b)).all() for a, c, b in zip(lo, anchor, hi)):
            continue
        h = ObjectiveFunction(parse_expression(h_text))
        step = grid.max_step()
        return ProblemInstance(
            name=f"random-{dim}d-{seed}",
            C=C,
            K=K,
            payload=h,
            grid_default=grid_default,
            eps_default=2.0 * lipschitz * step,
            known_facts={
                "lipschitz_bound": lipschitz,
                "anchor": list(anchor),
                "guaranteed_nonempty": True,
                "verdicts": {
                    "closed_graph": "NO_VIOLATION_FOUND",
                    "lsc": "NO_VIOLATION_FOUND",
                    "convex_values": "NO_VIOLATION_FOUND",
                    "condition_ii": "NO_VIOLATION_FOUND",
                    "condition_iii": "NO_VIOLATION_FOUND",
                    "condition_iv": "NO_VIOLATION_FOUND",
                },
            },
        )
    raise InstanceDefinitionError(f"generator exhausted retries for seed {seed}, dim {dim}")


def qvi_instance(seed: int) -> ProblemInstance:
    """Finite-vertex operator instances.

    Seeds 0, 1 and 2 are the canonical worked cases (constant vertex 1, -1
    and 0 on [0,1] with K == C).  Higher seeds draw vertex lists of the form
    c_j(x) * d with a shared direction d and positive affine scales c_j, for
    which the vertex-wise oracle and the adapter route provably agree.
    """
    if seed in (0, 1, 2):
        value = {0: 1.0, 1: -1.0, 2: 0.0}[seed]
        C = CompactBox((0.0,), (1.0,))
        K = SetValuedMap.constant(C)
        T = QviOperator.from_expressions([[parse_expression(_fmt(value))]])
        known: dict = {"oracle": "qvi-vertex-brute-force"}
        if seed == 0:
            known["expected_solutions"] = [[0.0]]
        elif seed == 1:
            known["expected_solutions"] = [[1.0]]
        else:
            known["solutions_all_fixed_points"] = True
        return ProblemInstance(
            name=f"qvi-{['unit', 'negative', 'zero'][seed]}",
            C=C,
            K=K,
            payload=T,
            grid_default=(1001,),
            eps_default=0.0,
            known_facts=known,
        )

    rng = random.Random(seed * 7919 + 11)
    dim = rng.choice([1, 2])
    C = CompactBox((0.0,) * dim, (1.0,) * dim)
    direction = []
    for _ in range(dim):
        c = 0.0
        while abs(c) < 0.2:
            c = rng.uniform(-1.0, 1.0)
        direction.append(round(c, 6))
    n_verts = rng.randint(1, 3)
    vertex_exprs = []
    for _j in range(n_verts):
        gamma = round(rng.uniform(0.3, 1.5), 6)
        eta = round(rng.uniform(-0.2, min(0.2, gamma - 0.1)), 6)
        scale = f"({_fmt(gamma)} + {_fmt(eta)}*x_1)"
        vertex_exprs.append([parse_expression(f"{scale} * {_fmt(dk)}") for dk in direction])
    T = QviOperator.from_expressions(vertex_exprs)

    margin = 1.0 / 16.0
    lower_texts, upper_texts = [], []
    for _j in range(dim):  # centres in [margin - 0.15, 1 - margin + 0.15] and half-widths >= 0.25: no image is empty
        width = rng.uniform(0.25, 0.4)
        beta = round(rng.uniform(-0.15, 0.15), 6)
        alpha = round(rng.uniform(margin + width * 0.0, 1.0 - margin), 6)
        centre = _affine_text([beta] + [0.0] * (dim - 1), alpha)
        lower_texts.append(f"({centre}) - {_fmt(width)}")
        upper_texts.append(f"({centre}) + {_fmt(width)}")
    K = SetValuedMap(
        C,
        [parse_expression(t) for t in lower_texts],
        [parse_expression(t) for t in upper_texts],
    )
    return ProblemInstance(
        name=f"qvi-random-{seed}",
        C=C,
        K=K,
        payload=T,
        grid_default=(201,) if dim == 1 else (41, 41),
        eps_default=1e-9,
        known_facts={"oracle": "qvi-vertex-brute-force"},
    )


def qvi_vertex_oracle(T: QviOperator, K: SetValuedMap, cfg: SolverConfig) -> list:
    """Independent brute force: grid x in K(x) with one vertex working for all y.

    For each near-fixed grid point, checks whether some vertex v of T(x) has
    <v, y - x> >= -eps for every image grid point y (max over vertices of the
    min over y).  This is a separate code path from the adapter-based solver.
    Each <v, y - x> is summed over the image's open mesh elementwise, from 0.0
    in coordinate order as the adapter sums it, so its bits depend on no BLAS.
    """
    grid = cfg.grid
    out = []
    for x in fixed_point_set(K, grid, cfg.delta_membership):
        ranges = image_index_ranges(K, x, grid)
        if any(start >= stop for start, stop in ranges):
            continue
        steps = np.ix_(*(grid.axes[k][start:stop] - x[k] for k, (start, stop) in enumerate(ranges)))
        if max(sum((vk * dk for vk, dk in zip(v, steps)), 0.0).min() for v in T.vertices(x)) >= -cfg.eps_value:
            out.append(x)
    return out


# -- registry ----------------------------------------------------------------

CATALOG = {
    "figure1": figure1_instance,
    "quasiconvex-variant": quasiconvex_variant_instance,
    "remark": remark_bifunction_instance,
    "qvi-unit": lambda: qvi_instance(0),
    "qvi-negative": lambda: qvi_instance(1),
    "qvi-zero": lambda: qvi_instance(2),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def get_instance(name: str) -> ProblemInstance:
    try:
        factory = CATALOG[name]
    except KeyError:
        raise SpecError(f"unknown catalog instance {name!r}; known: {', '.join(catalog_names())}")
    return factory()
