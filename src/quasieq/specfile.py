"""Problem-definition files: an INI-style format with four sections.

::

    [domain]
    dim = 1
    lower = 0.0
    upper = 2.0

    [map]
    kind = moving_box            ; moving_box | piecewise_moving_interval | constant
    lower_1 = piecewise(x_1 <= 1, -1.5*x_1 + 1.5, 0)
    upper_1 = piecewise(x_1 <= 1, 2, -1.5*x_1 + 3.5)

    [payload]
    kind = objective             ; objective | bifunction | qvi_operator
    expr = abs(x_1 - 0.5)

    [solver]                     ; optional; defaults m=201, eps=1e-6, delta=0
    grid = 2001                  ; no other keys: an unknown one is a SpecError
    eps = 1e-06
    delta = 0.0

    [checks]                     ; optional; extra checks verify runs (default: all)
    run = condition_ii, qcvx_second

All expressions parse and type-check (variable indices against the declared
dimension) and every number parses before anything is evaluated; a malformed
value is a SpecError naming its section and key.  [checks] takes ``run``
alone: the checkers' trials and seed are set by verify's ``--trials`` and
``--seed`` flags, so a ``trials`` or ``seed`` key there is a SpecError that
says so, as is any other key.  Map images are validated nonempty over the
solver grid at load time.  The [solver] values configure
the solver's one scan kernel; expression maps (moving_box,
piecewise_moving_interval) take its table branch, where the bounds are
evaluated once over the whole grid, and constant maps its per-point branch.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

from .bifunction import ObjectiveFunction, QviOperator
from .catalog import ProblemInstance
from .errors import ParseError, SpecError
from .expressions import Expression, parse_expression
from .geometry import CompactBox, Grid
from .setmap import SetValuedMap, validate_setmap

_MAP_KINDS = {
    "moving_box": "MovingBox",
    "piecewise_moving_interval": "PiecewiseMovingInterval",
    "constant": "Constant",
}
_PAYLOAD_KINDS = ("objective", "bifunction", "qvi_operator")

DEFAULT_GRID = 201
DEFAULT_EPS = 1e-6
DEFAULT_DELTA = 0.0

THEOREM_CHECKS = (
    "closed_graph",
    "lsc",
    "convex_values",
    "condition_ii",
    "condition_iii",
    "condition_iv",
)
EXTRA_CHECKS = ("qcvx_second", "qccv_first", "diagonal_zero")


@dataclass
class ProblemSpec:
    dim: int
    lower: tuple
    upper: tuple
    map_kind: str
    map_lower: tuple  # Expressions, empty for constant maps
    map_upper: tuple
    payload_kind: str
    payload_expr: Optional[Expression] = None
    vertices: tuple = ()
    grid: tuple = (DEFAULT_GRID,)
    eps: float = DEFAULT_EPS
    delta: float = DEFAULT_DELTA
    checks_run: tuple = THEOREM_CHECKS + EXTRA_CHECKS
    name: str = "spec"


def _floats(text: str, n: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SpecError(f"{what} must have {n} comma-separated value(s), got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SpecError(f"bad number in {what}: {exc}")


def _number(section: configparser.SectionProxy, key: str, default, cast):
    if key not in section:
        return default
    try:
        return cast(section[key])
    except ValueError:
        raise SpecError(f"[{section.name}] {key} must be a number, got {section[key]!r}")


def _parse_checked(text: str, allowed: set[str], what: str) -> Expression:
    try:
        expr = parse_expression(text)
    except ParseError as exc:
        raise SpecError(f"{what}: {exc}")
    bad = sorted(expr.variables - allowed)
    if bad:
        raise SpecError(f"{what} references undeclared variable(s): {', '.join(bad)}")
    return expr


def load_spec(text: str) -> ProblemSpec:
    """Parse and validate a problem-definition document."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"bad problem definition: {exc}")

    if "domain" not in cp:
        raise SpecError("missing [domain] section")
    dom = cp["domain"]
    if dom.get("scalar", "real").strip() == "exact":
        raise SpecError("exact-kind instances are expressible only via catalog names")
    try:
        dim = int(dom.get("dim", ""))
    except ValueError:
        raise SpecError("[domain] dim must be an integer")
    if not 1 <= dim <= 3:
        raise SpecError("[domain] dim must be 1, 2 or 3")
    lower = _floats(dom.get("lower", ""), dim, "[domain] lower")
    upper = _floats(dom.get("upper", ""), dim, "[domain] upper")

    x_vars = {f"x_{k + 1}" for k in range(dim)}
    xy_vars = x_vars | {f"y_{k + 1}" for k in range(dim)}

    if "map" not in cp:
        raise SpecError("missing [map] section")
    msec = cp["map"]
    kind_key = msec.get("kind", "").strip()
    if kind_key not in _MAP_KINDS:
        raise SpecError(f"[map] kind must be one of {', '.join(_MAP_KINDS)}")
    map_lower: list[Expression] = []
    map_upper: list[Expression] = []
    if kind_key != "constant":
        for k in range(dim):
            lo_key, hi_key = f"lower_{k + 1}", f"upper_{k + 1}"
            if lo_key not in msec or hi_key not in msec:
                raise SpecError(f"[map] needs {lo_key} and {hi_key}")
            map_lower.append(_parse_checked(msec[lo_key], x_vars, f"[map] {lo_key}"))
            map_upper.append(_parse_checked(msec[hi_key], x_vars, f"[map] {hi_key}"))

    if "payload" not in cp:
        raise SpecError("missing [payload] section")
    psec = cp["payload"]
    payload_kind = psec.get("kind", "").strip()
    if payload_kind not in _PAYLOAD_KINDS:
        raise SpecError(f"[payload] kind must be one of {', '.join(_PAYLOAD_KINDS)}")
    payload_expr = None
    vertices: list[tuple] = []
    if payload_kind in ("objective", "bifunction"):
        if "expr" not in psec:
            raise SpecError("[payload] needs expr")
        allowed = x_vars if payload_kind == "objective" else xy_vars
        payload_expr = _parse_checked(psec["expr"], allowed, "[payload] expr")
    else:
        j = 1
        while f"vertex_{j}" in psec:
            parts = [p.strip() for p in psec[f"vertex_{j}"].split(",")]
            if len(parts) != dim:
                raise SpecError(f"[payload] vertex_{j} must have {dim} coordinate(s)")
            vertices.append(
                tuple(_parse_checked(p, x_vars, f"[payload] vertex_{j}") for p in parts)
            )
            j += 1
        if not vertices:
            raise SpecError("[payload] qvi_operator needs at least vertex_1")

    grid = (DEFAULT_GRID,) * dim
    eps, delta = DEFAULT_EPS, DEFAULT_DELTA
    if "solver" in cp:
        ssec = cp["solver"]
        unknown = sorted(set(ssec) - {"grid", "eps", "delta"})
        if unknown:
            raise SpecError(f"[solver] unknown key(s): {', '.join(unknown)}")
        if "grid" in ssec:
            try:
                grid = tuple(int(p) for p in ssec["grid"].split(","))
            except ValueError:
                raise SpecError(f"[solver] grid must be comma-separated integers, got {ssec['grid']!r}")
            if len(grid) == 1:
                grid = grid * dim
            elif len(grid) != dim:
                raise SpecError("[solver] grid must have 1 or dim entries")
            if any(m < 2 for m in grid):
                raise SpecError("[solver] grid entries must be >= 2")
        eps = _number(ssec, "eps", DEFAULT_EPS, float)
        delta = _number(ssec, "delta", DEFAULT_DELTA, float)
        if not (eps >= 0 and delta >= 0):
            raise SpecError("[solver] eps and delta must be nonnegative")

    checks_run: tuple = THEOREM_CHECKS + EXTRA_CHECKS
    if "checks" in cp:
        csec = cp["checks"]
        for key in csec:
            if key in ("trials", "seed"):
                raise SpecError(f"[checks] {key} is not read from a file; pass --{key} to quasieq verify")
            if key != "run":
                raise SpecError(f"[checks] unknown key: {key}")
        if "run" in csec:
            names = tuple(p.strip() for p in csec["run"].split(",") if p.strip())
            known = set(THEOREM_CHECKS) | set(EXTRA_CHECKS)
            bad = [n for n in names if n not in known]
            if bad:
                raise SpecError(f"[checks] unknown checker(s): {', '.join(bad)}")
            checks_run = names

    return ProblemSpec(
        dim=dim,
        lower=lower,
        upper=upper,
        map_kind=_MAP_KINDS[kind_key],
        map_lower=tuple(map_lower),
        map_upper=tuple(map_upper),
        payload_kind=payload_kind,
        payload_expr=payload_expr,
        vertices=tuple(vertices),
        grid=grid,
        eps=eps,
        delta=delta,
        checks_run=checks_run,
    )


def build_instance(spec: ProblemSpec, name: str = "spec") -> ProblemInstance:
    """Construct the runnable instance, validating map images over the grid."""
    from .bifunction import make_expression_bifunction

    C = CompactBox(spec.lower, spec.upper)
    if spec.map_kind == "Constant":
        K = SetValuedMap.constant(C)
    else:
        K = SetValuedMap.from_expressions(C, spec.map_lower, spec.map_upper, variant=spec.map_kind)
    grid = Grid(C, spec.grid)
    validate_setmap(K, grid)

    if spec.payload_kind == "objective":
        payload = ObjectiveFunction.from_expression(spec.payload_expr)
    elif spec.payload_kind == "bifunction":
        payload = make_expression_bifunction(spec.payload_expr, C)
    else:
        payload = QviOperator.from_expressions(spec.vertices)

    return ProblemInstance(
        name=name,
        C=C,
        K=K,
        payload=payload,
        payload_kind=spec.payload_kind,
        grid_default=spec.grid,
        eps_default=spec.eps,
        delta_default=spec.delta,
    )
