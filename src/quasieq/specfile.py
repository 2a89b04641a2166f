"""Problem-definition files: an INI-style format with five sections.

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
    grid = 2001
    eps = 1e-06
    delta = 0.0

    [checks]                     ; optional; extra checks verify runs (default: all three)
    run = qcvx_second, diagonal_zero

Each section takes only the keys shown that its kind needs (no bounds for a
constant map; ``vertex_1``, ``vertex_2``, ... in place of ``expr`` for a
qvi_operator) and [domain] ``scalar``, which must be ``real`` (``exact`` is
refused with its own message): a key or section that ``load_spec`` does not
read is a SpecError naming it, a ``[DEFAULT]`` section too, and a line that
configparser cannot read is one naming its file line.  All
expressions parse and type-check (variable indices against the declared
dimension) and every number parses before anything is evaluated; a malformed
value is a SpecError naming its section and key.  [checks] ``run`` names
extra checks only, each run once however often it is named: verify always
runs the six theorem checks, so a theorem check named there is a SpecError.
The checkers' trials and seed are set by verify's ``--trials`` and ``--seed``
flags, so a ``trials`` or ``seed`` key there is a SpecError that says so.
After every key is checked, ``load_spec`` builds the domain box, the map
(its ``variant`` is the file's kind) and the payload into the one
``ProblemInstance`` it returns, named ``spec``, whose defaults and
``checks_run`` are the file's; ``build_instance`` renames it.  So any
SpecError comes before an InstanceDefinitionError such as an empty box.  The
parsed expressions become the map's bounds and the payload's function
themselves.  No bound is evaluated at load time: the solver checks the
bounds finite and the images nonempty over the grid it scans (the file's, or
``--grid``'s), evaluating every bound once over the whole grid: the
expression bounds of moving_box and piecewise_moving_interval maps in one
batch, constant maps once per point.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools

from .bifunction import Bifunction, ObjectiveFunction, QviOperator
from .catalog import PAYLOAD_KINDS, ProblemInstance
from .errors import ParseError, SpecError
from .expressions import Expression, parse_expression
from .geometry import CompactBox
from .setmap import MAP_KINDS, SetValuedMap
from .solver import EXTRA_CHECKS, THEOREM_CHECKS

DEFAULT_GRID = 201
DEFAULT_EPS = 1e-6
DEFAULT_DELTA = 0.0


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


def _coordinates(text: str) -> list:
    """The parts of text between its commas outside parentheses: ``max(x_1, 0.5), x_1`` has two."""
    depths = itertools.accumulate((c == "(") - (c == ")") for c in text)
    cuts = [i for i, (c, depth) in enumerate(zip(text, depths)) if c == "," and depth == 0]
    return [text[i + 1 : j].strip() for i, j in zip([-1] + cuts, cuts + [len(text)])]


def _parse_checked(text: str, allowed: set[str], what: str) -> Expression:
    try:
        expr = parse_expression(text)
    except ParseError as exc:
        raise SpecError(f"{what}: {exc}")
    bad = sorted(expr.variables - allowed)
    if bad:
        raise SpecError(f"{what} references undeclared variable(s): {', '.join(bad)}")
    return expr


def _refuse_unread(section: configparser.SectionProxy, read: set[str]) -> None:
    """A key that ``load_spec`` does not read is refused, never silently ignored."""
    unknown = sorted(set(section) - read)
    if unknown:
        raise SpecError(f"[{section.name}] unknown key(s): {', '.join(unknown)}")


def load_spec(text: str) -> ProblemInstance:
    """Parse and check a problem-definition document, then build its instance, named ``spec``."""
    # no header names the default section "": [DEFAULT] is an ordinary section, refused as unknown
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="")
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise SpecError(f"bad problem definition: line {exc.lineno}: {exc.line.strip()!r} comes before any [section]")
    except configparser.ParsingError as exc:  # every bad line is listed: name the first
        lineno, line = exc.errors[0][0], text.split("\n")[exc.errors[0][0] - 1].strip()
        raise SpecError(f"bad problem definition: line {lineno}: {line!r} is not a key = value line")
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:  # named after the file line
        raise SpecError(f"bad problem definition: line {exc.lineno}: {str(exc).partition(']: ')[2]}")

    if "domain" not in cp:
        raise SpecError("missing [domain] section")
    dom = cp["domain"]
    scalar = dom.get("scalar", "real").strip()
    if scalar == "exact":
        raise SpecError("exact-kind instances are expressible only via catalog names")
    if scalar != "real":
        raise SpecError(f"[domain] scalar must be real, got {scalar!r}")
    _refuse_unread(dom, {"scalar", "dim", "lower", "upper"})
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
    if kind_key not in MAP_KINDS:
        raise SpecError(f"[map] kind must be one of {', '.join(MAP_KINDS)}")
    map_lower: list[Expression] = []
    map_upper: list[Expression] = []
    map_keys = {"kind"}
    if kind_key != "constant":
        for k in range(dim):
            lo_key, hi_key = f"lower_{k + 1}", f"upper_{k + 1}"
            if lo_key not in msec or hi_key not in msec:
                raise SpecError(f"[map] needs {lo_key} and {hi_key}")
            map_lower.append(_parse_checked(msec[lo_key], x_vars, f"[map] {lo_key}"))
            map_upper.append(_parse_checked(msec[hi_key], x_vars, f"[map] {hi_key}"))
            map_keys |= {lo_key, hi_key}
    _refuse_unread(msec, map_keys)

    if "payload" not in cp:
        raise SpecError("missing [payload] section")
    psec = cp["payload"]
    payload_kind = psec.get("kind", "").strip()
    if payload_kind not in PAYLOAD_KINDS.values():
        raise SpecError(f"[payload] kind must be one of {', '.join(PAYLOAD_KINDS.values())}")
    payload_expr = None
    vertices: list[tuple] = []
    if payload_kind in ("objective", "bifunction"):
        if "expr" not in psec:
            raise SpecError("[payload] needs expr")
        allowed = x_vars if payload_kind == "objective" else xy_vars
        payload_expr = _parse_checked(psec["expr"], allowed, "[payload] expr")
        payload_keys = {"kind", "expr"}
    else:
        j = 1
        while f"vertex_{j}" in psec:
            parts = _coordinates(psec[f"vertex_{j}"])
            if len(parts) != dim:
                raise SpecError(f"[payload] vertex_{j} must have {dim} coordinate(s)")
            vertices.append(
                tuple(_parse_checked(p, x_vars, f"[payload] vertex_{j}") for p in parts)
            )
            j += 1
        if not vertices:
            raise SpecError("[payload] qvi_operator needs at least vertex_1")
        payload_keys = {"kind"} | {f"vertex_{i}" for i in range(1, j)}
    _refuse_unread(psec, payload_keys)
    unknown = sorted(set(cp.sections()) - {"domain", "map", "payload", "solver", "checks"})
    if unknown:
        raise SpecError(f"unknown section(s): {', '.join(unknown)}")

    grid = (DEFAULT_GRID,) * dim
    eps, delta = DEFAULT_EPS, DEFAULT_DELTA
    if "solver" in cp:
        ssec = cp["solver"]
        _refuse_unread(ssec, {"grid", "eps", "delta"})
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

    checks_run = tuple(EXTRA_CHECKS)
    if "checks" in cp:
        csec = cp["checks"]
        for key in ("trials", "seed"):
            if key in csec:
                raise SpecError(f"[checks] {key} is not read from a file; pass --{key} to quasieq verify")
        _refuse_unread(csec, {"run"})
        if "run" in csec:
            names = tuple(p.strip() for p in csec["run"].split(",") if p.strip())
            theorem = [n for n in names if n in THEOREM_CHECKS]
            if theorem:
                raise SpecError(
                    f"[checks] run names theorem check(s) {', '.join(theorem)}; verify always runs "
                    f"the six theorem checks, and run selects among {', '.join(EXTRA_CHECKS)}"
                )
            bad = [n for n in names if n not in EXTRA_CHECKS]
            if bad:
                raise SpecError(f"[checks] unknown checker(s): {', '.join(bad)}")
            checks_run = tuple(dict.fromkeys(names))

    C = CompactBox(lower, upper)
    if kind_key == "constant":
        K = SetValuedMap.constant(C)
    else:
        K = SetValuedMap(C, map_lower, map_upper, variant=kind_key)
    if payload_kind == "objective":
        payload = ObjectiveFunction(payload_expr)
    elif payload_kind == "bifunction":
        payload = Bifunction(payload_expr, C)
    else:
        payload = QviOperator.from_expressions(vertices)
    return ProblemInstance("spec", C, K, payload, grid, eps, delta, checks_run=checks_run)


def build_instance(spec: ProblemInstance, name: str = "spec") -> ProblemInstance:
    """The loaded instance under another name."""
    return dataclasses.replace(spec, name=name)
