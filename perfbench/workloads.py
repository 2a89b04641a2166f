"""The four benchmark workloads: seeded problem lists built on the public API.

A workload seed picks problems from fixed pools of generator seeds, so every
problem a run can meet has a reference digest recorded in ``reference.json``
(see ``make_reference.py``).  A problem is one call into the package plus the
emission of its report; its ``run`` returns the report bytes that the
correctness gate hashes.  Package functions are called through their modules
(``solver.solve_qopt``, not a from-import) so that the tracer in spans.py sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import quasieq
from quasieq import bifunction, catalog, cli, reporting, solver, specfile
from quasieq.geometry import Grid


@dataclass(frozen=True)
class Pool:
    """Generator seeds a workload draws from, all inside one band of an input property.

    A scan's cost follows its fixed points (separable payloads: one inner
    minimum each) or its inner evaluations (row path: one f(x, y) per image
    point of each fixed point), so each pool holds that property inside
    ``band`` (checked by make_reference.py): otherwise the pick of a seed,
    not the code, would set a run's time.  Growing a pool needs new reference
    digests at the same commit.
    """

    seeds: tuple
    band: tuple = ("fixed_points", 0, float("inf"))  # (property, low, high)


# random_instance(seed, 2) at 401^2, QOpt and QEP scans
SEP2D = Pool((2002, 2006, 2016, 2049, 2060, 2067, 2070, 2080, 2083, 2091, 2098, 2100,
              2106, 2113, 2133, 2145, 2149, 2157, 2181, 2189, 2190, 2193, 2201, 2220),
             ("fixed_points", 38500, 41500))
# 3-D moving-box objective specs at 61^3
BOX3D = Pool((2, 10, 14, 16, 17, 18, 22, 28, 34, 38, 43, 46, 47, 49, 50, 58),
             ("fixed_points", 20000, 22000))
# qvi_instance(seed) with seed >= 3 and a 2-D domain, at 121^2
QVI2D = Pool((8, 30, 59, 64, 65, 68, 69, 77, 90, 95, 115, 118, 150, 174, 207, 241, 256,
              260, 286, 309, 322, 336, 360, 368), ("inner_evaluations", 16e6, 19e6))
# <A x + b, y - x> bifunction specs at 121^2
EXPRBIF = Pool((3, 7, 12, 15, 21, 30, 32, 42, 43, 44, 50, 57, 63, 65, 75, 85, 88, 92,
                95, 107, 112, 125, 145, 153), ("inner_evaluations", 15e6, 18e6))
# random_instance(seed, 1) at 401 and random_instance(seed, 2) at 401^2, verified
VERIFY1D = Pool(tuple(range(3000, 3064)))
VERIFY2D = Pool((3101, 3106, 3110, 3111, 3119, 3121, 3122, 3123, 3160, 3166, 3173, 3175,
                 3186, 3199, 3202, 3207), ("fixed_points", 39000, 43000))
# checker seeds for `quasieq verify remark`; the instance itself is fixed
REMARK = Pool(tuple(range(1729, 1745)))

SCAN_2D_GRID = 401
FIGURE1_GRID = 200001
BOX3D_GRID = 61
ROWPATH_GRID = 121
VERIFY_GRID = 401


@dataclass
class Problem:
    """One closed-loop request: ``run()`` does the work and returns report bytes."""

    key: str  # stable identity; the reference digest is stored under it
    run: Callable[[], bytes]
    info: dict = field(default_factory=dict)  # what the properties pass needs


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def _moving_box_lines(rng: random.Random, dim: int, w_lo: float, w_hi: float) -> list:
    """Map lines for a box whose centre moves affinely; images never empty on [0,1]^dim."""
    lines = ["[map]", "kind = moving_box"]
    for k in range(dim):
        width = rng.uniform(w_lo, w_hi)
        alpha = rng.uniform(0.35, 0.65)
        beta = rng.uniform(-0.2, 0.2)
        other = (k + 1) % dim + 1
        centre = f"{_fmt(alpha)} + {_fmt(beta)}*x_{other}"
        lines.append(f"lower_{k + 1} = ({centre}) - {_fmt(width)}")
        lines.append(f"upper_{k + 1} = ({centre}) + {_fmt(width)}")
    return lines


def _domain_lines(dim: int) -> list:
    ones = ", ".join(["1.0"] * dim)
    zeros = ", ".join(["0.0"] * dim)
    return ["[domain]", f"dim = {dim}", f"lower = {zeros}", f"upper = {ones}", ""]


def box3d_spec(seed: int) -> str:
    """A 3-D QOpt spec: moving-box map, sum-of-abs plus max-of-affine objective."""
    rng = random.Random(1_000_003 * seed + 3)
    lines = _domain_lines(3) + _moving_box_lines(rng, 3, 0.18, 0.28) + [""]
    centre = [rng.uniform(0.2, 0.8) for _ in range(3)]
    weights = [rng.uniform(0.5, 1.5) for _ in range(3)]
    absolute = " + ".join(
        f"{_fmt(w)}*abs(x_{k + 1} - {_fmt(c)})" for k, (w, c) in enumerate(zip(weights, centre))
    )
    pieces = []
    for _ in range(2):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        terms = " + ".join(f"{_fmt(a)}*x_{k + 1}" for k, a in enumerate(coeffs))
        pieces.append(f"{terms} + {_fmt(rng.uniform(-0.5, 0.5))}")
    lines += [
        "[payload]",
        "kind = objective",
        f"expr = {absolute} + max({pieces[0]}, {pieces[1]})",
        "",
        "[solver]",
        f"grid = {BOX3D_GRID}, {BOX3D_GRID}, {BOX3D_GRID}",
        "eps = 0.01",
        "delta = 0.0",
        "",
    ]
    return "\n".join(lines)


def exprbif_spec(seed: int) -> str:
    """A 2-D QEP spec with the non-separable bifunction f(x, y) = <A x + b, y - x>."""
    rng = random.Random(1_000_003 * seed + 7)
    lines = _domain_lines(2) + _moving_box_lines(rng, 2, 0.2, 0.35) + [""]
    rows = []
    for k in range(2):
        a1, a2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        b = rng.uniform(-0.5, 0.5)
        rows.append(f"({_fmt(a1)}*x_1 + {_fmt(a2)}*x_2 + {_fmt(b)})*(y_{k + 1} - x_{k + 1})")
    lines += [
        "[payload]",
        "kind = bifunction",
        f"expr = {rows[0]} + {rows[1]}",
        "",
        "[solver]",
        f"grid = {ROWPATH_GRID}, {ROWPATH_GRID}",
        "eps = 1e-06",
        "delta = 0.0",
        "",
    ]
    return "\n".join(lines)


def _criterion5_config(inst, m: int) -> solver.SolverConfig:
    """The acceptance-suite config: eps = 2 x Lipschitz bound x grid step."""
    grid = Grid(inst.C, (m,) * inst.C.dim)
    eps = 2.0 * inst.known_facts["lipschitz_bound"] * grid.max_step()
    return solver.SolverConfig(grid, eps_value=eps, delta_membership=0.0)


# -- problem builders --------------------------------------------------------


def qopt_problem(seed: int) -> Problem:
    inst = catalog.random_instance(seed, 2)
    cfg = _criterion5_config(inst, SCAN_2D_GRID)

    def run() -> bytes:
        report = solver.solve_qopt(inst.payload, inst.K, cfg)
        return reporting.report_to_json(report).encode()

    key = f"qopt/random_instance({seed},2)@{SCAN_2D_GRID}^2"
    return Problem(key, run, {"instance": inst, "config": cfg, "payload": "separable"})


def qep_problem(seed: int) -> Problem:
    inst = catalog.random_instance(seed, 2)
    cfg = _criterion5_config(inst, SCAN_2D_GRID)

    def run() -> bytes:
        f = quasieq.make_opt_bifunction(inst.payload, inst.C)
        report = solver.solve_qep(f, inst.K, cfg, kind=inst.problem_kind())
        return reporting.report_to_json(report).encode()

    key = f"qep-opt-adapter/random_instance({seed},2)@{SCAN_2D_GRID}^2"
    return Problem(key, run, {"instance": inst, "config": cfg, "payload": "separable"})


def figure1_problem() -> Problem:
    inst = catalog.figure1_instance()
    cfg = inst.config(points_per_axis=(FIGURE1_GRID,))

    def run() -> bytes:
        return reporting.report_to_json(inst.solve(cfg)).encode()

    key = f"qopt/figure1@{FIGURE1_GRID}"
    return Problem(key, run, {"instance": inst, "config": cfg, "payload": "separable"})


def box3d_problem(seed: int) -> Problem:
    inst = specfile.build_instance(specfile.load_spec(box3d_spec(seed)), name=f"box3d-{seed}")
    cfg = inst.config()

    def run() -> bytes:
        return reporting.report_to_json(inst.solve(cfg)).encode()

    key = f"qopt/box3d({seed})@{BOX3D_GRID}^3"
    return Problem(key, run, {"instance": inst, "config": cfg, "payload": "separable"})


def _cli_problem(key: str, argv: list, out: Path, info: dict) -> Problem:
    def run() -> bytes:
        out.unlink(missing_ok=True)  # a report the call did not write must not pass the gate
        stderr = io.StringIO()  # the one-line run summary, or the error
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"quasieq {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
        return f"exit={code}\n".encode() + out.read_bytes()

    return Problem(key, run, info)


def _spec_cli_problem(key: str, stem: str, text: str, scratch: Path) -> Problem:
    """`quasieq solve SPEC --format json --grid 121` on spec text written to a file."""
    path = scratch / f"{stem}.spec"
    path.write_text(text, encoding="utf-8")
    inst = specfile.build_instance(specfile.load_spec(text), name=stem)
    cfg = inst.config(points_per_axis=(ROWPATH_GRID,) * inst.C.dim)
    argv = ["solve", str(path), "--format", "json", "--grid", str(ROWPATH_GRID)]
    return _cli_problem(key, argv, scratch / f"{stem}.json", {
        "instance": inst, "config": cfg, "payload": "row-path"})


def qvi_cli_problem(seed: int, scratch: Path) -> Problem:
    inst = catalog.qvi_instance(seed)
    key = f"cli-solve/qvi_instance({seed})@{ROWPATH_GRID}^{inst.C.dim}"
    return _spec_cli_problem(key, f"qvi-{seed}", inst.serialize(), scratch)


def exprbif_cli_problem(seed: int, scratch: Path) -> Problem:
    key = f"cli-solve/exprbif({seed})@{ROWPATH_GRID}^2"
    return _spec_cli_problem(key, f"exprbif-{seed}", exprbif_spec(seed), scratch)


def verify_problem(seed: int, dim: int) -> Problem:
    inst = catalog.random_instance(seed, dim)
    cfg = _criterion5_config(inst, VERIFY_GRID)

    def run() -> bytes:
        theorem = solver.verify_theorem_instance(inst, cfg)
        f = inst.bifunction()
        extra = {
            "qcvx_second": bifunction.check_quasiconvex_second(f, inst.C),
            "qccv_first": bifunction.check_quasiconcave_first(f, inst.C),
            "diagonal_zero": bifunction.check_diagonal_zero(f, cfg.grid),
        }
        return reporting.verify_to_json(theorem, extra).encode()

    key = f"verify/random_instance({seed},{dim})@{VERIFY_GRID}^{dim}"
    return Problem(key, run, {"instance": inst, "config": cfg, "payload": "separable"})


def remark_cli_problem(checker_seed: int, scratch: Path) -> Problem:
    inst = catalog.get_instance("remark")
    key = f"cli-verify/remark --seed {checker_seed}"
    argv = ["verify", "remark", "--seed", str(checker_seed)]
    out = scratch / f"remark-{checker_seed}.json"
    return _cli_problem(key, argv, out, {"instance": inst, "config": inst.config(),
                                         "payload": "exact"})


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """A problem maker and the pool it draws generator seeds from."""

    make: Callable[[object, Path], Problem]  # (generator seed, scratch dir) -> Problem
    pool: Pool


@dataclass(frozen=True)
class Workload:
    """The problems of one pass: ``count`` draws without replacement from each source.

    This mix is the only place a workload names its pools, so the problems
    ``build`` can return are exactly those make_reference.py records.
    """

    name: str
    mix: tuple  # ((Source, count), ...)

    def build(self, seed: int, scratch: Path) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        problems = []
        for source, count in self.mix:
            problems += [source.make(s, scratch) for s in rng.sample(source.pool.seeds, count)]
        rng.shuffle(problems)
        return problems


# Problems per pass.  A pass takes 4-11 s on a 2-CPU Xeon, so a run of 25 s
# makes two or more passes and a traced run fits an untraced and a traced pass.
WORKLOADS = {w.name: w for w in (
    Workload("scan-separable", (
        (Source(lambda s, _d: qopt_problem(s), SEP2D), 1),
        (Source(lambda s, _d: qep_problem(s), SEP2D), 1),
        (Source(lambda _s, _d: figure1_problem(), Pool((None,))), 1),
        (Source(lambda s, _d: box3d_problem(s), BOX3D), 1),
    )),
    Workload("scan-rowpath", (
        (Source(qvi_cli_problem, QVI2D), 3),
        (Source(exprbif_cli_problem, EXPRBIF), 3),
    )),
    Workload("verify-float", (
        (Source(lambda s, _d: verify_problem(s, 1), VERIFY1D), 4),
        (Source(lambda s, _d: verify_problem(s, 2), VERIFY2D), 1),
    )),
    Workload("verify-exact", ((Source(remark_cli_problem, REMARK), 1),)),
)}
