"""Command-line interface: solve and verify problem definitions, run the catalog.

Commands::

    quasieq solve  TARGET [--grid M[,M]] [--eps E] [--delta D] [--out PATH]
                          [--format csv|json]
    quasieq verify TARGET [--grid M[,M]] [--eps E] [--delta D] [--out PATH]
                          [--trials T] [--seed S]
    quasieq catalog list
    quasieq catalog run NAME [--grid M[,M]] [--eps E] [--delta D] [--out PATH]
                             [--format csv|json]

Each flag is accepted only by the commands that read it.  TARGET is a
problem-definition file path or a catalog instance name.  verify runs the six
theorem checks and the extra checks a file's ``[checks] run`` names (all three
by default); their sampling trials and seed come from --trials and --seed
alone, and a file that sets them is refused.  Exit codes: 0 =
ran, 2 = bad input (unknown flags, malformed or negative numbers, bad files;
always with an ``error:`` line, never a traceback), 3 = verify flagged an
anomaly (all hypothesis checks clean yet the solution set came back empty).

solve, catalog run and the solve step of verify all run the solver's one
scan kernel (its table branch for expression maps on float grids, its
per-point branch otherwise), single-threaded.  Reports go to --out (or
stdout); a one-line JSON run summary always goes to stderr.  Identical inputs
and flags produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bifunction import (
    check_diagonal_zero,
    check_quasiconcave_first,
    check_quasiconvex_second,
)
from .catalog import CATALOG, ProblemInstance, catalog_names, get_instance
from .errors import QuasieqError
from .reporting import report_to_json, solution_csv, verify_to_json
from .solver import SolverConfig, verify_theorem_instance
from .specfile import EXTRA_CHECKS, build_instance, load_spec


def _grid_arg(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _tolerance_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasieq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", type=_grid_arg, default=None, help="points per axis, e.g. 2001 or 41,41")
        p.add_argument("--eps", type=_tolerance_arg, default=None, help="slack on f >= 0 / gap <= eps")
        p.add_argument("--delta", type=_tolerance_arg, default=None, help="membership slack")
        p.add_argument("--out", type=Path, default=None, help="report file (default: stdout)")

    def add_format_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    solve_cmd = sub.add_parser("solve", help="solve a problem definition or catalog instance")
    solve_cmd.add_argument("target", type=str)
    add_solver_flags(solve_cmd)
    add_format_flag(solve_cmd)

    verify_cmd = sub.add_parser("verify", help="run hypothesis checkers and flag anomalies")
    verify_cmd.add_argument("target", type=str)
    add_solver_flags(verify_cmd)
    verify_cmd.add_argument("--trials", type=int, default=400)
    verify_cmd.add_argument("--seed", type=int, default=1729, help="seed for sampled checkers")

    cat = sub.add_parser("catalog", help="list or run built-in instances")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list instance names")
    run_cmd = cat_sub.add_parser("run", help="solve a catalog instance")
    run_cmd.add_argument("name", type=str)
    add_solver_flags(run_cmd)
    add_format_flag(run_cmd)

    return parser


def _resolve_target(target: str) -> tuple[ProblemInstance, tuple]:
    """A (instance, checks_to_run) pair from a file path or catalog name."""
    path = Path(target)
    if path.exists():
        spec = load_spec(path.read_text(encoding="utf-8"))
        instance = build_instance(spec, name=path.stem)
        # defaults from the file's solver section become instance defaults
        return instance, spec.checks_run
    if target in CATALOG:
        return get_instance(target), None
    raise QuasieqError(f"no such file or catalog instance: {target!r}")


def _config(instance: ProblemInstance, args: argparse.Namespace) -> SolverConfig:
    grid = args.grid
    if grid is not None:
        grid = grid * instance.C.dim if len(grid) == 1 else grid
        if len(grid) != instance.C.dim:
            raise QuasieqError("--grid must have 1 or dim entries")
    return instance.config(points_per_axis=grid, eps=args.eps, delta=args.delta)


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _summary(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _run_solve(args: argparse.Namespace, target: str) -> int:
    instance, _checks = _resolve_target(target)
    cfg = _config(instance, args)
    report = instance.solve(cfg)
    if args.format == "json":
        _emit(report_to_json(report), args.out)
    else:
        _emit(solution_csv(report, instance.C.dim), args.out)
    _summary(
        {
            "command": "solve",
            "instance": instance.name,
            "problem_kind": report.problem_kind,
            "solutions": len(report.solutions),
            "min_gap_over_fixed_points": report.min_gap_over_fixed_points,
            "degenerate_points": report.degenerate_points,
            "wall_time": round(report.wall_time, 6),
            "out": str(args.out) if args.out else "-",
        }
    )
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    instance, checks_run = _resolve_target(args.target)
    cfg = _config(instance, args)
    theorem = verify_theorem_instance(instance, cfg, trials=args.trials, seed=args.seed)
    wanted_extras = EXTRA_CHECKS if checks_run is None else tuple(
        c for c in checks_run if c in EXTRA_CHECKS
    )
    f = instance.bifunction()
    extra = {}
    for name in wanted_extras:
        if name == "qcvx_second":
            extra[name] = check_quasiconvex_second(f, instance.C, trials=args.trials, seed=args.seed)
        elif name == "qccv_first":
            extra[name] = check_quasiconcave_first(f, instance.C, trials=args.trials, seed=args.seed)
        elif name == "diagonal_zero":
            extra[name] = check_diagonal_zero(f, cfg.grid)
    _emit(verify_to_json(theorem, extra), args.out)
    _summary(
        {
            "command": "verify",
            "instance": instance.name,
            "anomaly": theorem.anomaly,
            "verdicts": {**theorem.verdicts(), **{k: v.verdict for k, v in extra.items()}},
            "solutions": len(theorem.solve_report.solutions),
            "out": str(args.out) if args.out else "-",
        }
    )
    return 3 if theorem.anomaly else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "solve":
            return _run_solve(args, args.target)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "catalog":
            if args.catalog_command == "list":
                for name in catalog_names():
                    instance = get_instance(name)
                    print(f"{name}\t{instance.payload_kind}\tdim={instance.C.dim}")
                return 0
            return _run_solve(args, args.name)
    except QuasieqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
