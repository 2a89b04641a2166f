"""Report emission: fixed-schema CSV tables and round-tripping JSON documents.

CSV schema (fixed): ``index,x_1[,x_2[,x_3]],membership_residual,min_f,gap,status``
with numbers rendered to 12 significant digits, rows sorted lexicographically
by coordinates, and the gap column empty for non-QOPT runs.

JSON reports round-trip: ``report_from_json(report_to_json(r)) == r``.
Wall time is deliberately not part of any emitted document so identical runs
produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .geometry import Root2
from .solver import SolutionRecord, SolveReport, TheoremReport

CSV_STATUS_OK = "ok"


def _num(v: float) -> str:
    return f"{float(v):.12g}"


def solution_csv(report: SolveReport, dim: int) -> str:
    cols = ["index"] + [f"x_{k + 1}" for k in range(dim)]
    cols += ["membership_residual", "min_f", "gap", "status"]
    lines = [",".join(cols)]
    for i, rec in enumerate(report.solutions):
        row = [str(i)]
        row += [_num(c) for c in rec.point]
        row.append(_num(rec.membership_residual))
        row.append(_num(rec.min_f))
        row.append(_num(rec.gap) if rec.gap is not None else "")
        row.append(CSV_STATUS_OK)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _scalar_in(v: Any) -> Any:
    if isinstance(v, str):
        return Root2.parse(v)
    return float(v)


def report_to_dict(report: SolveReport) -> dict:
    return {
        "problem_kind": report.problem_kind,
        "config": report.config,
        "solutions": [
            {
                "point": _sanitize(rec.point),
                "membership_residual": rec.membership_residual,
                "min_f": rec.min_f,
                "gap": rec.gap,
            }
            for rec in report.solutions
        ],
        "min_gap_over_fixed_points": report.min_gap_over_fixed_points,
        "degenerate_points": report.degenerate_points,
    }


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> SolveReport:
    doc = json.loads(text)
    records = tuple(
        SolutionRecord(
            point=tuple(_scalar_in(c) for c in item["point"]),
            membership_residual=item["membership_residual"],
            min_f=item["min_f"],
            gap=item["gap"],
        )
        for item in doc["solutions"]
    )
    return SolveReport(
        problem_kind=doc["problem_kind"],
        solutions=records,
        config=doc["config"],
        min_gap_over_fixed_points=doc["min_gap_over_fixed_points"],
        degenerate_points=doc["degenerate_points"],
    )


def _sanitize(value: Any) -> Any:
    """Witness payloads may hold exact scalars, Fractions and point tuples."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (Root2, Fraction)):
        return str(value)
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return str(value)
    return value


def verify_to_dict(theorem: TheoremReport, extra_checks: dict | None = None) -> dict:
    extra = extra_checks or {}
    checks = {  # an extra check's entry names its tolerance too
        name: {"verdict": rep.verdict, "witness": _sanitize(rep.witness), "samples_used": rep.samples_used}
        | ({"tolerance": rep.tolerance} if name in extra else {})
        for name, rep in {**theorem.checks, **extra}.items()
    }
    solve = theorem.solve_report
    return {
        "checks": checks,
        "anomaly": theorem.anomaly,
        "solve": {
            "problem_kind": solve.problem_kind,
            "solution_count": len(solve.solutions),
            "first_solutions": [_sanitize(rec.point) for rec in solve.solutions[:10]],
            "min_gap_over_fixed_points": solve.min_gap_over_fixed_points,
            "degenerate_points": solve.degenerate_points,
            "config": solve.config,
        },
    }


def verify_to_json(theorem: TheoremReport, extra_checks: dict | None = None) -> str:
    return json.dumps(verify_to_dict(theorem, extra_checks), indent=2, sort_keys=True) + "\n"
