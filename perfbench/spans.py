"""Spans and counters around the package's public functions, installed from outside.

The package has no tracing of its own, so the benchmark wraps public
functions and methods at run time and restores them afterwards.  A module-level
function is replaced in every ``quasieq`` module that imported it, so calls
through ``from .x import f`` names are seen too.

A span records (name, start, end, parent) and stays in memory until the run
ends.  A span's self time is its duration minus the durations of its child
spans.  The wrappers also tally each name's self time as they go, from the
clock readings on their own call stack; ``summary`` checks that this tally
equals the self time computed afterwards from the recorded parent links, and
that the top-level spans are disjoint and lie inside the traced interval, so
that the time outside every span (``other.self_s``) is the wall time minus
theirs.  Functions that run millions of times per pass and take about a
microsecond get a call counter instead of a span.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

SPAN, SPAN_SAMPLES, COUNT = "span", "span+samples", "count"

# (metric prefix, module, class or None, attribute, kind, suffix of the time metric)
TARGETS = (
    ("solver.solve_qopt", "quasieq.solver", None, "solve_qopt", SPAN, "self_s"),
    ("solver.solve_qep", "quasieq.solver", None, "solve_qep", SPAN, "self_s"),
    ("solver.verify_theorem_instance", "quasieq.solver", None, "verify_theorem_instance", SPAN, "self_s"),
    ("bifunction.row_min", "quasieq.bifunction", "Bifunction", "row_min", SPAN, "s"),
    ("bifunction.row_pre", "quasieq.bifunction", "Bifunction", "row_pre", SPAN, "s"),
    ("bifunction.row", "quasieq.bifunction", "Bifunction", "row", SPAN, "s"),
    ("objective.eval_batch", "quasieq.bifunction", "ObjectiveFunction", "eval_batch", SPAN, "s"),
    ("expressions.eval_batch", "quasieq.expressions", "Expression", "eval_batch", SPAN, "s"),
    ("expressions.call", "quasieq.expressions", "Expression", "__call__", COUNT, None),
    ("setmap.membership_residuals", "quasieq.setmap", None, "membership_residuals", SPAN, "s"),
    ("setmap.bounds_batch", "quasieq.setmap", "SetValuedMap", "bounds_batch", SPAN, "s"),
    ("setmap.image_index_ranges", "quasieq.setmap", None, "image_index_ranges", COUNT, None),
    ("setmap.validate_setmap", "quasieq.setmap", None, "validate_setmap", SPAN, "s"),
    ("setmap.check_closed_graph", "quasieq.setmap", None, "check_closed_graph", SPAN_SAMPLES, "s"),
    ("setmap.check_lsc", "quasieq.setmap", None, "check_lsc", SPAN_SAMPLES, "s"),
    ("setmap.check_convex_values", "quasieq.setmap", None, "check_convex_values", SPAN_SAMPLES, "s"),
    ("bifunction.check_condition_ii", "quasieq.bifunction", None, "check_condition_ii", SPAN_SAMPLES, "s"),
    ("bifunction.check_condition_iii", "quasieq.bifunction", None, "check_condition_iii", SPAN_SAMPLES, "s"),
    ("bifunction.check_condition_iv", "quasieq.bifunction", None, "check_condition_iv", SPAN_SAMPLES, "s"),
    ("bifunction.check_quasiconvex_second", "quasieq.bifunction", None, "check_quasiconvex_second", SPAN_SAMPLES, "s"),
    ("bifunction.check_quasiconcave_first", "quasieq.bifunction", None, "check_quasiconcave_first", SPAN_SAMPLES, "s"),
    ("bifunction.check_diagonal_zero", "quasieq.bifunction", None, "check_diagonal_zero", SPAN_SAMPLES, "s"),
    ("geometry.grid_points", "quasieq.geometry", None, "grid_points", SPAN, "s"),
    ("geometry.convex_combination", "quasieq.geometry", None, "convex_combination", SPAN, "s"),
    ("geometry.Root2.new", "quasieq.geometry", "Root2", "__init__", COUNT, None),
    ("specfile.load_spec", "quasieq.specfile", None, "load_spec", SPAN, "s"),
    ("specfile.build_instance", "quasieq.specfile", None, "build_instance", SPAN, "s"),
    ("catalog.random_instance", "quasieq.catalog", None, "random_instance", SPAN, "s"),
    ("catalog.qvi_instance", "quasieq.catalog", None, "qvi_instance", SPAN, "s"),
    ("catalog.get_instance", "quasieq.catalog", None, "get_instance", SPAN, "s"),
    ("reporting.report_to_json", "quasieq.reporting", None, "report_to_json", SPAN, "s"),
    ("reporting.verify_to_json", "quasieq.reporting", None, "verify_to_json", SPAN, "s"),
    ("cli.main", "quasieq.cli", None, "main", SPAN, "self_s"),
)


class Tracer:
    """Installs the wrappers, keeps spans and counters, and restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._span_name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._kids_ns: list[int] = []  # per open span: time spent in its finished children
        self._online_self_ns: list[int] = []  # per name, tallied as spans close
        self.counts: dict[str, list[int]] = {}
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, prefix: str, fn, samples: bool):
        nid = len(self.names)
        self.names.append(prefix)
        self._online_self_ns.append(0)
        span_name, parent, start, end, stack, kids, online = (
            self._span_name, self._parent, self._start, self._end, self._stack,
            self._kids_ns, self._online_self_ns)
        clock = time.perf_counter_ns
        sampled = self.counts.setdefault(prefix + ".samples", [0]) if samples else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            kids.append(0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = t1 = clock()
                stack.pop()
                dur = t1 - start[idx]
                online[nid] += dur - kids.pop()
                if kids:
                    kids[-1] += dur
            if sampled is not None:
                sampled[0] += result.samples_used
            return result

        return wrapper

    def _counter(self, prefix: str, fn):
        cell = self.counts.setdefault(prefix + ".calls", [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed in ``missing``."""
        for prefix, module_name, owner, attr, kind, _suffix in TARGETS:
            module = importlib.import_module(module_name)
            holder = getattr(module, owner, None) if owner is not None else module
            if holder is None or attr not in vars(holder):
                self.missing.append(prefix)
                continue
            original = vars(holder)[attr]
            wrapped = self._wrap(prefix, original, kind)
            holders = [holder] if owner is not None else [
                mod for name, mod in sys.modules.items()
                if (name == "quasieq" or name.startswith("quasieq.")) and getattr(mod, attr, None) is original
            ]
            for h in holders:
                setattr(h, attr, wrapped)
                self._undo.append((h, attr, original))

    def _wrap(self, prefix: str, fn, kind: str):
        if kind == COUNT:
            return self._counter(prefix, fn)
        return self._span(prefix, fn, samples=kind == SPAN_SAMPLES)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self, t0_ns: int, t1_ns: int) -> tuple:
        """Per-layer metrics for the traced interval [t0_ns, t1_ns] of ``perf_counter_ns``, and an error.

        The error is None unless the span accounting does not hold: a span
        left open, a negative self time, a name whose self time tallied by
        the wrappers differs from the one computed here, or top-level spans
        that overlap or leave the traced interval.
        """
        n_names = len(self.names)
        name, parent = _np(self._span_name), _np(self._parent)
        start, end = _np(self._start), _np(self._end)
        dur = end - start
        has_parent = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        self_ns = dur - child_ns
        by_name_self_ns = np.zeros(n_names, dtype=np.int64)
        np.add.at(by_name_self_ns, name, self_ns)
        self_s = by_name_self_ns / 1e9
        total_s = np.bincount(name, weights=dur, minlength=n_names) / 1e9
        calls = np.bincount(name, minlength=n_names)
        top_start, top_end = start[~has_parent], end[~has_parent]  # in call order
        wall_s = (t1_ns - t0_ns) / 1e9
        top_s = float(dur[~has_parent].sum()) / 1e9
        other_s = wall_s - top_s
        error = None
        if self._stack:
            error = f"{len(self._stack)} span(s) still open"
        elif self_ns.size and self_ns.min() < 0:
            error = "a span's children outlast it"
        elif by_name_self_ns.tolist() != self._online_self_ns:
            error = "self times tallied by the wrappers differ from those of the recorded parent links"
        elif top_start.size and (top_start[0] < t0_ns or top_end[-1] > t1_ns
                                 or bool(np.any(top_start[1:] < top_end[:-1]))):
            error = "top-level spans overlap or leave the traced interval"
        out: dict = {}
        for prefix, _module, _owner, _attr, kind, suffix in TARGETS:
            if kind == COUNT:
                out[f"{prefix}.calls"] = 0
                continue
            out[f"{prefix}.{suffix}"] = 0.0
            out[f"{prefix}.calls"] = 0
            if kind == SPAN_SAMPLES:
                out[f"{prefix}.samples"] = 0
        for nid, prefix in enumerate(self.names):
            suffix = next(t[5] for t in TARGETS if t[0] == prefix)
            out[f"{prefix}.{suffix}"] = float(self_s[nid])
            out[f"{prefix}.total_s"] = float(total_s[nid])  # children included
            out[f"{prefix}.calls"] = int(calls[nid])
        out.update({key: cell[0] for key, cell in self.counts.items()})
        out["other.self_s"] = other_s
        out["trace.span_share"] = top_s / wall_s
        out["trace.spans"] = int(len(dur))
        return out, error

    def write(self, path: Path) -> None:
        """Every span (name, start, end, parent index) as a numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=_np(self._span_name),
            start_ns=_np(self._start),
            end_ns=_np(self._end),
            parent=_np(self._parent),
        )


def _np(values: array) -> np.ndarray:
    return np.frombuffer(values, dtype=np.int64).copy()
