"""Benchmark for quasieq: closed-loop runs of one workload with a correctness gate.

Usage, from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload scan-separable --seed 7 --seconds 25 --trace 0

One process, one thread, one problem after another.  The seed picks the
problem list (see ``workloads.py``); the run repeats passes over it until the
next pass would overrun ``--seconds``, always making at least one.  The
end-to-end times are rescaled to a reference machine speed sampled while
each problem runs (see ``speed.py``); the raw times are in the detail line.

Every report is hashed and compared with ``reference.json``; a mismatch or an
exception counts as a failed problem.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones named in BENCHMARK.json;
with ``--trace 1`` the run makes an untraced, a traced and, if the budget
allows, another untraced set-up plus pass and reports the per-layer ones (see ``spans.py``), writing every span to
``perfbench/out/``.  The line before it holds the details: every latency,
percentiles with their sample counts, input properties and machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed  # numpy only; the modules that import quasieq wait for sys.path below

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import quasieq; print(time.perf_counter() - t)"
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10  # samples a reported percentile must have above it


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _percentiles(values: list) -> dict:
    """The median, and the highest level with at least MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered), "tail": None}
    for q in TAIL_LEVELS:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND:
            rank = min(n - 1, int(q / 100.0 * n))
            out["tail"] = {"q": q, "value": ordered[rank]}
            break
    return out


class Gate:
    """Compares report bytes with the reference digests and keeps the tallies."""

    def __init__(self, digests: dict) -> None:
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self._reported: set = set()

    def record(self, key: str, data, error) -> None:
        self.attempted += 1
        if error is None:
            want = self.digests.get(key)
            if want is None:
                error = "no reference digest"
            elif hashlib.sha256(data).hexdigest() != want:
                error = "report bytes differ from the reference"
        if error is not None:
            self.failed += 1
            if key not in self._reported:
                self._reported.add(key)
                print(f"FAILED {key}: {error}", file=sys.stderr)


def run_pass(problems: list, gate: Gate, probe=None) -> tuple:
    """One closed-loop pass; returns (wall seconds, per-problem raw seconds, per-problem kernel seconds).

    With a ``SpeedProbe`` each problem's raw time leaves out the probe's own
    time and comes with the mean kernel time sampled around and during it
    (see ``speed.py``); without one the kernel list is empty.
    """
    raws, kernels = [], []
    start = time.perf_counter()
    for problem in problems:
        if probe is None:
            t0 = time.perf_counter()
            data, error = call(problem.run)
            raws.append(time.perf_counter() - t0)
        else:
            (data, error), raw, kernel_s = probe.measure(lambda: call(problem.run))
            raws.append(raw)
            kernels.append(kernel_s)
        gate.record(problem.key, data, error)
    return time.perf_counter() - start, raws, kernels


def call(fn) -> tuple:
    """(fn(), None), or (None, the traceback) if it raised: the benchmark keeps going and counts it."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quasieq" / "__init__.py").is_file():
        return _fail(f"no package source at {src}")
    bench_file = ROOT / "BENCHMARK.json"
    reference_file = HERE / "reference.json"
    for needed in (bench_file, reference_file):
        if not needed.is_file():
            return _fail(f"missing {needed}")
    # one thread: BLAS-backed numpy calls must not fan out to the second core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import quasieq

    import facts
    import workloads
    from spans import Tracer

    if Path(quasieq.__file__).resolve().parent != (src / "quasieq").resolve():
        return _fail(f"imported quasieq from {quasieq.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    gate = Gate(json.loads(reference_file.read_text(encoding="utf-8"))["digests"])
    properties_file = HERE / "properties.json"
    known_props = {}
    if properties_file.is_file():
        doc = json.loads(properties_file.read_text(encoding="utf-8"))
        known_props = doc["workloads"].get(args.workload, {}).get("problems", {})
    workload = workloads.WORKLOADS[args.workload]
    scratch = HERE / "out" / args.workload
    scratch.mkdir(parents=True, exist_ok=True)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        values, ok = traced_run(workload, args, scratch, gate, Tracer, detail)
        wanted = bench["per_layer"]
    else:
        values, ok = untraced_run(workload, args, scratch, gate, detail), True
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"run produced no value for {', '.join(missing)}")

    keys = detail["problems"]
    props = [known_props[k] for k in keys if k in known_props]
    detail["properties"] = facts.summarize(props, facts.cache_bytes()) if props else None
    detail["machine"] = facts.machine_facts()
    detail["failed_frac"] = gate.failed / gate.attempted
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": ok and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def import_times(src: Path) -> list:
    """(raw, rescaled) seconds to import the package in fresh interpreters, SETUP_REPS times.

    The child process reports its own import time; the parent, idle while it
    runs, times the kernel right before and after it.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for _ in range(SETUP_REPS):
        before = speed.kernel()
        raw = float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True,
                                   capture_output=True, text=True, timeout=120).stdout)
        kernel_s = (before + speed.kernel()) / 2
        out.append((raw, speed.rescale(raw, kernel_s)))
    return out


def untraced_run(workload, args, scratch: Path, gate: Gate, detail: dict) -> dict:
    """Set-up five times, then passes until the budget is spent; returns the end-to-end metrics.

    Every time is rescaled to the reference speed (``speed.py``): this
    shared machine's speed drifts for tens of seconds at a time, which no
    amount of repetition inside one run averages out.  The raw times and
    kernel times are in the detail line.
    """
    probe = speed.SpeedProbe()
    imports = import_times(ROOT / "src")
    builds = []
    for _ in range(SETUP_REPS):
        problems, raw, kernel_s = probe.measure(lambda: workload.build(args.seed, scratch))
        builds.append((raw, speed.rescale(raw, kernel_s)))
    detail["problems"] = [p.key for p in problems]
    walls, raws, kernels = [], [], []
    started = time.perf_counter()
    while True:
        wall, raw, kernel_s = run_pass(problems, gate, probe)
        walls.append(wall)
        raws += raw
        kernels += kernel_s
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(problems)
    latencies = [speed.rescale(r, k) for r, k in zip(raws, kernels)]
    problem_s = _percentiles(latencies)
    detail.update({
        "setup_import_s": imports,
        "setup_build_s": builds,
        "pass_wall_s": walls,
        "problem_s": problem_s,
        "latencies_s": latencies,
        "raw_latencies_s": raws,
        "kernel_s": kernels,
        "raw_wall_s": sum(statistics.median(raws[i::n]) for i in range(n)),
        "raw_problem_s.p50": statistics.median(raws),
    })
    # one pass, robust to an outlier in one pass: each problem's median over the passes
    wall_s = sum(statistics.median(latencies[i::n]) for i in range(n))
    return {
        "wall_s": wall_s,
        "problem_s.p50": problem_s["p50"],
        "problems_per_s": n / wall_s,
        "setup_s": statistics.median(r for _, r in imports) + statistics.median(r for _, r in builds),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(workload, args, scratch: Path, gate: Gate, tracer_cls, detail: dict) -> tuple:
    """Untraced, traced and (when the budget allows) untraced again: set-up plus one pass each.

    Returns the per-layer metrics of the traced one.  Span times are raw
    (they include the speed probe's own time, about 2%); the overhead
    compares the traced run's rescaled time with the mean of the untraced
    ones, which bracket it in time.
    """
    probe = speed.SpeedProbe()

    def setup_and_pass() -> tuple:
        _, raw, kernel_s = probe.measure(lambda: run_pass(workload.build(args.seed, scratch), gate))
        return raw, speed.rescale(raw, kernel_s)

    def traced() -> tuple:
        t0 = time.perf_counter_ns()
        problems = workload.build(args.seed, scratch)
        run_pass(problems, gate)
        return problems, t0, time.perf_counter_ns()

    started = time.perf_counter()
    untraced = [setup_and_pass()]
    tracer = tracer_cls()
    tracer.install()
    try:
        (problems, t0, t1), raw, kernel_s = probe.measure(traced)
    finally:
        tracer.uninstall()
    traced_rescaled = speed.rescale(raw, kernel_s)
    if time.perf_counter() - started + untraced[0][0] <= args.seconds:
        untraced.append(setup_and_pass())
    detail["problems"] = [p.key for p in problems]
    detail["trace_missing_targets"] = tracer.missing
    values, error = tracer.summary(t0, t1)
    if error is not None:
        print(f"FAILED trace accounting: {error}", file=sys.stderr)
    values["trace.wall_s"] = (t1 - t0) / 1e9
    values["trace.untraced_wall_s"] = statistics.mean(r for r, _ in untraced)
    values["trace.overhead"] = traced_rescaled / statistics.mean(r for _, r in untraced) - 1.0
    detail["layers"] = values
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_file)
    detail["spans_file"] = str(spans_file.relative_to(ROOT))
    return values, error is None


if __name__ == "__main__":
    sys.exit(main())
