"""Record the reference report digests and the input properties of every pool problem.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Runs every problem that any workload seed can draw once, untimed, and writes

- ``perfbench/reference.json``: the sha256 of each problem's report bytes.
  Every benchmark run compares against these, so they must come from the
  commit whose answers are the reference, never from a change under test.
- ``perfbench/properties.json``: per problem, the grid size, fixed-point
  share, mean image size, payload kind and table bytes, plus the machine
  facts of the host that computed them.

It takes about eight minutes on one core of a 2-CPU Xeon.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import facts  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
PROPERTIES = HERE / "properties.json"


def main() -> int:
    reference: dict = {"digests": {}}
    properties: dict = {"workloads": {}}
    scratch = HERE / "out" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    machine = facts.machine_facts()
    for name in sorted(workloads.WORKLOADS):
        problems = {}
        for source, _count in workloads.WORKLOADS[name].mix:
            for seed in source.pool.seeds:
                problems.update(_record(source.make(seed, scratch), source.pool, reference, name))
        properties["workloads"][name] = {
            "pool": facts.summarize(list(problems.values()), machine["cache_bytes"]),
            "problems": problems,
        }
    properties["machine"] = machine
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    PROPERTIES.write_text(json.dumps(properties, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _record(problem, pool, reference: dict, workload: str) -> dict:
    """Run one problem, store its digest, and return its properties by key."""
    t0 = time.perf_counter()
    data = problem.run()
    elapsed = time.perf_counter() - t0
    reference["digests"][problem.key] = hashlib.sha256(data).hexdigest()
    props = facts.problem_properties(problem.info)
    prop, lo, hi = pool.band
    if not lo <= props[prop] <= hi:
        raise SystemExit(f"{problem.key}: {prop} = {props[prop]}, outside the pool band [{lo}, {hi}]")
    props["reference_run_s"] = round(elapsed, 4)
    print(f"{workload} {problem.key} {elapsed:.3f}s", flush=True)
    return {problem.key: props}


if __name__ == "__main__":
    sys.exit(main())
