"""Machine facts and input properties that later performance claims cite."""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from quasieq import setmap

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_bytes() -> dict:
    """Sizes of the unified caches cpu0 sees, by level ({} where sysfs is absent)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1]) * 1024
    return out


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": sys.platform,
    }


def problem_properties(info: dict) -> dict:
    """Grid size, fixed points, image sizes and table bytes of one problem.

    ``inner_evaluations`` is the number of (x, y) pairs a full scan examines:
    the image sizes summed over the fixed points.

    Computed with the public ``fixed_point_set`` and ``image_index_ranges``,
    never inside a timed run.
    """
    inst, cfg = info["instance"], info["config"]
    grid = cfg.grid
    n = grid.size()
    fixed = setmap.fixed_point_set(inst.K, grid, cfg.delta_membership)
    sizes = []
    for x in fixed:
        ranges = setmap.image_index_ranges(inst.K, x, grid)
        sizes.append(math.prod(max(0, e - s) for s, e in ranges))
    table = 8 * n
    # the range-minimum table of ROADMAP item 2: one level per power of two per axis
    levels = math.prod(max(1, math.ceil(math.log2(m))) for m in grid.points_per_axis)
    return {
        "dims": grid.dim,
        "grid": list(grid.points_per_axis),
        "grid_points": n,
        "fixed_points": len(fixed),
        "fixed_point_share": len(fixed) / n,
        "mean_image_points": (sum(sizes) / len(sizes)) if sizes else 0.0,
        "inner_evaluations": sum(sizes),
        "payload": info["payload"],
        "objective_table_bytes": table,
        "rmq_table_bytes": table * levels,
    }


def summarize(props: list, caches: dict) -> dict:
    """Workload-level view of per-problem properties: means and the cache comparison."""

    def mean(key: str) -> float:
        return sum(p[key] for p in props) / len(props)

    table = max(p["objective_table_bytes"] for p in props)
    rmq = max(p["rmq_table_bytes"] for p in props)
    out = {
        "dims": sorted({p["dims"] for p in props}),
        "grid_points_mean": mean("grid_points"),
        "fixed_point_share_mean": mean("fixed_point_share"),
        "mean_image_points": mean("mean_image_points"),
        "payload": sorted({p["payload"] for p in props}),
        "objective_table_bytes_max": table,
        "rmq_table_bytes_max": rmq,
    }
    for level, size in caches.items():
        out[f"objective_table_vs_{level}"] = table / size
        out[f"rmq_table_vs_{level}"] = rmq / size
    return out
