"""Verification-engine throughput: the full ctcheck pipeline.

Drives :func:`repro.analysis.engine.run_check_specs` over a fixed bag
of check targets — every built-in IR program at several sizes (lint +
relational symbolic checking with a speculative window + automatic
repair) plus ten workload DS audits — and measures three engine
configurations against the serial pre-engine pipeline:

* **cold serial** — ``jobs=1``, no cache: the algorithmic wins alone
  (occupied-set digests, the iterative explorer, solver verdict
  memos).
* **cold parallel** — ``jobs=4``, no cache: adds process fan-out.
* **warm cache** — every verdict served from a pre-populated
  :class:`~repro.experiments.parallel.ResultCache` (the cache the
  experiment engine shares); asserts zero targets were re-checked.

Methodology matches ``bench_simulator_hotpath.py``: wall times are
min-of-``REPEATS`` (the run least polluted by scheduling noise),
results go to ``BENCH_analysis.json`` at the repo root alongside the
frozen baseline, and ``@pytest.mark.perf`` floors keep the ratios
from silently regressing.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_analysis_pipeline.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.engine import CheckSpec, run_check_specs
from repro.experiments.parallel import ResultCache
from repro.lang.programs import (
    binary_search_program,
    conditional_sum_program,
    des_program,
    histogram_program,
    lookup_program,
    masked_lookup_program,
    speculative_lookup_program,
    swap_program,
)

#: Serial pre-engine pipeline on the reference runner (measured at the
#: pre-engine commit with this file's exact target bag: one
#: ``run_ctcheck(symbolic=True, spec_window=2, repair=True)`` pass
#: over the program registry below plus the ten workload audits).
#: Kept as data, not re-measured: the point is to track the ratio.
PR7_BASELINE = {"wall_seconds": 0.6358, "findings": 262}

REPEATS = 3
JOBS = 4

_OUT = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"


def _program_registry() -> Dict[str, object]:
    """Every built-in program at several sizes (frozen bag)."""
    registry: Dict[str, object] = {}
    for n in (64, 128, 256, 512):
        registry[f"lookup@{n}"] = lookup_program(n)[0]
        registry[f"masked_lookup@{n}"] = masked_lookup_program(n)[0]
        registry[f"speculative_lookup@{n}"] = (
            speculative_lookup_program(n)[0]
        )
    for n in (64, 128, 256):
        registry[f"swap@{n}"] = swap_program(n)[0]
        registry[f"des@{n}"] = des_program(n)[0]
    for n in (256, 512, 1024, 2048):
        registry[f"binary_search@{n}"] = binary_search_program(n)[0]
    for n in (8, 16, 32, 64):
        registry[f"conditional_sum@{n}"] = conditional_sum_program(n)[0]
    for rows, cols in ((16, 8), (32, 16), (64, 32)):
        registry[f"histogram@{rows}x{cols}"] = (
            histogram_program(rows, cols)[0]
        )
    return registry


#: Workload DS audits riding along (name, size) — two sizes each.
AUDITS = (
    ("binary_search", 256), ("binary_search", 512),
    ("dijkstra", 16), ("dijkstra", 24),
    ("heappop", 128), ("heappop", 256),
    ("histogram", 200), ("histogram", 400),
    ("permutation", 128), ("permutation", 256),
)


def build_specs() -> List[CheckSpec]:
    specs = [
        CheckSpec(
            kind="program",
            name=name,
            program=program,
            symbolic=True,
            spec_window=2,
            repair=True,
        )
        for name, program in sorted(_program_registry().items())
    ]
    specs.extend(
        CheckSpec(kind="workload", name=name, size=size)
        for name, size in AUDITS
    )
    return specs


def _one_run(jobs: int = 1, cache: ResultCache = None):
    specs = build_specs()
    start = time.perf_counter()
    outputs = run_check_specs(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - start
    findings = sum(len(o.findings) for o in outputs)
    return wall, findings


def measure() -> dict:
    serial_walls, parallel_walls, warm_walls = [], [], []
    findings = None
    for _ in range(REPEATS):
        wall, n = _one_run(jobs=1)
        serial_walls.append(wall)
        findings = n
    for _ in range(REPEATS):
        wall, n = _one_run(jobs=JOBS)
        parallel_walls.append(wall)
        assert n == findings  # parallel must find exactly the same
    cache = ResultCache()
    _one_run(cache=cache)  # populate
    for _ in range(REPEATS):
        before = cache.stats.misses
        wall, n = _one_run(cache=cache)
        warm_walls.append(wall)
        assert cache.stats.misses == before  # zero re-checked
        assert n == findings  # served verdicts are bit-identical
    base = PR7_BASELINE["wall_seconds"]
    serial, parallel, warm = (
        min(serial_walls), min(parallel_walls), min(warm_walls)
    )
    return {
        "targets": len(build_specs()),
        "findings": findings,
        "repeats": REPEATS,
        "jobs": JOBS,
        "pr7_baseline": PR7_BASELINE,
        "cold_serial_wall_seconds": round(serial, 4),
        "cold_parallel_wall_seconds": round(parallel, 4),
        "warm_cache_wall_seconds": round(warm, 4),
        "speedup_cold_serial": round(base / serial, 2),
        "speedup_cold_parallel": round(base / parallel, 2),
        "speedup_warm_cache": round(base / warm, 2),
    }


def write_report(report: dict) -> None:
    _OUT.write_text(json.dumps(report, indent=2) + "\n")


@pytest.mark.perf
def test_analysis_pipeline_throughput(once):
    report = once(measure)
    write_report(report)
    print("\n" + json.dumps(report, indent=2))
    # The engine must find exactly what the serial pre-engine
    # pipeline found — speed never buys away findings.
    assert report["findings"] == PR7_BASELINE["findings"]
    # Acceptance floors: >= 2x cold at --jobs 4 and >= 3x warm over
    # the serial pre-engine baseline.
    assert report["speedup_cold_parallel"] >= 2.0
    assert report["speedup_warm_cache"] >= 3.0


if __name__ == "__main__":
    report = measure()
    write_report(report)
    print(json.dumps(report, indent=2))
    print(f"wrote {_OUT}")
