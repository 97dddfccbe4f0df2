"""DS-sweep / sanitizer throughput benchmarks (``BENCH_sweep.json``).

The bulk-access kernels (:meth:`repro.core.machine.Machine.load_words`
and friends) and machine state forking
(:meth:`repro.core.machine.Machine.fork`) exist to make sweep-heavy
simulation fast; this module is the measurement that keeps the speedup
visible.  Three metrics:

``ds_sweep_lines_per_sec``
    Swept lines per second of software-CT ``load``/``store`` ops over a
    16 KiB DS — every op sweeps all 256 lines, so this is the
    throughput of :meth:`~repro.core.machine.Machine.sweep_load_lines`
    and :meth:`~repro.core.machine.Machine.sweep_store_lines`.  The
    DS stays resident in the L1d and nothing else runs between the 300
    alternating sweeps, so every set of every sweep after the first
    all-hit one is replayed (``SetAssociativeCache._replay_sets``): the
    metric measures the replay, not the per-line kernel loop.
``ds_gather_lines_per_sec``
    Same for 64-address ``gather`` batches (one sweep amortized over
    the batch).
``sanitizer_wall_seconds``
    Wall clock of one relational :func:`repro.analysis.sanitizer.
    sanitize` pass over four secrets with a deliberately expensive
    warm-up (eight full passes over a 64 KiB DS).  With fork-based warm
    starts the warm-up runs once on a template and each secret runs on
    a :meth:`~repro.core.machine.Machine.fork`; the seed baseline paid
    it per secret.

Methodology (mirrors ``BENCH_hotpath.json``): throughputs are
best-of-``REPEATS`` and wall times min-of-``REPEATS`` — on a loaded CI
box individual timings swing by 2x, and the best run is the one least
polluted by scheduling noise.  The seed baseline was measured at the
pre-bulk-kernel commit with these exact workload shapes and is kept as
data, not re-measured: the point is to track the ratio.

Run via the benchmark suite (``pytest benchmarks/bench_simulator_
hotpath.py``), standalone (``PYTHONPATH=src python -m repro.bench``),
or through the CLI (``python -m repro bench --json``).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict

from repro import build_machine
from repro.analysis.sanitizer import sanitize
from repro.ct.linearize import SoftwareCTContext

#: Pre-bulk-kernel throughput/wall-clock on the reference runner
#: (measured at the PR-5 tree with this file's exact workloads).
SEED_BASELINE = {
    "ds_sweep_lines_per_sec": 292073,
    "ds_gather_lines_per_sec": 482697,
    "sanitizer_wall_seconds": 0.551,
}

DS_BYTES = 16 * 1024  # 256 lines
N_SWEEP_OPS = 300  # alternating load/store, each sweeps the whole DS
N_GATHER_OPS = 40
GATHER_WIDTH = 64

SAN_DS_BYTES = 64 * 1024  # 1024 lines
SAN_WARM_PASSES = 8
SAN_MEASURED_OPS = 24
SAN_SECRETS = (1, 2, 3, 4)

REPEATS = 3

BENCH_SWEEP_PATH = Path(__file__).resolve().parents[2] / "BENCH_sweep.json"


def bench_ds_sweep() -> float:
    """Swept lines/sec of alternating CT loads/stores over one DS."""
    machine = build_machine("L1D")
    ctx = SoftwareCTContext(machine, simd=True)
    base = machine.allocator.alloc(DS_BYTES, "buf")
    ds = ctx.register_ds(base, DS_BYTES, "buf")
    rng = random.Random(3)
    addrs = [
        base + rng.randrange(0, DS_BYTES // 4) * 4 for _ in range(N_SWEEP_OPS)
    ]
    lines = len(ds.lines)
    start = time.perf_counter()
    for i, addr in enumerate(addrs):
        if i % 2:
            ctx.store(ds, addr, i)
        else:
            ctx.load(ds, addr)
    return N_SWEEP_OPS * lines / (time.perf_counter() - start)


def bench_ds_gather() -> float:
    """Swept lines/sec of 64-wide CT gather batches over one DS."""
    machine = build_machine("L1D")
    ctx = SoftwareCTContext(machine, simd=True)
    base = machine.allocator.alloc(DS_BYTES, "buf")
    ds = ctx.register_ds(base, DS_BYTES, "buf")
    rng = random.Random(4)
    batches = [
        [base + rng.randrange(0, DS_BYTES // 4) * 4 for _ in range(GATHER_WIDTH)]
        for _ in range(N_GATHER_OPS)
    ]
    lines = len(ds.lines)
    start = time.perf_counter()
    for batch in batches:
        ctx.gather(ds, batch)
    return N_GATHER_OPS * lines / (time.perf_counter() - start)


def _san_warmup(ctx) -> None:
    """Secret-independent prefix: allocate, register, warm the DS."""
    machine = ctx.machine
    base = machine.allocator.alloc(SAN_DS_BYTES, "san")
    ds = ctx.register_ds(base, SAN_DS_BYTES, "san")
    for _ in range(SAN_WARM_PASSES):
        for line in ds.lines:
            machine.load_word(line)


def _san_run(ctx, secret) -> None:
    """Secret-dependent suffix: the accesses the sanitizer diffs."""
    ds = ctx.ds("san")
    base = ds.lines[0]
    ctx.machine.reset_stats()
    rng = random.Random(1000 + secret)
    for _ in range(SAN_MEASURED_OPS):
        ctx.load(ds, base + rng.randrange(0, SAN_DS_BYTES // 4) * 4)


def bench_sanitizer(fork: bool = True) -> float:
    """Wall seconds of one relational check over :data:`SAN_SECRETS`.

    With ``fork=True`` the warm-up runs once and each secret runs on a
    fork of the warmed template; ``fork=False`` measures the seed
    baseline's rebuild-and-replay shape (factory + warm-up per secret).
    """
    from repro.experiments.config import build_context

    start = time.perf_counter()
    report = sanitize(
        lambda: build_context("bia-l1d"),
        _san_run,
        secrets=SAN_SECRETS,
        warmup=_san_warmup,
        fork=fork,
    )
    elapsed = time.perf_counter() - start
    assert report.clean, report.describe()
    return elapsed


def _best_of(fn, repeats: int) -> float:
    return max(fn() for _ in range(repeats))


def _min_of(fn, repeats: int) -> float:
    return min(fn() for _ in range(repeats))


def measure(repeats: int = REPEATS) -> Dict:
    """Run all metrics and return the ``BENCH_sweep.json`` report."""
    sweep = _best_of(bench_ds_sweep, repeats)
    gather = _best_of(bench_ds_gather, repeats)
    san_fork = _min_of(lambda: bench_sanitizer(fork=True), repeats)
    san_rebuild = _min_of(lambda: bench_sanitizer(fork=False), repeats)
    return {
        "machine": "Table-1 (L1d BIA)",
        "n_sweep_ops": N_SWEEP_OPS,
        "n_gather_ops": N_GATHER_OPS,
        "gather_width": GATHER_WIDTH,
        "ds_bytes": DS_BYTES,
        "sanitizer_ds_bytes": SAN_DS_BYTES,
        "sanitizer_warm_passes": SAN_WARM_PASSES,
        "sanitizer_secrets": len(SAN_SECRETS),
        "repeats": repeats,
        "ds_sweep_lines_per_sec": round(sweep),
        "ds_gather_lines_per_sec": round(gather),
        "sanitizer_wall_seconds": round(san_fork, 3),
        "sanitizer_rebuild_wall_seconds": round(san_rebuild, 3),
        "seed_baseline": dict(SEED_BASELINE),
        "speedup_ds_sweep": round(
            sweep / SEED_BASELINE["ds_sweep_lines_per_sec"], 2
        ),
        "speedup_ds_gather": round(
            gather / SEED_BASELINE["ds_gather_lines_per_sec"], 2
        ),
        "speedup_sanitizer": round(
            SEED_BASELINE["sanitizer_wall_seconds"] / san_fork, 2
        ),
    }


def write_report(report: Dict, path: Path = BENCH_SWEEP_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def main() -> int:
    report = measure()
    write_report(report)
    print(json.dumps(report, indent=2))
    print(f"wrote {BENCH_SWEEP_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
