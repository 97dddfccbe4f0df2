"""Run workloads under schemes and collect the paper's metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.core.machine import MachineConfig
from repro.experiments.config import build_context
from repro.workloads import WORKLOADS
from repro.workloads.crypto import run_cipher


@dataclass
class RunResult:
    """One (workload, size, scheme) execution with its counters."""

    workload: str
    size: int
    scheme: str
    label: str
    output: Any
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.counters["cycles"]


def run_workload(
    workload: str,
    size: int,
    scheme: str,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    fetch_threshold: Optional[int] = None,
) -> RunResult:
    """Execute one Table-2 workload on a fresh machine."""
    descriptor = WORKLOADS[workload]
    ctx = build_context(scheme, config=config, fetch_threshold=fetch_threshold)
    output = descriptor.run(ctx, size, seed)
    return RunResult(
        workload=workload,
        size=size,
        scheme=scheme,
        label=descriptor.label(size),
        output=output,
        counters=ctx.machine.snapshot(),
    )


def run_crypto(
    cipher: str,
    scheme: str,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
) -> RunResult:
    """Execute one Fig. 9 cipher on a fresh machine."""
    ctx = build_context(scheme, config=config)
    output = run_cipher(cipher, ctx, seed)
    return RunResult(
        workload=f"crypto:{cipher}",
        size=0,
        scheme=scheme,
        label=cipher,
        output=output,
        counters=ctx.machine.snapshot(),
    )


def overhead(mitigated: RunResult, baseline: RunResult) -> float:
    """Execution-time overhead, the y-axis of Figs. 2, 7, 9."""
    return mitigated.cycles / baseline.cycles


def sweep(
    workload: str,
    sizes: Sequence[int],
    schemes: Sequence[str],
    seed: int = 1,
) -> Dict[int, Dict[str, RunResult]]:
    """Run a workload across sizes x schemes (fresh machine each run).

    Delegates to the parallel engine, which honours the process-wide
    ``configure(jobs=..., cache=...)`` defaults (serial and uncached
    out of the box) — so figure code and tests keep the old call shape
    while the CLI can fan the same sweeps across workers.
    """
    from repro.experiments.parallel import parallel_sweep

    return parallel_sweep(workload, sizes, schemes, seed=seed)
