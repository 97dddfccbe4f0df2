"""Differential proof: Dijkstra's batched public loops == the scalar loops.

``dijkstra.run`` issues its public min-scan as one ``execute`` + one
``load_words`` and its relaxation as one ``rmw_words(values=...)``.
The oracle below is the scalar formulation those batches replace — per
vertex ``ctx.execute`` / ``ctx.plain_load`` / ``cfl.ct_select`` /
``ctx.plain_store`` — with everything else (initialisation, warm-up
reset, the secret-dependent accesses) unchanged.  Both run on twin
machines over a matrix of cache, replacement, prefetcher, DRAM, slice,
inclusivity, silent-store and PLcache configurations under every
mitigation scheme, and every observable is compared: the output, the
counter snapshot (``cycles`` exact), each level's resident lines and
replacement order, the LLC slice trace and the DRAM rows touched.
"""

from dataclasses import replace
from typing import List

import pytest

from repro import params
from repro.core.costs import CostModel
from repro.core.machine import Machine, MachineConfig
from repro.ct import cfl
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext, MitigationContext
from repro.ct.linearize import SoftwareCTContext
from repro.workloads import dijkstra
from repro.workloads.dijkstra import INF, RELAX_INSTS, SCAN_INSTS


def scalar_dijkstra(ctx: MitigationContext, size: int, seed: int) -> List[int]:
    """The per-vertex scalar formulation of ``dijkstra.run``."""
    machine = ctx.machine
    weights = dijkstra.generate_weights(size, seed)
    adj_base = machine.allocator.alloc_words(size * size, "adj")
    dist_base = machine.allocator.alloc_words(size, "dist")
    visited_base = machine.allocator.alloc_words(size, "visited")
    ctx.plain_store_words(
        [adj_base + 4 * k for k in range(size * size)],
        [w for row in weights for w in row],
    )
    ds_adj = ctx.register_ds(adj_base, size * size * params.WORD_SIZE, "adj")
    ds_dist = ctx.register_ds(dist_base, size * params.WORD_SIZE, "dist")
    ds_visited = ctx.register_ds(visited_base, size * params.WORD_SIZE, "visited")

    init_addrs: List[int] = []
    init_vals: List[int] = []
    for v in range(size):
        init_addrs += (dist_base + 4 * v, visited_base + 4 * v)
        init_vals += (INF if v else 0, 0)
    ctx.plain_store_words(init_addrs, init_vals)

    for iteration in range(size):
        if iteration == 1:
            machine.reset_stats()
        best_u, best_d = 0, INF + 1
        for v in range(size):
            ctx.execute(SCAN_INSTS)
            d = ctx.plain_load(dist_base + 4 * v)
            seen = ctx.plain_load(visited_base + 4 * v)
            candidate = not seen and d < best_d
            best_u = cfl.ct_select(machine, candidate, v, best_u)
            best_d = cfl.ct_select(machine, candidate, d, best_d)
        u = best_u
        ctx.store(ds_visited, visited_base + 4 * u, 1)
        du = ctx.load(ds_dist, dist_base + 4 * u)
        row_base = adj_base + 4 * size * u
        row = ctx.gather(ds_adj, [row_base + 4 * j for j in range(size)])
        for v in range(size):
            ctx.execute(RELAX_INSTS)
            old = ctx.plain_load(dist_base + 4 * v)
            alt = du + row[v] if row[v] else INF
            better = v != u and alt < old
            ctx.plain_store(
                dist_base + 4 * v, cfl.ct_select(machine, better, alt, old)
            )

    return [machine.memory.read_word(dist_base + 4 * v) for v in range(size)]


TINY = dict(
    l1d_size=512, l1d_assoc=2,
    l2_size=2048, l2_assoc=4,
    llc_size=8192, llc_assoc=8,
)

#: name -> machine configuration (BIA in the L1d unless a scheme moves it)
CONFIGS = {
    "table1": MachineConfig(),
    "512B-lru": MachineConfig(**TINY),
    "1K-fifo": MachineConfig(l1d_size=1024, l1d_assoc=2, replacement="fifo"),
    "2K-random": MachineConfig(
        l1d_size=2048, l1d_assoc=4, replacement="random", replacement_seed=3
    ),
    "plru": MachineConfig(l1d_size=2048, l1d_assoc=4, replacement="plru"),
    "prefetcher": MachineConfig(l1d_size=1024, l1d_assoc=2, prefetcher=True),
    "open-row": MachineConfig(dram_policy="open", **TINY),
    "4-slices": MachineConfig(llc_slices=4, l1d_size=1024, l1d_assoc=2),
    "inclusive": MachineConfig(inclusive_llc=True, **TINY),
    "silent": MachineConfig(silent_stores=True),
    "silent-tiny": MachineConfig(silent_stores=True, **TINY),
    "plcache": MachineConfig(plcache=True, l1d_size=2048, l1d_assoc=4),
}

#: name -> (context class, constructor kwargs, BIA level)
SCHEMES = {
    "insecure": (InsecureContext, {}, "L1D"),
    "ct": (SoftwareCTContext, {"simd": True}, "L1D"),
    "ct-scalar": (SoftwareCTContext, {"simd": False}, "L1D"),
    "bia-l1d": (BIAContext, {}, "L1D"),
    "bia-l2": (BIAContext, {}, "L2"),
}


def _run(program, config, scheme, size, seed):
    cls, kwargs, bia_level = SCHEMES[scheme]
    machine = Machine(replace(config, bia_level=bia_level))
    ctx = cls(machine, **kwargs)
    return program(ctx, size, seed), machine


def _observables(machine):
    return {
        "occupied": [lvl.occupied_sets() for lvl in machine.hierarchy.levels],
        "slice_trace": list(machine.slice_trace),
        "rows_touched": set(machine.dram.stats.rows_touched),
    }


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_batched_matches_scalar(config_name, scheme):
    config = CONFIGS[config_name]
    for size, seed in ((16, 3), (24, 5)):
        got, mg = _run(dijkstra.run, config, scheme, size, seed)
        want, mw = _run(scalar_dijkstra, config, scheme, size, seed)
        where = (config_name, scheme, size)
        assert got == want == dijkstra.reference(size, seed), where
        assert mg.snapshot() == mw.snapshot(), where
        assert mg.stats.cycles == mw.stats.cycles, where
        assert _observables(mg) == _observables(mw), where


@pytest.mark.parametrize("scheme", ["insecure", "ct"])
def test_fractional_cpi_changes_only_cycle_rounding(scheme):
    """Grouped ALU charges reorder float additions under cpi=0.7."""
    config = MachineConfig(costs=CostModel(cpi=0.7))
    got, mg = _run(dijkstra.run, config, scheme, 32, 1)
    want, mw = _run(scalar_dijkstra, config, scheme, 32, 1)
    assert got == want
    snap_g, snap_w = mg.snapshot(), mw.snapshot()
    cycles_g, cycles_w = snap_g.pop("cycles"), snap_w.pop("cycles")
    assert snap_g == snap_w
    assert cycles_g == pytest.approx(cycles_w, rel=1e-9, abs=0)
    assert _observables(mg) == _observables(mw)
