"""Host-time attribution by layer, measured from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` (listed in :data:`LAYERS`) with a timing wrapper.  Spans are
aggregated in memory per ``(layer, parent layer, machine entry point)``
as call count, total time and self time, where self time is a span's
duration minus the time covered by its child spans.  A call into a layer from inside the
same layer is counted but not timed separately, so recursion and
intra-layer calls stay cheap and never double-count.

Wrappers must be installed before any machine is built: constructors
cache bound methods (a cache set binds its replacement policy's touch
method, for example), and only objects built after installation pick
the wrappers up.

A fused kernel that drives a lower layer's internals instead of its
public methods keeps that time in its own self time; :data:`BYPASSES`
lists the known cases so the report can say so.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from typing import Dict, List, Tuple

ROOT = "other"

#: layer -> [(module, [attribute path, ...]), ...].  An attribute path
#: is ``Class.method`` or a module-level function name.
LAYERS: Dict[str, List[Tuple[str, List[str]]]] = {
    "workloads": [
        ("repro.workloads.dijkstra", ["run"]),
        ("repro.workloads.histogram", ["run"]),
        ("repro.workloads.permutation", ["run"]),
        ("repro.workloads.binary_search", ["run"]),
        ("repro.workloads.heappop", ["run"]),
        ("repro.workloads.crypto", ["run_cipher"]),
    ],
    "ct.context": [
        ("repro.ct.context", [
            "MitigationContext.register_ds", "MitigationContext.ds",
            "MitigationContext.fork", "MitigationContext.rmw",
            "MitigationContext.plain_load", "MitigationContext.plain_store",
            "MitigationContext.plain_store_words",
            "MitigationContext.execute",
            "InsecureContext.load", "InsecureContext.store",
            "InsecureContext.gather",
        ]),
    ],
    "ct.linearize": [
        ("repro.ct.linearize", [
            "SoftwareCTContext.load", "SoftwareCTContext.store",
            "SoftwareCTContext.rmw", "SoftwareCTContext.gather",
        ]),
    ],
    "ct.bia_ops": [
        ("repro.ct.bia_ops", [
            "BIAContext.register_ds", "BIAContext.load", "BIAContext.store",
            "BIAContext.rmw", "BIAContext.gather",
        ]),
    ],
    "ct.ds": [
        ("repro.ct.ds", [
            "DataflowLinearizationSet.__init__",
            "DataflowLinearizationSet.for_array",
            "DataflowLinearizationSet.view",
            "DataflowLinearizationSet.require_member",
            "DataflowLinearizationSet.set_indices_for",
            "DataflowLinearizationSet.line_index",
            "DataflowLinearizationSet.generate_addrs",
            "DataflowLinearizationSet.lines_in_page",
            "DataflowLinearizationSet.bitmask",
            "DataflowLinearizationSet.page_of",
            "DSGroupView.__init__", "DSGroupView.bitmask",
            "DSGroupView.group_of", "DSGroupView.same_group_address",
            "DSGroupView.generate_addrs", "DSGroupView.lines_in_group",
        ]),
    ],
    "core.machine.scalar": [
        ("repro.core.machine", [
            "Machine.execute", "Machine.load_word", "Machine.store_word",
            "Machine.charge_memory", "Machine.load_word_uncached",
            "Machine.store_word_uncached",
        ]),
    ],
    "core.machine.bulk": [
        ("repro.core.machine", [
            "Machine.load_words", "Machine.store_words", "Machine.rmw_words",
            "Machine.sweep_load_lines", "Machine.sweep_store_lines",
        ]),
    ],
    "core.machine.probe": [
        ("repro.core.machine", ["Machine.ctload", "Machine.ctstore"]),
    ],
    "core.machine.fork": [
        ("repro.core.machine", [
            "Machine.fork", "Machine.save_state", "Machine.restore_state",
        ]),
    ],
    "core.machine.build": [
        ("repro.core.machine", [
            "Machine.__init__", "Machine.reset_stats", "Machine.snapshot",
        ]),
    ],
    "core.instructions": [
        ("repro.core.instructions", ["CTOps.ctload", "CTOps.ctstore"]),
    ],
    "core.bia": [
        ("repro.core.bia", [
            "BIA.attach", "BIA.lookup", "BIA.access", "BIA.on_hit",
            "BIA.on_fill", "BIA.on_evict", "BIA.on_invalidate",
            "BIA.on_dirty", "BIA.on_clean", "BIA.capture_state",
            "BIA.restore_state",
        ]),
    ],
    "cache.hierarchy": [
        ("repro.cache.hierarchy", [
            "CacheHierarchy.read_line", "CacheHierarchy.read_miss_fill",
            "CacheHierarchy.read_lines", "CacheHierarchy.write_lines",
            "CacheHierarchy.write_line", "CacheHierarchy.read_line_uncached",
            "CacheHierarchy.write_line_uncached", "CacheHierarchy.flush_line",
            "CacheHierarchy.evict_line_from", "CacheHierarchy.reset_stats",
        ]),
    ],
    "cache.set_assoc.scalar": [
        ("repro.cache.set_assoc", [
            "SetAssociativeCache.access", "SetAssociativeCache.fill",
            "SetAssociativeCache.lookup", "SetAssociativeCache.is_dirty",
            "SetAssociativeCache.set_dirty", "SetAssociativeCache.clean",
            "SetAssociativeCache.invalidate",
            "SetAssociativeCache.capture_state",
            "SetAssociativeCache.restore_state",
        ]),
    ],
    "cache.set_assoc.bulk": [
        ("repro.cache.set_assoc", [
            "SetAssociativeCache.access_lines",
            "SetAssociativeCache.rmw_lines",
        ]),
    ],
    "cache.replacement": [
        ("repro.cache.replacement", [
            "make_policy",
            "ReplacementPolicy.on_fill", "ReplacementPolicy.on_access",
            "ReplacementPolicy.on_invalidate", "ReplacementPolicy.victim",
            "ReplacementPolicy.victim_among", "ReplacementPolicy.clone",
            "LRUPolicy._rank_touch", "LRUPolicy._rank_victim",
            "FIFOPolicy._rank_touch", "FIFOPolicy._rank_victim",
            "RandomPolicy._rank_touch", "RandomPolicy._rank_victim",
            "TreePLRUPolicy._rank_touch", "TreePLRUPolicy._rank_victim",
        ]),
    ],
    "memory.backing": [
        ("repro.memory.backing", [
            "MainMemory.read", "MainMemory.write", "MainMemory.read_word",
            "MainMemory.write_word", "MainMemory.read_line",
            "MainMemory.write_line", "MainMemory.share_pages",
            "MainMemory.adopt_pages", "Allocator.alloc",
            "Allocator.alloc_words",
        ]),
    ],
    "memory.dram": [
        ("repro.memory.dram", [
            "DRAM.read_line", "DRAM.write_line", "DRAM.close_rows",
            "DRAM.capture_state", "DRAM.restore_state",
        ]),
    ],
    "experiments.engine": [
        ("repro.experiments.parallel", [
            "run_many", "parallel_sweep", "RunSpec.key",
            "MachineTemplatePool.context_for",
        ]),
    ],
    "experiments.runner": [
        ("repro.experiments.parallel", ["run_spec", "RunSpec.run"]),
        ("repro.experiments.runner", ["run_workload", "run_crypto"]),
        ("repro.experiments.config", ["build_context"]),
    ],
    "experiments.cache": [
        ("repro.experiments.parallel", ["ResultCache.get", "ResultCache.put"]),
    ],
    "experiments.render": [
        ("repro.experiments.figures", [
            "figure2", "figure7", "figure8", "figure9", "figure10",
            "headline_reduction", "render_figure2", "render_figure7",
            "render_figure8", "render_figure9", "render_figure10",
        ]),
        ("repro.experiments.tables", [
            "table1_rows", "render_table1", "motivation_profile",
            "render_motivation_profile",
        ]),
        ("repro.experiments.report", ["format_table", "format_bars"]),
    ],
    "lang.executor": [
        ("repro.lang.executor", [
            "run_program", "Executor.run", "WarmStart.__init__",
            "WarmStart.resume", "WarmStart.run",
        ]),
    ],
    "analysis.engine": [
        ("repro.analysis.engine", ["run_check_specs", "check_target"]),
    ],
    "analysis.facts": [
        ("repro.analysis.facts", ["program_facts"]),
        ("repro.analysis.intervals", ["analyze_intervals", "prove_ds_covers"]),
    ],
    "analysis.lint": [
        ("repro.analysis.ctlint", ["lint"]),
        ("repro.analysis.api", ["check_program"]),
    ],
    "symrel.explore": [
        ("repro.analysis.symrel.check", [
            "symrel_findings", "check_program_relational",
        ]),
        ("repro.analysis.symrel.explore", ["RelationalExplorer.run"]),
    ],
    "symrel.solve": [
        ("repro.analysis.symrel.solve", [
            "Solver.check_pair", "Solver.satisfiable",
        ]),
    ],
    "symrel.replay": [
        ("repro.analysis.symrel.replay", ["replay_counterexample"]),
    ],
    "analysis.repair": [
        ("repro.analysis.repair.driver", [
            "repair_program", "measure_overhead", "exercise_inputs",
        ]),
        ("repro.analysis.repair.localize", ["localize"]),
    ],
    "analysis.sanitizer": [
        ("repro.analysis.sanitizer", [
            "sanitize", "sanitize_workload", "sanitize_program",
        ]),
    ],
    "analysis.audit": [
        ("repro.analysis.api", [
            "audit_workload_ds", "DSAuditContext.register_ds",
            "DSAuditContext.load", "DSAuditContext.store",
            "DSAuditContext.gather",
        ]),
    ],
}

#: Known fused paths whose time stays with the caller's layer.
BYPASSES = (
    "core.machine.bulk: rmw_words drives the start-level cache's "
    "rmw_lines and the hierarchy's read_miss_fill itself, so the "
    "hierarchy's own start-level probing is charged to core.machine.bulk",
    "cache.set_assoc.bulk: access_lines/rmw_lines index sets and record "
    "hits inline; only replacement touches and fills leave the layer",
)

#: Machine entry points.  Every span records the innermost one it runs
#: under, so simulator time can be split by access path even where the
#: paths share lower layers (hierarchy, replacement, backing memory).
ENTRY_LAYERS = (
    "core.machine.scalar", "core.machine.bulk", "core.machine.probe",
    "core.machine.fork", "core.machine.build",
)

#: Layers of the analysis pipeline (the gate's own work).
ANALYSIS_LAYERS = (
    "analysis.engine", "analysis.facts", "analysis.lint", "symrel.explore",
    "symrel.solve", "symrel.replay", "analysis.repair",
    "analysis.sanitizer", "analysis.audit", "lang.executor",
)

#: Layer groups of the prediction table in README.md;
#: :data:`SIMULATOR_GROUPS` are the ones that model hardware.
GROUPS = {
    "scalar": ("cache.set_assoc.scalar", "cache.replacement",
               "cache.hierarchy", "memory.backing", "core.machine.scalar"),
    "bulk": ("core.machine.bulk", "cache.set_assoc.bulk", "ct.linearize",
             "ct.ds"),
    "probe": ("core.machine.probe", "core.instructions", "core.bia",
              "ct.bia_ops"),
    "engine": ("experiments.engine", "experiments.runner",
               "experiments.cache", "experiments.render"),
    "analysis": ANALYSIS_LAYERS + ("core.machine.fork",),
    "workload": ("workloads", "ct.context", "memory.dram",
                 "core.machine.build"),
}
SIMULATOR_GROUPS = ("scalar", "bulk", "probe")


def _resolve(module: str, path: str):
    """``(owner, name, raw attribute)`` for ``path`` or ``None``."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *classes, name = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
        # a wrapper would time only a generator's creation
        return None
    return owner, name, raw


class Patcher:
    """Replaces functions everywhere ``repro`` refers to them; undoable.

    A module-level function is replaced in its own module, in every
    ``repro`` module that imported it by name, and in the workload
    registry's descriptors; a method is replaced on its class.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self._registry_undo: List[Tuple[dict, str, object]] = []

    def replace(self, owner, name: str, original, replacement) -> None:
        if isinstance(owner, type):
            self._set(owner, name, replacement)
            return
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)
        registry = getattr(sys.modules.get("repro.workloads"), "WORKLOADS", {})
        for key, desc in list(registry.items()):
            if getattr(desc, "run", None) is original:
                self._registry_undo.append((registry, key, desc))
                registry[key] = dataclasses.replace(desc, run=replacement)

    def _set(self, owner, name: str, value) -> None:
        # the raw attribute, so a classmethod is restored as one
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        while self._registry_undo:
            registry, key, desc = self._registry_undo.pop()
            registry[key] = desc


class Tracer:
    """In-memory span aggregation over the layers of :data:`LAYERS`."""

    def __init__(self) -> None:
        self._stack: List[str] = [ROOT]
        self._child: List[float] = [0.0]
        self._entry: List[str] = [ROOT]
        #: layer -> (parent layer, machine entry) -> [calls, total_s, self_s]
        self.spans: Dict[str, Dict[Tuple[str, str], List[float]]] = {
            layer: {} for layer in LAYERS
        }
        #: layer -> calls made from inside the same layer (not timed)
        self.inner_calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.missing: List[str] = []
        self._patcher = Patcher()

    def install(self) -> None:
        for layer, entries in LAYERS.items():
            for module, paths in entries:
                for path in paths:
                    found = _resolve(module, path)
                    if found is None:
                        self.missing.append(f"{module}:{path}")
                        continue
                    owner, name, raw = found
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._patcher.replace(owner, name, raw, wrapped)

    def uninstall(self) -> None:
        self._patcher.undo()

    def _wrap(self, layer: str, fn):
        stack, child, entry = self._stack, self._child, self._entry
        by_key = self.spans[layer]
        inner = self.inner_calls
        is_entry = layer in ENTRY_LAYERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent == layer:
                inner[layer] += 1
                return fn(*args, **kwargs)
            stack.append(layer)
            child.append(0.0)
            if is_entry:
                entry.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                covered = child.pop()
                child[-1] += took
                key = (parent, entry[-1])
                if is_entry:
                    entry.pop()
                rec = by_key.get(key)
                if rec is None:
                    rec = by_key[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - covered

        return traced

    def calls(self, layer: str) -> int:
        spans = self.spans[layer].values()
        return int(sum(rec[0] for rec in spans)) + self.inner_calls[layer]

    def self_s(self, layer: str) -> float:
        return sum(rec[2] for rec in self.spans[layer].values())

    def by_entry(self) -> Dict[str, float]:
        """Self time of every layer, summed per machine entry point.

        ``analysis`` is the analysis pipeline's time outside the
        machine; ``other`` every remaining layer outside the machine.
        """
        out = dict.fromkeys(ENTRY_LAYERS + ("analysis", ROOT), 0.0)
        for layer, by_key in self.spans.items():
            for (_parent, entry), rec in by_key.items():
                if entry == ROOT and layer in ANALYSIS_LAYERS:
                    entry = "analysis"
                out[entry] += rec[2]
        return out

    def edges(self) -> List[dict]:
        """Per ``(layer, parent, entry)`` aggregates, heaviest self first."""
        rows = [
            {"layer": layer, "parent": parent, "entry": entry,
             "calls": int(rec[0]), "total_s": rec[1], "self_s": rec[2]}
            for layer, by_key in self.spans.items()
            for (parent, entry), rec in by_key.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])
