"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed in ``__init__``
(part of set-up time) and then runs identical *passes*: one pass is a
full paper regeneration, one software-CT sweep over the large-DS
points, or one pass of the constant-time gate's target bag.  After
each timed unit of a pass, ``run_pass(cal)`` hands its duration to the
host-speed calibrator (``calibrate.py``); calibration time is left out
of every timing.  A pass returns a :class:`PassResult` whose outputs
are checked against golden models and known answers after the clock
stops.
"""

from __future__ import annotations

import hashlib
import inspect
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import Patcher

#: Simulated counters summed per pass: metric suffix -> snapshot key.
SIM_KEYS = {
    "insts": "insts",
    "cycles": "cycles",
    "l1d_refs": "l1d_refs",
    "l1d_hits": "l1d_hits",
    "l1d_misses": "l1d_misses",
    "l2_hits": "l2_hits",
    "l2_misses": "l2_misses",
    "llc_hits": "llc_hits",
    "llc_misses": "llc_misses",
    "dram_accesses": "dram_accesses",
    "bia_lookups": "bia_lookups",
    "ct_loads": "ct_loads",
    "ct_stores": "ct_stores",
}


@dataclass
class PassResult:
    """What one pass produced, and how long it took."""

    wall_s: float
    op_s: List[float]
    #: summed simulated counters (exact, must repeat across passes)
    sim: Dict[str, float]
    #: digest of every checked output (text, verdicts) of the pass
    digest: str
    errors: List[str] = field(default_factory=list)
    failed_ops: int = 0
    #: workload-specific exact counts (headline, solver counters, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: host-speed factor of this pass (calibrate.py), set by the runner
    factor: float = 1.0


def _add_sim(total: Counter, counters: Dict[str, float]) -> None:
    for name, key in SIM_KEYS.items():
        total[name] += counters.get(key, 0)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class _References:
    """Golden-model outputs, computed once per run and reused."""

    def __init__(self) -> None:
        self._memo: Dict[tuple, object] = {}

    def workload(self, name: str, size: int, seed: int):
        from repro.workloads import WORKLOADS

        key = (name, size, seed)
        if key not in self._memo:
            self._memo[key] = WORKLOADS[name].reference(size, seed)
        return self._memo[key]

    def cipher(self, name: str, seed: int) -> Optional[bytes]:
        """Reference ciphertext/keystream, for the ciphers that have one."""
        from repro.workloads import crypto, make_rng

        if name == "ARC4":
            return crypto.rc4_reference(seed)
        if name != "AES":
            return None
        key_rng = make_rng(16, seed)
        key = bytes(key_rng.randrange(256) for _ in range(16))
        rng = make_rng(17, seed)
        blocks = [
            bytes(rng.randrange(256) for _ in range(16))
            for _ in range(crypto.AES_BLOCKS)
        ]
        return crypto.aes_encrypt_reference(key, blocks)


class _OpRecorder:
    """Times each call of the wrapped functions as one operation.

    Calls made while an operation is already running belong to it and
    are not counted again.  Arguments are bound by name, and the host
    speed sampled, after the clock stops, so the recorder adds nothing
    to an operation's time.
    """

    def __init__(self, cal) -> None:
        self.records: List[tuple] = []
        self.failed = 0
        #: seconds spent calibrating after operations
        self.cal_spent = 0.0
        self._cal = cal
        self._depth = 0
        self._patcher = Patcher()

    def wrap_global(self, module, name: str, kind: str, after=None) -> None:
        """Record calls of ``module.name``; ``after(arguments, result)``
        runs once the clock has stopped and is recorded with the call."""
        original = getattr(module, name)
        self._patcher.replace(
            module, name, original, self._wrap(kind, original, after)
        )

    def uninstall(self) -> None:
        self._patcher.undo()

    def _wrap(self, kind: str, fn, after):
        signature = inspect.signature(fn)
        clock = time.perf_counter

        def op(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                took = clock() - start
                self._depth -= 1
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = dict(bound.arguments)
            extra = after(arguments, result) if after else None
            self.records.append((kind, arguments, result, took, extra))
            self.cal_spent += self._cal.sample(took)
            return result

        return op


class PaperRegen:
    """Every paper table and figure, rendered through the public generators.

    Each pass runs serially against a fresh, empty result cache in a
    temporary directory and a fresh warm-start pool, and restores the
    engine settings afterwards, so every pass is a cold regeneration.
    """

    name = "paper-regen"

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.experiments import figures, parallel, report, runner, tables
        from repro.workloads import histogram

        self.scratch = scratch
        self._figures, self._report = figures, report
        self._parallel, self._runner = parallel, runner
        self._histogram = histogram
        fig7 = ("dijkstra", "histogram", "permutation", "binary_search",
                "heappop")
        # (module, generator name, kwargs): looked up at call time so a
        # tracer installed later sees the calls
        self.targets = (
            [(tables, "render_table1", {}),
             (tables, "render_motivation_profile", {"seed": seed}),
             (figures, "render_figure2", {"seed": seed})]
            + [(figures, "render_figure7", {"workload": w, "seed": seed})
               for w in fig7]
            + [(figures, "render_figure8", {"seed": seed}),
               (figures, "render_figure9", {"seed": seed}),
               (figures, "render_figure10", {}),
               (self, "_render_headline", {"seed": seed})]
        )
        self.refs = _References()
        self.cache_stats = None

    def _render_headline(self, seed: int) -> str:
        data = self._figures.headline_reduction(seed=seed)
        self.headline_x = data["overall"]
        return self._report.format_table(
            ["workload", "CT / L1d-BIA overhead reduction (geomean)"],
            list(data.items()),
            title="Headline: overhead reduction vs state-of-the-art CT",
        )

    def run_pass(self, cal) -> PassResult:
        parallel = self._parallel
        cache_dir = tempfile.mkdtemp(prefix="results-", dir=self.scratch)
        cache = parallel.ResultCache(cache_dir)
        previous = parallel.current_settings()
        parallel.configure(jobs=1, cache=cache)
        fresh_pool = getattr(parallel, "use_warm_pool", None)
        if fresh_pool is not None:
            fresh_pool(True)
        recorder = _OpRecorder(cal)
        recorder.wrap_global(self._runner, "run_workload", "workload")
        recorder.wrap_global(self._runner, "run_crypto", "crypto")
        recorder.wrap_global(
            self._histogram, "run", "profile",
            after=lambda args, _result: args["ctx"].machine.snapshot(),
        )
        self.headline_x = None
        texts = []
        wall = 0.0
        clock = time.perf_counter
        try:
            for owner, name, kwargs in self.targets:
                start, calibrating = clock(), recorder.cal_spent
                texts.append(getattr(owner, name)(**kwargs))
                wall += clock() - start - (recorder.cal_spent - calibrating)
        finally:
            recorder.uninstall()
            parallel.configure(**previous._asdict())
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache_stats = cache.stats
        return self._check(recorder, texts, wall)

    def _check(self, recorder: _OpRecorder, texts, wall) -> PassResult:
        sim: Counter = Counter()
        errors: List[str] = []
        ciphers: Dict[tuple, Dict[str, object]] = {}
        for kind, args, result, _took, extra in recorder.records:
            if kind == "profile":
                counters = extra
                name, size, output = "histogram", args["size"], result
            else:
                counters, output = result.counters, result.output
                name, size = result.workload, result.size
            _add_sim(sim, counters)
            seed = args["seed"]
            if kind == "crypto":
                cipher = args["cipher"]
                ciphers.setdefault((cipher, seed), {})[args["scheme"]] = output
                continue
            if output != self.refs.workload(name, size, seed):
                errors.append(
                    f"{name}@{size} seed {seed} under {args.get('scheme')}: "
                    "output differs from the reference"
                )
        errors.extend(_check_ciphers(ciphers, self.refs))
        mismatched = len(errors)  # one error per operation with a wrong output
        if self.headline_x is None:
            errors.append("headline was not rendered")
        kept = [
            "\n".join(line for line in text.splitlines()
                      if "done in" not in line)
            for text in texts
        ]
        return PassResult(
            wall_s=wall,
            op_s=[rec[3] for rec in recorder.records],
            sim=dict(sim),
            digest=_digest(kept),
            errors=errors,
            failed_ops=recorder.failed + mismatched,
            counts={"headline_x": self.headline_x or 0.0},
        )

    def trace_counts(self) -> Dict[str, float]:
        stats = self.cache_stats
        lookups = stats.hits + stats.misses if stats else 0
        return {"experiments.cache.hit_ratio":
                stats.hits / lookups if lookups else 0.0}


def _check_ciphers(ciphers, refs: _References) -> List[str]:
    errors = []
    for (cipher, seed), by_scheme in sorted(ciphers.items()):
        base = by_scheme.get("insecure")
        if base is None:
            errors.append(f"{cipher} seed {seed}: no insecure run to compare")
            continue
        for scheme, output in sorted(by_scheme.items()):
            if output != base:
                errors.append(
                    f"{cipher} seed {seed}: {scheme} output differs from "
                    "the insecure run"
                )
        expected = refs.cipher(cipher, seed)
        if expected is not None and base != expected:
            errors.append(f"{cipher} seed {seed}: output differs from the "
                          "reference implementation")
    return errors


class CTSweep:
    """Software CT (``ct``, ``ct-scalar``) at the large-DS points.

    Runs straight through ``run_workload`` on fresh machines: no
    experiment engine, no cache, no BIA.  Each pass covers every point
    under both schemes for several input seeds derived from the run
    seed.  The seed counts put the median operation among the
    ``hist_10k`` runs and the 90th percentile among the ``dij_128``
    runs, so neither percentile sits between two point sizes.
    """

    name = "ct-sweep"
    #: (workload, size, input seeds per pass)
    POINTS = (
        ("histogram", 8000, 3), ("histogram", 10000, 4),
        ("permutation", 8000, 3), ("binary_search", 10000, 2),
        ("heappop", 10000, 2), ("dijkstra", 128, 3),
    )
    SCHEMES = ("ct", "ct-scalar")

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.experiments import runner

        self._runner = runner
        self.ops = [
            (workload, size, scheme, seed + offset)
            for workload, size, seeds in self.POINTS
            for offset in range(seeds)
            for scheme in self.SCHEMES
        ]
        self.refs = _References()

    def run_pass(self, cal) -> PassResult:
        clock = time.perf_counter
        results, op_s, failed = [], [], 0
        for workload, size, scheme, seed in self.ops:
            start = clock()
            try:
                result = self._runner.run_workload(
                    workload, size, scheme, seed=seed
                )
            except Exception as exc:  # counted as a failed operation
                result = exc
                failed += 1
            op_s.append(clock() - start)
            results.append(result)
            cal.sample(op_s[-1])
        wall = sum(op_s)
        sim: Counter = Counter()
        errors = []
        for (workload, size, scheme, seed), result in zip(self.ops, results):
            if isinstance(result, Exception):
                errors.append(f"{workload}@{size} {scheme}: raised {result!r}")
                continue
            _add_sim(sim, result.counters)
            if result.output != self.refs.workload(workload, size, seed):
                failed += 1
                errors.append(f"{workload}@{size} seed {seed} under {scheme}: "
                              "output differs from the reference")
        return PassResult(
            wall_s=wall, op_s=op_s, sim=dict(sim),
            digest=_digest(sorted(sim.items())), errors=errors,
            failed_ops=failed,
        )

    def trace_counts(self) -> Dict[str, float]:
        return {}


#: Gate bag: every built-in IR program at several sizes.
GATE_PROGRAMS = (
    ("lookup", (64, 128, 256, 512)),
    ("masked_lookup", (64, 128, 256, 512)),
    ("speculative_lookup", (64, 128, 256, 512)),
    ("swap", (64, 128, 256)),
    ("des", (64, 128, 256)),
    ("binary_search", (256, 512, 1024, 2048)),
    ("conditional_sum", (8, 16, 32, 64)),
    ("histogram", ((16, 8), (32, 16), (64, 32))),
)
#: Workload DS audits riding along: (workload, size).
GATE_AUDITS = (
    ("binary_search", 256), ("binary_search", 512),
    ("dijkstra", 16), ("dijkstra", 24),
    ("heappop", 128), ("heappop", 256),
    ("histogram", 200), ("histogram", 400),
    ("permutation", 128), ("permutation", 256),
)
#: Known findings total of one pass over the bag.
GATE_FINDINGS = 262
#: Programs that are constant-time sequentially but leak speculatively.
SPECULATIVE_ONLY = ("speculative_lookup",)


class CTCheckGate:
    """A cold, serial pass of the constant-time gate over a fixed bag.

    Every built-in program is checked with ``symbolic=True,
    spec_window=2, repair=True``, plus the workload DS audits (which
    use the run seed).  Each target is one ``run_check_specs`` call
    with ``jobs=1`` and no verdict cache, so its latency is one
    operation.
    """

    name = "ctcheck-gate"

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.analysis import engine
        from repro.lang import programs

        self._engine = engine
        specs = []
        for family, sizes in GATE_PROGRAMS:
            build = getattr(programs, f"{family}_program")
            for size in sizes:
                args = size if isinstance(size, tuple) else (size,)
                label = "x".join(str(a) for a in args)
                specs.append(engine.CheckSpec(
                    kind="program", name=f"{family}@{label}",
                    program=build(*args)[0], symbolic=True, spec_window=2,
                    repair=True,
                ))
        specs.sort(key=lambda spec: spec.name)
        specs.extend(
            engine.CheckSpec(kind="workload", name=name, size=size, seed=seed)
            for name, size in GATE_AUDITS
        )
        self.specs = specs
        self.last_outputs = []

    def run_pass(self, cal) -> PassResult:
        clock = time.perf_counter
        run = self._engine.run_check_specs
        outputs, op_s, failed = [], [], 0
        for spec in self.specs:
            start = clock()
            try:
                output = run([spec], jobs=1)[0]
            except Exception as exc:  # counted as a failed operation
                output = exc
                failed += 1
            op_s.append(clock() - start)
            outputs.append(output)
            cal.sample(op_s[-1])
        wall = sum(op_s)
        self.last_outputs = outputs
        errors = []
        total = 0
        parts = []
        for spec, output in zip(self.specs, outputs):
            if isinstance(output, Exception):
                errors.append(f"{spec.name}: raised {output!r}")
                continue
            total += len(output.findings)
            parts.extend(
                (f.rule, f.severity, f.program, f.path, f.message)
                for f in output.findings
            )
            problem = _gate_verdict_problem(spec, output)
            if problem:
                failed += 1
                errors.append(f"{spec.name}: {problem}")
        if total != GATE_FINDINGS and not failed:
            errors.append(f"{total} findings, expected {GATE_FINDINGS}")
        return PassResult(
            wall_s=wall, op_s=op_s, sim={}, digest=_digest(parts),
            errors=errors, failed_ops=failed,
        )

    def count_pass(self) -> Dict[str, float]:
        """Simulated counters of every machine one pass builds (untimed)."""
        from repro.core.machine import Machine

        built: List[object] = []
        original = Machine.__init__

        def recording_init(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            built.append(machine)

        patcher = Patcher()
        patcher.replace(Machine, "__init__", original, recording_init)
        sim: Counter = Counter()
        try:
            for spec in self.specs:
                self._engine.run_check_specs([spec], jobs=1)
                for machine in built:
                    _add_sim(sim, machine.snapshot())
                built.clear()
        finally:
            patcher.undo()
        return dict(sim)

    def trace_counts(self) -> Dict[str, float]:
        stats: Counter = Counter()
        rounds = 0
        for output in self.last_outputs:
            if isinstance(output, Exception):
                continue
            stats.update(output.solver_stats)
            if output.repair is not None:
                rounds += output.repair.rounds
        queries = stats["queries"]
        return {
            "symrel.solve.queries": queries,
            "symrel.solve.memo_hit_ratio":
                stats["memo_hits"] / queries if queries else 0.0,
            "symrel.solve.unknown": stats["unknown"],
            "symrel.solve.evals": stats["evals"],
            "analysis.repair.rounds": rounds,
        }


def _gate_verdict_problem(spec, output) -> Optional[str]:
    """Why ``output`` is not the target's known answer, or ``None``."""
    findings = output.findings
    if spec.kind == "workload":
        errors = [f for f in findings if f.severity == "error"]
        return f"DS audit reported {errors[0].rule}" if errors else None
    rules = Counter(f.rule for f in findings)
    family = spec.name.split("@")[0]
    proved = [f.message for f in findings if f.rule == "CT-PROVED"]
    if not any(m.startswith("mitigated execution proved") for m in proved):
        return "mitigated variant not CT-PROVED"
    if not any(m.startswith("repaired program proved") for m in proved):
        return "repair result not CT-PROVED"
    if output.repair is None or output.repair.verdict != "proved":
        return "repair verdict is not 'proved'"
    if family in SPECULATIVE_ONLY:
        if rules["CT-REL"] or not rules["CT-SPEC"]:
            return "expected a speculative-only leak (CT-SPEC, no CT-REL)"
        return None
    refuted = [f.message for f in findings if f.rule == "CT-REL"]
    if len(refuted) != 1 or not refuted[0].startswith("native execution leaks"):
        return "leaky native not refuted with CT-REL"
    return None


WORKLOADS = {cls.name: cls for cls in (PaperRegen, CTSweep, CTCheckGate)}
