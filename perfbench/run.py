"""Same-host benchmark: paper regeneration, software-CT sweeps, the CT gate.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-regen|ct-sweep|ctcheck-gate
                             [--seed N] [--seconds S] [--trace 0|1]

One process, no pool, no threads.  A run repeats identical *passes* of
the workload (see ``workloads.py``) until it has measured for
``--seconds`` and attempted at least 100 operations, checks every
pass's outputs, and checks that the simulated counters, rendered text
and verdicts repeat exactly across passes and across runs at the same
seed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the same passes, then one more pass with every layer's
  public entry points wrapped by timers (``layers.py``), reporting each
  layer's self time and call count, the exact simulated counters and
  the tracing overhead.

The human-readable report above that line (and a JSON copy under
``perfbench/out/``) carries the host fingerprint: nproc, Python,
platform, load average at start and end, the source revision and seed.
Exit status: 0 when every check passed, 1 when one failed, 2 for a
usage error or a directory without the ``repro`` sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_NS, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper-regen", "ct-sweep", "ctcheck-gate")
#: operations a run attempts at least, whatever ``--seconds`` says
MIN_OPS = 100
#: fresh interpreters timed per run for ``setup_s``
SETUP_PROBES = 7
#: least work, in seconds, that shares one host-speed factor
BLOCK_S = 2.0


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _time_setup(args, cal) -> list:
    """Nominal seconds of fresh interpreters that import and build the
    inputs; each probe is scaled by a calibration sample taken right
    after it, half as long as the probe."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        took = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + done.stderr.decode(errors="replace")[-500:])
        times.append(took * cal.window_factor(after_s=took, share=0.5))
    return times


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


class Run:
    """One benchmark invocation: passes, checks and metrics."""

    def __init__(self, args, bench) -> None:
        self.args = args
        self.bench = bench
        self.cal = Calibrator()
        self.block_ends = []
        self.passes = []
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def _account(self, result) -> None:
        self.attempted += len(result.op_s)
        self.failed += result.failed_ops
        self.errors.extend(result.errors)

    def measure(self) -> None:
        """Passes until the time and operation budgets are met.

        Consecutive passes form blocks of at least ``BLOCK_S`` of work
        that share one host-speed factor, so that short passes are not
        scaled by a noisy sample or two.
        """
        start = time.perf_counter()
        block = []
        while True:
            gc.collect()
            try:
                result = self.bench.run_pass(self.cal)
            except Exception as exc:  # a failed operation ends the run
                self.errors.append(f"pass raised {exc!r}")
                self.attempted += 1
                self.failed += 1
                return
            self._account(result)
            self.passes.append(result)
            block.append(result)
            ops = sum(len(p.op_s) for p in self.passes)
            done = (ops >= MIN_OPS
                    and time.perf_counter() - start >= self.args.seconds)
            if done or sum(p.wall_s for p in block) >= BLOCK_S:
                factor = self.cal.window_factor()
                for result in block:
                    result.factor = factor
                block = []
                self.block_ends.append(len(self.cal.timeline))
            if done:
                break
        first = self.passes[0]
        for result in self.passes[1:]:
            if (result.sim, result.digest, result.counts) != (
                    first.sim, first.digest, first.counts):
                self.errors.append("passes at one seed disagree on simulated "
                                   "counters, outputs or headline")
                break

    def sim(self) -> dict:
        count_pass = getattr(self.bench, "count_pass", None)
        return count_pass() if count_pass else dict(self.passes[0].sim)

    def traced_pass(self):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        gc.collect()
        cal = Calibrator(deferred=True)
        try:
            result = self.bench.run_pass(cal)
        finally:
            tracer.uninstall()
        result.factor = cal.window_factor()
        self._account(result)
        first = self.passes[0]
        if (result.sim, result.digest) != (first.sim, first.digest):
            self.errors.append("the traced pass changed simulated counters "
                               "or outputs")
        return tracer, result

    def check_fingerprint(self, sim: dict, src_digest: str) -> None:
        """Simulated counts and outputs must repeat across runs of the
        same program and benchmark code at the same seed."""
        record = {"sim": sim, "digest": self.passes[0].digest,
                  "counts": self.passes[0].counts}
        code = hashlib.sha256(
            (src_digest + _source_digest(HERE)).encode()).hexdigest()
        path = (OUT / "fingerprints"
                / f"{code[:16]}-{self.args.workload}-seed{self.args.seed}.json")
        if path.is_file():
            if json.loads(path.read_text()) != json.loads(json.dumps(record)):
                self.errors.append("simulated counters or outputs differ from "
                                   "an earlier run at this seed")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _nominal_wall(run: Run) -> float:
    return statistics.median(p.wall_s * p.factor for p in run.passes)


def end_to_end(run: Run, setup, sim, peak_rss_mb) -> dict:
    """End-to-end metrics; times in nominal-host seconds (calibrate.py)."""
    ops = [t * p.factor for p in run.passes for t in p.op_s]
    wall_s = _nominal_wall(run)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall_s, "s"),
        "op_ms_p50": _metric(statistics.median(ops) * 1e3, "ms"),
        "op_ms_p90": _metric(_p90(ops) * 1e3, "ms"),
        "sim_refs_per_s": _metric(sim["l1d_refs"] / wall_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


#: exact counts reported by the traced run (0 where a workload has none)
TRACE_COUNTS = {
    "experiments.cache.hit_ratio": "ratio",
    "symrel.solve.queries": "count",
    "symrel.solve.memo_hit_ratio": "ratio",
    "symrel.solve.unknown": "count",
    "symrel.solve.evals": "count",
    "analysis.repair.rounds": "count",
}


def per_layer(run: Run, tracer, traced, sim) -> dict:
    """Per-layer metrics; times in nominal-host seconds (calibrate.py)."""
    from layers import ENTRY_LAYERS, LAYERS

    factor = traced.factor
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        self_s = tracer.self_s(layer)
        attributed += self_s
        metrics[f"{layer}.self_s"] = _metric(self_s * factor, "s")
        metrics[f"{layer}.calls"] = _metric(tracer.calls(layer), "count")
    other = traced.wall_s - attributed
    if other < -1e-6:
        run.errors.append(f"layer self times exceed the traced wall by {-other:.6f} s")
    metrics["other.self_s"] = _metric(other * factor, "s")
    for entry, self_s in tracer.by_entry().items():
        if entry in ENTRY_LAYERS:
            metrics[f"under.{entry}.self_s"] = _metric(self_s * factor, "s")
    metrics["trace.wall_s"] = _metric(traced.wall_s * factor, "s")
    metrics["trace.overhead_s"] = _metric(
        traced.wall_s * factor - _nominal_wall(run), "s")
    counts = dict.fromkeys(TRACE_COUNTS, 0)
    counts.update(run.bench.trace_counts())
    for name, unit in TRACE_COUNTS.items():
        metrics[name] = _metric(counts[name], unit)
    for name, value in sim.items():
        metrics[f"sim.{name}"] = _metric(
            value, "cycles" if name == "cycles" else "count")
    lookups = sim["l1d_hits"] + sim["l1d_misses"]
    metrics["sim.l1d_hit_ratio"] = _metric(
        sim["l1d_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["sim.headline_x"] = _metric(
        run.passes[0].counts.get("headline_x", 0.0), "x")
    return metrics


def _print_report(run: Run, report: dict, metrics: dict, tracer) -> None:
    host = report["host"]
    print(f"perfbench {run.args.workload}  seed={run.args.seed}  "
          f"trace={run.args.trace}  seconds={run.args.seconds:g}")
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"platform={host['platform']}")
    print(f"load average (1/5/15 min): start {host['load_start']}  "
          f"end {host['load_end']}")
    print(f"source: rev {report['rev']}  sha256 {report['src_sha256'][:16]}")
    cal = report["calibration"]
    print(f"host speed: calibration kernel {cal['ns_per_iteration']:.1f} ns/iter "
          f"(set-up {cal['setup_ns_per_iteration']:.1f}); times below are "
          f"scaled to the nominal {cal['nominal_ns_per_iteration']:.0f} ns/iter")
    samples = sum(len(p.op_s) for p in run.passes)
    print(f"passes={len(run.passes)}  operations attempted={run.attempted}  "
          f"failed={run.failed}  error_rate={report['error_rate']:g}  "
          f"op latency samples={samples}")
    if "headline_x" in run.passes[0].counts:
        print(f"headline_x={run.passes[0].counts['headline_x']:.4f} "
              "(simulated CT / L1d-BIA overhead reduction, geomean)")
    for error in run.errors[:20]:
        print(f"CHECK FAILED: {error}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")
    if tracer is not None:
        from layers import BYPASSES

        print("heaviest (layer <- parent [machine entry]) spans by self time:")
        for edge in tracer.edges()[:12]:
            print(f"  {edge['layer']:<24} <- {edge['parent']:<22} "
                  f"[{edge['entry']}] {edge['self_s']:9.4f} s  "
                  f"{edge['calls']:>9} calls")
        for view, dom in report["dominance"].items():
            total = sum(dom["self_s"].values()) or 1.0
            shares = ", ".join(f"{k} {100 * v / total:.0f}%"
                               for k, v in dom["self_s"].items())
            verdict = "confirmed" if dom["confirmed"] else "NOT confirmed"
            print(f"by {view}: {shares} -> {dom['measured']} "
                  f"(predicted {dom['predicted']}: {verdict})")
        for note in BYPASSES:
            print(f"note: {note}")
        for missing in tracer.missing:
            print(f"note: entry point not found, not traced: {missing}")


#: layer group and machine entry point predicted to take the most host
#: time; the gate's prediction concerns its time outside the simulator
PREDICTED_DOMINANT = {
    "paper-regen": ("scalar", "core.machine.scalar"),
    "ct-sweep": ("bulk", "core.machine.bulk"),
    "ctcheck-gate": ("analysis", "analysis"),
}


def _dominance(workload: str, tracer, traced_wall_s: float) -> dict:
    """The most expensive layer group and machine entry point.

    Two views, because the scalar and bulk paths share the lower
    layers: by the self time of each layer group, and by the self time
    of every layer under each machine entry point.
    """
    from layers import ENTRY_LAYERS, GROUPS, LAYERS, ROOT, SIMULATOR_GROUPS

    groups = {name: sum(tracer.self_s(layer) for layer in layers)
              for name, layers in GROUPS.items()}
    entries = tracer.by_entry()
    entries[ROOT] += traced_wall_s - sum(map(tracer.self_s, LAYERS))
    want_group, want_entry = PREDICTED_DOMINANT[workload]
    if want_group == "analysis":
        groups = {k: v for k, v in groups.items() if k not in SIMULATOR_GROUPS}
        entries = {k: v for k, v in entries.items() if k not in ENTRY_LAYERS}
    out = {}
    for view, shares, want in (("layer_group", groups, want_group),
                               ("machine_entry", entries, want_entry)):
        got = max(shares, key=shares.get)
        out[view] = {"self_s": shares, "predicted": want, "measured": got,
                     "confirmed": got == want}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, str(scratch))
        return 0

    load_start = os.getloadavg()
    setup_cal = Calibrator()
    setup = _time_setup(args, setup_cal)
    bench = WORKLOADS[args.workload](args.seed, str(scratch))
    run = Run(args, bench)
    run.measure()
    if not run.passes:
        for error in run.errors:
            print(f"CHECK FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sim = run.sim()
    src_digest = _source_digest(SRC)
    run.check_fingerprint(sim, src_digest)
    tracer = None
    if args.trace:
        tracer, traced = run.traced_pass()
        metrics = per_layer(run, tracer, traced, sim)
        dominance = _dominance(args.workload, tracer, traced.wall_s)
    else:
        metrics = end_to_end(run, setup, sim, peak_rss_mb)
    correct = not run.errors and run.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rev": _git_rev(),
        "src_sha256": src_digest,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load_start": [round(x, 2) for x in load_start],
            "load_end": [round(x, 2) for x in os.getloadavg()],
        },
        "passes": [{"wall_s": p.wall_s, "factor": p.factor, "op_s": p.op_s}
                   for p in run.passes],
        "setup_probes_nominal_s": setup,
        "calibration": {
            "nominal_ns_per_iteration": NOMINAL_NS,
            "ns_per_iteration": run.cal.ns_per_iteration,
            "setup_ns_per_iteration": setup_cal.ns_per_iteration,
            "timeline": run.cal.timeline,
            "block_ends": run.block_ends,
        },
        "error_rate": run.failed / max(run.attempted, 1),
        "errors": run.errors,
        "sim": sim,
        "metrics": metrics,
    }
    if tracer is not None:
        report["dominance"] = dominance
        report["spans"] = tracer.edges()
        report["not_traced"] = tracer.missing
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    _print_report(run, report, metrics, tracer)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
