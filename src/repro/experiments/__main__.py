"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments [--jobs N] [--no-cache]
                                [--timeout S] [--retries N]
                                [--run-log FILE] [--run-dir DIR]
                                [--resume DIR] [--from-store DIR]
                                [target ...]

Targets: ``table1``, ``motivation``, ``fig2``, ``fig7``, ``fig8``,
``fig9``, ``fig10``, ``headline``, or ``all`` (default).  Full paper
sweeps take a few minutes; each target prints as it completes.

``--jobs N`` fans the independent simulations of each target across
``N`` worker processes.  Results are cached under ``.repro_results/``
(keyed by simulation parameters + simulator version) so re-runs and
cross-figure shared baselines cost nothing; ``--no-cache`` disables
the cache for this invocation.

Resilience knobs: ``--timeout S`` bounds each simulation's wall time,
``--retries N`` re-attempts failing/hanging/crashed simulations with
exponential backoff.  A target whose batch still fails prints the
engine's per-spec failure log and the run continues with the next
target (exit status 1 at the end).  Every attempt is recorded by the
telemetry sink: a summary table prints at the end, and ``--run-log
FILE`` exports the full JSONL run log (one record per attempt).

Durability (checkpoint/resume):

``--run-dir DIR``
    Open ``DIR`` as a crash-safe run directory (see
    :mod:`repro.experiments.store`): the sweep's specs are recorded in
    ``DIR/manifest.json`` before execution, every completed result is
    appended durably to ``DIR/results/`` as it arrives, and telemetry
    streams to ``DIR/telemetry.jsonl``.  Re-running with the same
    ``--run-dir`` serves already-durable specs from the store.
``--resume DIR``
    Finish an interrupted sweep: re-enqueue exactly the manifest's
    specs (engine settings default to the manifest's snapshot; explicit
    flags override) and simulate only the ones whose results are not
    yet durable.  No target names are needed — the manifest *is* the
    work list.
``--from-store DIR``
    Rebuild the requested targets offline from ``DIR``'s store; a spec
    missing from the store is an error, never a simulation.
"""

from __future__ import annotations

import argparse
import time

from repro.cli import non_negative_int, positive_float, positive_int
from repro.errors import EngineError
from repro.experiments import figures, parallel, tables
from repro.experiments.figures import headline_reduction
from repro.experiments.report import format_table
from repro.experiments.telemetry import RunTelemetry


def _headline() -> str:
    data = headline_reduction()
    rows = [(name, ratio) for name, ratio in data.items()]
    return format_table(
        ["workload", "CT / L1d-BIA overhead reduction (geomean)"],
        rows,
        title="Headline: overhead reduction vs state-of-the-art CT",
    )


def _fig7_all() -> str:
    return "\n\n".join(
        figures.render_figure7(name)
        for name in ("dijkstra", "histogram", "permutation", "binary_search", "heappop")
    )


def _json_export() -> str:
    from repro.experiments.export import export_json

    path = "experiment_results.json"
    export_json(path)
    return f"wrote {path}"


TARGETS = {
    "table1": tables.render_table1,
    "motivation": tables.render_motivation_profile,
    "fig2": figures.render_figure2,
    "fig7": _fig7_all,
    "fig8": figures.render_figure8,
    "fig9": figures.render_figure9,
    "fig10": figures.render_figure10,
    "headline": _headline,
    "json": _json_export,
}


def build_parser() -> argparse.ArgumentParser:
    """The command line of ``python -m repro.experiments``.

    ``--jobs``, ``--timeout`` and ``--retries`` default to None so that
    ``--resume`` can tell an explicit ``--jobs 4`` apart from the
    default and let the manifest's settings snapshot fill the rest.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        nargs="*",
        help=f"{', '.join(TARGETS)} or all (the default; all omits json)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        metavar="N",
        help="worker processes for independent simulations (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        dest="use_cache",
        action="store_false",
        help="disable the on-disk result cache (.repro_results/)",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float,
        metavar="S",
        help="per-simulation wall-time budget in seconds",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        metavar="N",
        help="retry failing/hanging simulations this many times (default 0)",
    )
    parser.add_argument(
        "--run-log", metavar="FILE", help="export the JSONL run log to FILE"
    )
    parser.add_argument(
        "--run-dir", metavar="DIR", help="checkpoint the run into DIR"
    )
    parser.add_argument(
        "--resume", metavar="DIR", help="finish the interrupted run in DIR"
    )
    parser.add_argument(
        "--from-store",
        metavar="DIR",
        help="rebuild the targets offline from DIR's store",
    )
    return parser


def _resume_main(args, telemetry) -> int:
    """``--resume DIR``: finish the manifest, no targets involved."""
    from repro.experiments import store

    rd = store.RunDirectory(args.resume)
    telemetry.stream_to(rd.telemetry_path)
    status = 0
    try:
        results = store.resume(
            rd,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
        print(f"resumed {rd.path}: {len(results)} result(s) complete")
    except EngineError as exc:
        status = 1
        print(f"[resume FAILED] {exc}")
    finally:
        telemetry.close_stream()
        rd.close()
    return status


def main(argv=None) -> int:
    """Run the command line ``argv``; returns the exit status.

    A malformed command line exits with status 2 (``SystemExit``)
    before anything is simulated, as does ``--help`` with status 0.
    """
    args = build_parser().parse_intermixed_args(argv)
    telemetry = RunTelemetry()

    if args.resume:
        status = _resume_main(args, telemetry)
        if telemetry.records:
            print(telemetry.summary_table())
        return status

    names = args.target or ["all"]
    if names == ["all"]:
        # `json` re-runs every sweep and writes a file; request it
        # explicitly (python -m repro.experiments json).
        names = [n for n in TARGETS if n != "json"]
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown targets: {unknown}; choices: {sorted(TARGETS)} or all")
        return 2
    cache = (
        parallel.ResultCache(parallel.DEFAULT_CACHE_DIR)
        if args.use_cache
        else None
    )
    run_dir = None
    offline = False
    if args.from_store:
        from repro.experiments.store import RunDirectory

        run_dir = RunDirectory(args.from_store, readonly=True)
        offline = True
    elif args.run_dir:
        from repro.experiments.store import RunDirectory

        run_dir = RunDirectory(args.run_dir)
        telemetry.stream_to(run_dir.telemetry_path)
    prev = parallel.current_settings()
    parallel.configure(
        jobs=1 if args.jobs is None else args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=0 if args.retries is None else args.retries,
        telemetry=telemetry,
        store=run_dir,
        offline=offline,
    )
    status = 0
    try:
        for name in names:
            start = time.time()
            try:
                print(TARGETS[name]())
            except EngineError as exc:
                # Partial failure: successes are already cached; report
                # the per-spec failure log and press on.
                status = 1
                print(f"[{name} FAILED] {exc}")
            print(f"[{name} done in {time.time() - start:.1f}s]\n")
    finally:
        parallel.configure(**prev._asdict())
        telemetry.close_stream()
        if run_dir is not None and not offline:
            run_dir.close()
    if telemetry.records:
        print(telemetry.summary_table())
    if args.run_log:
        count = telemetry.export_jsonl(args.run_log)
        print(f"wrote {count} run record(s) to {args.run_log}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
