"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments [--jobs N] [--no-cache] [target ...]

Targets: ``table1``, ``motivation``, ``fig2``, ``fig7``, ``fig8``,
``fig9``, ``fig10``, ``headline``, or ``all`` (default).  Full paper
sweeps take seconds; each target prints as it completes.

``--jobs N`` fans the independent simulations of each target across
``N`` worker processes.  Results are cached under ``.repro_results/``
(keyed by simulation parameters + simulator version) so re-runs and
cross-figure shared baselines cost nothing; ``--no-cache`` disables
the cache for this invocation.  A simulation that raises stops the
run with its traceback.
"""

from __future__ import annotations

import argparse
import time

from repro.cli import positive_int
from repro.experiments import figures, parallel, tables
from repro.experiments.figures import headline_reduction
from repro.experiments.report import format_table


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
    """The command line of ``python -m repro.experiments``."""
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
        default=1,
        metavar="N",
        help="worker processes for independent simulations (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        dest="use_cache",
        action="store_false",
        help="disable the on-disk result cache (.repro_results/)",
    )
    return parser


def main(argv=None) -> int:
    """Run the command line ``argv``; returns the exit status.

    A malformed command line or an unknown target exits with status 2
    (``SystemExit``) before anything is simulated, as does ``--help``
    with status 0.
    """
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    names = args.target or ["all"]
    if names == ["all"]:
        # `json` re-runs every sweep and writes a file; request it
        # explicitly (python -m repro.experiments json).
        names = [n for n in TARGETS if n != "json"]
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        parser.error(
            f"unknown targets: {unknown}; choices: {sorted(TARGETS)} or all"
        )
    cache = (
        parallel.ResultCache(parallel.DEFAULT_CACHE_DIR)
        if args.use_cache
        else None
    )
    prev = parallel.current_settings()
    parallel.configure(jobs=args.jobs, cache=cache)
    try:
        for name in names:
            start = time.time()
            print(TARGETS[name]())
            print(f"[{name} done in {time.time() - start:.1f}s]\n")
    finally:
        parallel.configure(**prev._asdict())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
