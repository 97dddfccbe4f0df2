"""Experiment engine: a content-addressed result cache and a pool map.

Every figure/table in the paper reduces to a bag of independent
``(workload, size, scheme, seed)`` simulations — each builds a fresh
machine, so there is no shared state and the bag is embarrassingly
parallel.  This module provides the engine the experiment layer runs
on, and the two mechanisms the verification engine
(:mod:`repro.analysis.engine`) shares with it:

* :class:`RunSpec` — a hashable description of one simulation.  Its
  :meth:`~RunSpec.key` is a content hash over the spec's fields *and*
  :data:`repro.__version__`, so cached results are invalidated
  automatically when the simulator version bumps.
* :class:`ResultCache` — a content-addressed ``key -> value`` map,
  optionally backed by a directory of pickle files (one per key) so
  entries survive across processes.  It holds simulation results and
  ctcheck verdicts alike; figures 2/7/8 share the same ``insecure``
  baselines, so with a cache they are simulated once.
* :func:`cached_map` — apply a work function to a sequence of specs:
  identical specs run once, cached ones not at all, and the remaining
  misses go through :func:`pool_map`, a plain ordered map over
  ``jobs`` worker processes.
* :func:`run_many` / :func:`parallel_sweep` — the simulation front
  ends; ``parallel_sweep`` returns the ``{size: {scheme: RunResult}}``
  mapping of :func:`repro.experiments.runner.sweep`.

Determinism: a spec fully determines its machine (pristine state per
run, seeded RNGs, seeded replacement policies), so a worker process
produces bit-identical counters to an in-process run.  The test suite
asserts ``parallel_sweep(jobs=4)`` is counter-identical to the serial
``sweep``.  A simulation that raises propagates out of the batch.

Process-global defaults (used by the CLI's ``--jobs`` / ``--no-cache``
flags) are set with :func:`configure`; explicit arguments always win.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import repro
from repro.core.machine import MachineConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult, run_crypto, run_workload

#: Default on-disk cache directory (relative to the current working
#: directory) used by the CLI when caching is enabled.
DEFAULT_CACHE_DIR = ".repro_results"


# -- specs ---------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: workload (or cipher) x scheme x seed.

    ``kind`` selects the runner: ``"workload"`` dispatches to
    :func:`run_workload` (``size`` required), ``"crypto"`` to
    :func:`run_crypto` (``workload`` names the cipher, ``size``
    ignored).
    """

    workload: str
    size: int = 0
    scheme: str = "insecure"
    seed: int = 1
    kind: str = "workload"
    fetch_threshold: Optional[int] = None
    config: Optional[MachineConfig] = None

    def key(self) -> str:
        """Content hash of this spec + the simulator version.

        Two specs with equal keys produce identical results; bumping
        :data:`repro.__version__` invalidates every cached result.
        """
        payload = {
            "workload": self.workload,
            "size": self.size,
            "scheme": self.scheme,
            "seed": self.seed,
            "kind": self.kind,
            "fetch_threshold": self.fetch_threshold,
            "config": (
                None if self.config is None else dataclasses.asdict(self.config)
            ),
            "version": repro.__version__,
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def run(self) -> RunResult:
        """Execute this spec in this process, on a fresh machine."""
        if self.kind == "workload":
            return run_workload(
                self.workload,
                self.size,
                self.scheme,
                seed=self.seed,
                config=self.config,
                fetch_threshold=self.fetch_threshold,
            )
        if self.kind == "crypto":
            return run_crypto(
                self.workload, self.scheme, seed=self.seed, config=self.config
            )
        raise ConfigurationError(
            f"unknown RunSpec kind {self.kind!r}; choices: workload, crypto"
        )


def run_spec(spec: RunSpec) -> RunResult:
    """Top-level trampoline so specs can cross a process boundary."""
    return spec.run()


# -- result cache -------------------------------------------------------------


@dataclass(slots=True)
class CacheStats:
    """Cache activity counters.

    ``misses`` counts entries that had to be computed; tests and CI's
    warm ctcheck pass assert it is zero on an unchanged tree.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Content-addressed ``key -> value`` store shared by both engines.

    Values are :class:`~repro.experiments.runner.RunResult` objects
    (keyed by :meth:`RunSpec.key`) and ctcheck
    :class:`~repro.analysis.engine.CheckOutput` verdicts (keyed by
    :meth:`~repro.analysis.engine.CheckSpec.key`); the keys never
    collide because each hashes a different payload.

    With ``path=None`` the cache lives only in this process.  With a
    directory path (created on construction, so an unusable path fails
    here rather than on the first write) each entry is also pickled to
    ``<path>/<key>.pkl``: written to a temporary file, flushed and
    fsync'd, then moved into place with :func:`os.replace`, so a crash
    leaves either the whole entry or none of it.  A file that cannot be
    read is a miss — the entry is recomputed and the file rewritten.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._memory: Dict[str, object] = {}
        self.stats = CacheStats()
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def _file_for(self, key: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, key + ".pkl")

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` (counted a miss)."""
        value = self._memory.get(key)
        if value is None and self.path is not None:
            try:
                with open(self._file_for(key), "rb") as fh:
                    value = pickle.load(fh)
            except (OSError, EOFError, pickle.UnpicklingError,
                    AttributeError, ImportError):
                value = None  # missing, torn or stale: recompute
            if value is not None:
                self._memory[key] = value
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store one entry, durably when the cache is on disk."""
        self._memory[key] = value
        self.stats.stores += 1
        if self.path is None:
            return
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._file_for(key))
        except BaseException:
            os.unlink(tmp)
            raise

    def clear(self) -> None:
        self._memory.clear()
        if self.path is not None and os.path.isdir(self.path):
            for name in os.listdir(self.path):
                if name.endswith(".pkl"):
                    os.remove(os.path.join(self.path, name))


# -- process-global defaults ---------------------------------------------------

_UNSET = object()


class EngineSettings(NamedTuple):
    """Snapshot of the process-wide engine defaults.

    Restore with ``configure(**settings._asdict())``.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None


_settings = EngineSettings()


def _checked_jobs(jobs) -> int:
    if jobs is None or int(jobs) < 1:
        raise ConfigurationError(f"jobs must be a positive int: {jobs!r}")
    return int(jobs)


def configure(jobs=_UNSET, cache=_UNSET) -> None:
    """Set process-wide defaults for :func:`run_many`.

    The CLI calls this once from its ``--jobs`` / ``--no-cache`` flags;
    library callers normally pass explicit arguments instead.
    """
    global _settings
    if jobs is not _UNSET:
        _settings = _settings._replace(jobs=_checked_jobs(jobs))
    if cache is not _UNSET:
        _settings = _settings._replace(cache=cache)


def current_settings() -> EngineSettings:
    """The active engine defaults — introspection and save/restore."""
    return _settings


# -- execution ----------------------------------------------------------------


def pool_map(fn: Callable, items: Sequence, jobs: int) -> List:
    """``[fn(item) for item in items]``, across ``jobs`` processes.

    Runs in this process when ``jobs == 1`` or there is at most one
    item.  ``fn`` must be a picklable top-level callable.  Workers
    freeze the heap they inherit from the fork (:func:`gc.freeze`), so
    their collections scan only worker-created objects; on checker
    batches this removes a ~25% per-task CPU penalty over the same
    serial run.
    """
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze) as pool:
        return list(pool.map(fn, items))


def cached_map(
    fn: Callable, specs: Sequence, jobs: int, cache: Optional[ResultCache]
) -> List:
    """``fn`` over content-addressed ``specs``, results in spec order.

    Specs with equal :meth:`key` run once; cached specs do not run at
    all.  The misses go through :func:`pool_map` and each result is
    put into ``cache``.
    """
    jobs = _checked_jobs(jobs)
    keys = [spec.key() for spec in specs]
    results: Dict[str, object] = {}
    misses: Dict[str, object] = {}  # key -> spec, submission order
    for spec, key in zip(specs, keys):
        if key in results or key in misses:
            continue
        hit = None if cache is None else cache.get(key)
        if hit is None:
            misses[key] = spec
        else:
            results[key] = hit
    computed = pool_map(fn, list(misses.values()), jobs)
    for key, result in zip(misses, computed):
        results[key] = result
        if cache is not None:
            cache.put(key, result)
    return [results[key] for key in keys]


def run_many(
    specs: Sequence[RunSpec], jobs=_UNSET, cache=_UNSET
) -> List[RunResult]:
    """Execute ``specs``, returning results in the same order.

    Identical specs (equal content keys) are simulated once; cached
    results are reused without simulation.  With ``jobs > 1`` the
    outstanding unique specs are fanned across a process pool.
    Arguments left out default to the :func:`configure` settings.
    """
    if jobs is _UNSET:
        jobs = _settings.jobs
    if cache is _UNSET:
        cache = _settings.cache
    return cached_map(run_spec, specs, jobs, cache)


def parallel_sweep(
    workload: str,
    sizes: Sequence[int],
    schemes: Sequence[str],
    seed: int = 1,
    jobs=_UNSET,
    cache=_UNSET,
) -> Dict[int, Dict[str, RunResult]]:
    """Sizes x schemes sweep with the same shape as ``runner.sweep``."""
    specs = [
        RunSpec(workload=workload, size=size, scheme=scheme, seed=seed)
        for size in sizes
        for scheme in schemes
    ]
    it = iter(run_many(specs, jobs=jobs, cache=cache))
    return {
        size: {scheme: next(it) for scheme in schemes} for size in sizes
    }
