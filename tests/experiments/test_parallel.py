"""Tests for the parallel experiment engine and its result cache.

The acceptance bar: parallel execution and cache reuse must be
*invisible* — every counter of every run identical to a fresh serial
simulation — and a warm cache must mean zero new simulations.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    RunSpec,
    parallel_sweep,
    run_many,
    run_spec,
)
from repro.experiments.runner import run_workload, sweep
from repro.errors import ConfigurationError

WORKLOADS_UNDER_TEST = ("histogram", "binary_search")
SIZES = {"histogram": (200, 300), "binary_search": (64, 128)}
SCHEMES = ("insecure", "ct")


# ---------------------------------------------------------------------------
# spec keys
# ---------------------------------------------------------------------------


def test_key_is_stable_and_content_addressed():
    a = RunSpec("histogram", 200, "ct", 1)
    b = RunSpec("histogram", 200, "ct", 1)
    assert a.key() == b.key()
    # any field change changes the key
    assert a.key() != RunSpec("histogram", 201, "ct", 1).key()
    assert a.key() != RunSpec("histogram", 200, "insecure", 1).key()
    assert a.key() != RunSpec("histogram", 200, "ct", 2).key()
    assert a.key() != RunSpec("histogram", 200, "ct", 1, kind="crypto").key()
    assert (
        a.key()
        != RunSpec("histogram", 200, "ct", 1, fetch_threshold=4).key()
    )


def test_key_includes_version(monkeypatch):
    spec = RunSpec("histogram", 200, "ct", 1)
    before = spec.key()
    import repro

    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert spec.key() != before


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec("histogram", 200, kind="nope").run()


def test_run_spec_trampoline_matches_runner():
    direct = run_workload("histogram", 200, "ct", seed=1)
    via_spec = run_spec(RunSpec("histogram", 200, "ct", 1))
    assert direct.counters == via_spec.counters


# ---------------------------------------------------------------------------
# parallel == serial, counter for counter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS_UNDER_TEST)
def test_parallel_sweep_counter_identical_to_serial(workload):
    sizes = SIZES[workload]
    serial = sweep(workload, sizes, SCHEMES)
    fanned = parallel_sweep(workload, sizes, SCHEMES, jobs=4)
    assert set(serial) == set(fanned)
    for size in sizes:
        for scheme in SCHEMES:
            s, p = serial[size][scheme], fanned[size][scheme]
            assert s.counters == p.counters, (workload, size, scheme)
            assert s.output == p.output
            assert (s.workload, s.size, s.scheme, s.label) == (
                p.workload,
                p.size,
                p.scheme,
                p.label,
            )


def test_single_miss_runs_in_process(monkeypatch, tmp_path):
    """A pool is only worth its fork when two or more specs miss."""
    monkeypatch.setattr(
        parallel,
        "ProcessPoolExecutor",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("forked!")),
    )
    cache = ResultCache(str(tmp_path / "results"))
    specs = [RunSpec("histogram", 200, "insecure"), RunSpec("histogram", 200, "ct")]
    run_many(specs[:1], cache=cache, jobs=4)  # one miss
    _, fresh = run_many(specs, cache=cache, jobs=4)  # one hit, one miss
    assert cache.stats.misses == 2 and cache.stats.hits == 1
    assert fresh.scheme == "ct"


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_spec_propagates(jobs, tmp_path):
    cache = ResultCache(str(tmp_path / "results"))
    specs = [RunSpec("histogram", 200, "insecure"), RunSpec("histogram", 200, kind="nope")]
    with pytest.raises(ConfigurationError, match="unknown RunSpec kind"):
        run_many(specs, cache=cache, jobs=jobs)


def test_run_many_preserves_order_and_dedups():
    specs = [
        RunSpec("histogram", 200, "insecure"),
        RunSpec("histogram", 200, "ct"),
        RunSpec("histogram", 200, "insecure"),  # duplicate of [0]
    ]
    cache = ResultCache()
    results = run_many(specs, cache=cache)
    assert [r.scheme for r in results] == ["insecure", "ct", "insecure"]
    # the duplicate spec was simulated once and returned twice
    assert results[0] is results[2]
    assert cache.stats.stores == 2


def test_heavily_duplicated_sweep_dedups_in_order():
    """Regression for the O(n^2) `key in pending_keys` list scan: the
    engine tracks pending membership in a set, but must still return
    results in submission order and simulate each unique spec once."""
    unique = [
        RunSpec("histogram", size, scheme)
        for size in (200, 300)
        for scheme in ("insecure", "ct")
    ]
    # 50 interleaved repetitions of the 4 unique specs
    specs = [unique[i % len(unique)] for i in range(200)]
    cache = ResultCache()
    results = run_many(specs, cache=cache)
    assert len(results) == 200
    assert cache.stats.stores == len(unique)  # each simulated exactly once
    for i, result in enumerate(results):
        expected = unique[i % len(unique)]
        assert (result.size, result.scheme) == (
            expected.size,
            expected.scheme,
        )
        # duplicates share the one computed object
        assert result is results[i % len(unique)]


# ---------------------------------------------------------------------------
# cache: warm runs simulate nothing
# ---------------------------------------------------------------------------


def _grid_specs():
    return [
        RunSpec(workload, size, scheme)
        for workload in WORKLOADS_UNDER_TEST
        for size in SIZES[workload]
        for scheme in SCHEMES
    ]


def test_warm_disk_cache_means_zero_simulations(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "results")
    specs = _grid_specs()

    cold = ResultCache(cache_dir)
    fresh = run_many(specs, cache=cold)
    assert cold.stats.misses == len(specs)
    assert cold.stats.stores == len(specs)

    # fresh cache object over the same directory == a new process
    warm = ResultCache(cache_dir)
    # prove no simulation happens: running a workload would call
    # run_spec; make it explode.
    monkeypatch.setattr(
        parallel,
        "run_spec",
        lambda spec: (_ for _ in ()).throw(AssertionError("simulated!")),
    )
    monkeypatch.setattr(
        RunSpec,
        "run",
        lambda self: (_ for _ in ()).throw(AssertionError("simulated!")),
    )
    cached = run_many(specs, cache=warm)
    assert warm.stats.hits == len(specs)
    assert warm.stats.misses == 0
    assert warm.stats.stores == 0
    for a, b in zip(fresh, cached):
        assert a.counters == b.counters


def test_cached_results_identical_to_serial_fresh(tmp_path):
    """Parallel + cached == serial fresh, across every snapshot key."""
    cache = ResultCache(str(tmp_path / "results"))
    specs = _grid_specs()
    run_many(specs, cache=cache, jobs=4)  # populate (parallel)
    warmed = run_many(specs, cache=cache)  # reuse
    fresh = [spec.run() for spec in specs]  # serial, no engine
    for a, b in zip(warmed, fresh):
        assert set(a.counters) == set(b.counters)
        for key in b.counters:
            assert a.counters[key] == b.counters[key], (a.workload, key)


def test_corrupt_cache_file_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "results"))
    spec = RunSpec("histogram", 200, "insecure")
    (first,) = run_many([spec], cache=cache)
    path = cache._file_for(spec.key())
    with open(path, "rb") as fh:
        intact = fh.read()
    # garbage, and a torn write of the real entry
    for damage in (b"not a pickle", intact[: len(intact) // 2]):
        with open(path, "wb") as fh:
            fh.write(damage)
        # a fresh cache over the same directory treats it as a miss,
        # recomputes, and rewrites the entry
        again = ResultCache(cache.path)
        (recomputed,) = run_many([spec], cache=again)
        assert again.stats.misses == 1  # corrupt file did not poison the run
        assert again.stats.stores == 1
        assert recomputed.counters == first.counters
        with open(path, "rb") as fh:
            assert pickle.load(fh).counters == first.counters
    assert not [n for n in os.listdir(cache.path) if n.endswith(".tmp")]


def test_cache_clear(tmp_path):
    cache = ResultCache(str(tmp_path / "results"))
    spec = RunSpec("histogram", 200, "insecure")
    run_many([spec], cache=cache)
    cache.clear()
    assert cache.get(spec.key()) is None


# ---------------------------------------------------------------------------
# configure() defaults
# ---------------------------------------------------------------------------


def test_configure_defaults_are_honoured():
    prev = parallel.current_settings()
    cache = ResultCache()
    try:
        parallel.configure(jobs=1, cache=cache)
        sweep("histogram", [200], ["insecure"])
        assert cache.stats.stores == 1
        sweep("histogram", [200], ["insecure"])  # warm
        assert cache.stats.hits >= 1
        assert cache.stats.stores == 1
    finally:
        parallel.configure(jobs=prev[0], cache=prev[1])


def test_settings_roundtrip():
    prev = parallel.current_settings()
    cache = ResultCache()
    try:
        parallel.configure(jobs=3, cache=cache)
        now = parallel.current_settings()
        assert (now.jobs, now.cache) == (3, cache)
    finally:
        parallel.configure(**prev._asdict())
    assert parallel.current_settings() == prev


def test_configure_rejects_bad_jobs():
    with pytest.raises(ConfigurationError):
        parallel.configure(jobs=0)
    with pytest.raises(ConfigurationError):
        run_many([RunSpec("histogram", 200)], jobs=-1)


# ---------------------------------------------------------------------------
# cache keying: specs that differ never share a result
# ---------------------------------------------------------------------------


class TestCacheKeying:
    """`RunSpec.key()` covers every field that changes a simulation.

    Every `MachineConfig` field — `replacement_seed` included — is part
    of the key, and so are the fields outside the machine (seed, size).
    A cached result served across either kind of difference would
    silently corrupt a sweep.
    """

    def test_replacement_seed_changes_key(self, tmp_path):
        from repro.core.machine import MachineConfig

        spec_a = RunSpec(
            "histogram", 200, "insecure",
            config=MachineConfig(replacement_seed=0),
        )
        spec_b = RunSpec(
            "histogram", 200, "insecure",
            config=MachineConfig(replacement_seed=123),
        )
        # distinct cache keys: a cached result can never cross over
        assert spec_a.key() != spec_b.key()
        cache = ResultCache(str(tmp_path / "c"))
        cached = run_many([spec_a, spec_b], cache=cache)
        assert cache.stats.stores == 2
        for fresh, served in zip([spec_a.run(), spec_b.run()], cached):
            assert fresh.counters == served.counters
            assert fresh.output == served.output

    def test_seeds_never_share_results(self, tmp_path):
        spec_s1 = RunSpec("histogram", 200, "insecure", seed=1)
        spec_s2 = RunSpec("histogram", 200, "insecure", seed=2)
        assert spec_s1.key() != spec_s2.key()
        cache = ResultCache(str(tmp_path / "c"))
        results = run_many([spec_s1, spec_s2], cache=cache)
        assert cache.stats.stores == 2
        assert results[0].counters != results[1].counters or (
            results[0].output != results[1].output
        )
