"""Verdict caching: content addressing and invalidation.

ctcheck verdicts live in the experiment engine's
:class:`~repro.experiments.parallel.ResultCache`.  The cache key is the
whole story: an unchanged (IR, checker config, toolchain version)
triple must be served bit-identical findings without re-checking, and
*any* change to that triple must force a genuine re-check.  These
tests drive each invalidation axis — IR mutation, checker
configuration (``--spec-window``), toolchain version — plus the
on-disk entries and one directory shared with simulation results.
"""

import dataclasses
import json

import pytest

import repro
from repro.analysis.engine import CheckSpec, run_check_specs
from repro.cli import main
from repro.experiments.parallel import ResultCache, RunSpec, run_many
from repro.lang import ir
from repro.lang.programs import lookup_program

pytestmark = pytest.mark.ctcheck


def _spec(**kw):
    defaults = dict(
        program=lookup_program(64)[0], symbolic=True, replay=False
    )
    defaults.update(kw)
    return CheckSpec(kind="program", name="lookup", **defaults)


def _findings_json(output):
    return json.dumps(
        [f.as_dict() for f in output.findings], sort_keys=True
    )


class TestContentAddressing:
    def test_same_spec_built_twice_hashes_equal(self):
        assert _spec().key() == _spec().key()

    def test_ir_mutation_changes_the_key(self):
        base = _spec()
        program = lookup_program(64)[0]
        mutated = dataclasses.replace(
            program,
            body=program.body + (ir.Const("pad", 0),),
        )
        assert base.key() != _spec(program=mutated).key()

    def test_checker_config_changes_the_key(self):
        assert _spec(spec_window=0).key() != _spec(spec_window=2).key()
        assert _spec(repair=False).key() != _spec(repair=True).key()
        assert _spec(symbolic=False).key() != _spec(symbolic=True).key()

    def test_version_bump_changes_the_key(self, monkeypatch):
        before = _spec().key()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert _spec().key() != before


class TestServingAndInvalidation:
    def test_identical_rerun_is_served_bit_identically(self):
        cache = ResultCache()
        (cold,) = run_check_specs([_spec()], cache=cache)
        assert cache.stats.stores == 1
        (warm,) = run_check_specs([_spec()], cache=cache)
        assert cache.stats.stores == 1  # nothing re-checked
        assert cache.stats.hits == 1
        assert _findings_json(warm) == _findings_json(cold)

    def test_mutated_ir_is_rechecked(self):
        cache = ResultCache()
        run_check_specs([_spec()], cache=cache)
        program = lookup_program(64)[0]
        mutated = dataclasses.replace(
            program,
            body=program.body + (ir.Const("pad", 0),),
        )
        run_check_specs([_spec(program=mutated)], cache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0

    def test_spec_window_change_is_rechecked(self):
        cache = ResultCache()
        run_check_specs([_spec(spec_window=0)], cache=cache)
        run_check_specs([_spec(spec_window=2)], cache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0

    def test_version_bump_is_rechecked(self, monkeypatch):
        cache = ResultCache()
        run_check_specs([_spec()], cache=cache)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        run_check_specs([_spec()], cache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0


class TestDurableSegment:
    """The on-disk half: one durable pickle file per key."""

    def test_verdicts_survive_a_new_cache_instance(self, tmp_path):
        first = ResultCache(str(tmp_path))
        (cold,) = run_check_specs([_spec()], cache=first)
        second = ResultCache(str(tmp_path))
        (warm,) = run_check_specs([_spec()], cache=second)
        assert second.stats.hits == 1
        assert second.stats.stores == 0
        assert _findings_json(warm) == _findings_json(cold)

    def test_clear_removes_the_entry_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"v": 1})
        assert (tmp_path / "k.pkl").exists()
        cache.clear()
        assert not (tmp_path / "k.pkl").exists()
        assert ResultCache(str(tmp_path)).get("k") is None

    def test_memory_cache_needs_no_disk(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.stats.hits == 1 and cache.stats.stores == 1


class TestSharedCache:
    def test_one_directory_serves_runs_and_verdicts(self, tmp_path):
        run_spec = RunSpec("histogram", 200, "insecure")
        check_spec = _spec()
        first = ResultCache(str(tmp_path))
        (run,) = run_many([run_spec], cache=first)
        (verdict,) = run_check_specs([check_spec], cache=first)
        assert first.stats.stores == 2

        reopened = ResultCache(str(tmp_path))
        (served_run,) = run_many([run_spec], cache=reopened)
        (served_verdict,) = run_check_specs([check_spec], cache=reopened)
        assert reopened.stats.hits == 2
        assert reopened.stats.misses == 0
        assert served_run.counters == run.counters
        assert served_run.output == run.output
        assert _findings_json(served_verdict) == _findings_json(verdict)
        assert served_verdict.solver_stats == verdict.solver_stats


class TestCLI:
    def test_warm_pass_reports_zero_rechecked(self, capsys, tmp_path):
        argv = [
            "ctcheck", "--program", "lookup", "--no-workloads",
            "--json", "--vcache", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "1 target(s) checked" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 target(s) checked, 1 served from verdict cache" in warm.err
        assert warm.out == cold.out  # stdout JSON byte-identical
