"""Failure paths of the experiment engine's result cache.

An unreadable cache entry is a miss: the spec is recomputed and the
entry rewritten, so one damaged file never poisons a sweep.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.parallel import ResultCache, RunSpec, run_many


class TestCorruptCache:
    def test_corrupt_pkl_entry_is_recomputed_and_rewritten(self, tmp_path):
        cache = ResultCache(str(tmp_path / "results"))
        spec = RunSpec("histogram", 200, "insecure")
        (first,) = run_many([spec], cache=cache)
        path = cache._file_for(spec.key())
        with open(path, "wb") as fh:
            fh.write(b"corrupt garbage, definitely not a pickle")
        with open(path, "rb") as fh:
            with pytest.raises(Exception):
                pickle.load(fh)
        # a fresh cache over the same directory treats it as a miss,
        # recomputes, and *rewrites* the entry
        again = ResultCache(cache.path)
        (recomputed,) = run_many([spec], cache=again)
        assert again.stats.misses == 1
        assert again.stats.stores == 1
        assert recomputed.counters == first.counters
        with open(path, "rb") as fh:
            restored = pickle.load(fh)  # valid pickle again
        assert restored.counters == first.counters
