#!/usr/bin/env bash
# The one-command CI gate: everything a PR must pass, in the order
# that fails fastest.
#   1. style lint (ruff, when installed; config in pyproject.toml)
#   2. tier-1 test suite (pytest tests/)
#   3. the domain lint: `python -m repro ctcheck --all --jobs 2` — the
#      constant-time checker over every built-in IR program and every
#      workload's registered DS linearization sets (exits 1 on
#      error-severity findings), mapped across two worker processes and
#      populating the shared result cache (`--vcache DIR`, the same
#      ResultCache the experiment engine uses); a second warm pass must
#      then serve every target from that cache (re-checking anything
#      means the content-addressed keys or the cache round-trip
#      regressed)
#   4. the symbolic relational smoke (scripts/symrel_smoke.py):
#      every builtin's native variant must be refuted with a
#      replay-confirmed secret pair (or, for the speculative fixture,
#      refuted only by the speculative pass) and every mitigated
#      variant proved
#   5. the automatic repair smoke (scripts/repair_smoke.py): every
#      leaky builtin must auto-repair to CT-PROVED within the 1.5x
#      overhead budget — a residual CT-REL exits nonzero
#   6. a perf sanity pass: `python -m repro bench --repeats 1` (single
#      repeat — a smoke that the measured hot paths still run, not a
#      stable throughput number; scripts/bench.sh records those)
#   7. the software-CT sweep smoke: `python3 perfbench/run.py --workload
#      ct-sweep --seconds 1` — an exit-status check only: every Table-2
#      output at the large-DS points must equal the workload's
#      reference() and the simulated counters must repeat exactly
#      across passes; the timings it prints are not checked
#   8. the paper-regeneration smoke: `python3 perfbench/run.py
#      --workload paper-regen --seconds 1` — an exit-status check only:
#      every Table-2 output must equal the workload's reference(), the
#      ciphers must agree across schemes and the simulated counters
#      must repeat exactly across passes; timings are not checked
#   9. the constant-time gate smoke: `python3 perfbench/run.py
#      --workload ctcheck-gate --seconds 1` — an exit-status check
#      only: every built-in's leaky native must be refuted and its
#      mitigated and repaired variants proved, every workload DS audit
#      must be clean, and the findings must repeat exactly across
#      passes; timings are not checked
#
# Usage: scripts/ci.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping style lint"
fi

echo "== tier-1 tests (pytest tests/)"
python -m pytest tests/ -q "$@"

echo "== constant-time check (python -m repro ctcheck --all --jobs 2)"
VCACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$VCACHE_DIR"' EXIT
python -m repro ctcheck --all --jobs 2 --vcache "$VCACHE_DIR"

echo "== ctcheck warm verdict-cache pass (must re-check nothing)"
warm_err="$(python -m repro ctcheck --all --vcache "$VCACHE_DIR" 2>&1 >/dev/null)"
echo "$warm_err"
grep -q "0 target(s) checked" <<<"$warm_err"

echo "== symbolic relational smoke (scripts/symrel_smoke.py)"
python scripts/symrel_smoke.py

echo "== automatic repair smoke (scripts/repair_smoke.py)"
python scripts/repair_smoke.py

echo "== perf smoke (python -m repro bench --repeats 1)"
python -m repro bench --repeats 1

echo "== software-CT sweep smoke (perfbench/run.py --workload ct-sweep)"
python3 perfbench/run.py --workload ct-sweep --seconds 1

echo "== paper-regeneration smoke (perfbench/run.py --workload paper-regen)"
python3 perfbench/run.py --workload paper-regen --seconds 1

echo "== constant-time gate smoke (perfbench/run.py --workload ctcheck-gate)"
python3 perfbench/run.py --workload ctcheck-gate --seconds 1

echo "== CI gate passed"
