#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# (optionally) the sanitizer gates. Usage:
#
#   scripts/check.sh            # default build + full ctest
#   scripts/check.sh --asan     # + AddressSanitizer whole-tree build & tests
#   scripts/check.sh --tsan     # + ThreadSanitizer concurrency/durability gate
#   scripts/check.sh --all      # everything
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --all) run_asan=1; run_tsan=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== tier 1: default build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

# perfbench correctness checks, one short run per workload: run.py builds
# perfbench (Release) from this checkout and exits non-zero on a wrong
# answer against the linear-scan reference, a restart-fingerprint mismatch
# or a failed operation. There is no speed gate.
for workload in city_ingest dispatch_reads durable_convoy; do
  echo "== perfbench ${workload}: correctness checks =="
  CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
    --workload "${workload}" --seed 1 --seconds 1
done

# Experiment smoke checks on the default build — one "<label>|<binary>"
# entry per bench. CI's default job relies on this list for its smokes; the
# asan/tsan jobs in .github/workflows/ci.yml smoke their own builds.
smoke_benches=(
  "E16 staged batch ingest|exp_update_throughput"
  "E17 continuous-query matching|exp_continuous_query"
  "E18 shard failure domains|exp_fault_tolerance"
  "E19 paged index storage|exp_paged_index"
  "E20 lock-free index reads|exp_lockfree_reads"
)
for entry in "${smoke_benches[@]}"; do
  label="${entry%%|*}"
  bench="${entry##*|}"
  echo "== ${label} smoke: shape check (${bench}) =="
  "build/bench/${bench}" --smoke
done

if [[ "$run_asan" == 1 ]]; then
  echo "== AddressSanitizer gate =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan -j "$jobs"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== ThreadSanitizer gate (concurrency + durability suites) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan -j "$jobs"
fi

echo "check.sh: all requested suites passed"
