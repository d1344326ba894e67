#!/usr/bin/env bash
# One-stop pre-merge check: the tier-1 configure/build/ctest cycle, every
# gate of scripts/gates.json (the one table of pass/fail rules for the bench
# artifacts and the bench/expected/ CSV pins, evaluated by
# `scripts/bench_diff.py --gate`, which runs the benches the table names from
# build/), then the fully instrumented ASan+UBSan preset and a TSan pass over
# the buffer/scheduler/parallel tests. Run from anywhere; the build trees
# live under the repo root (build/, build-asan/, build-tsan/).
#
#   scripts/check.sh            # tier-1 + every gate + sanitizers
#   scripts/check.sh --tier1    # tier-1 + the steady-state allocation gate
#   scripts/check.sh --tsan     # the TSan pass alone (CI's tsan job)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || echo 4)"

# Scheduler capture blocks, the shared HELLO payload slab and the shard
# mailboxes all meet shard threads in these tests.
tsan_pass() {
  echo "== tsan: buffer + scheduler + parallel + lifecycle tests (build-tsan/) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
    --target buffer_test sim_test net_test util_test overload_damping_test \
             parallel_engine_test lifecycle_test \
             scheduler_property_test buffer_backpressure_test \
             wcmp_flowlet_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" ctest --test-dir build-tsan \
    -R '^(buffer_test|sim_test|net_test|util_test|overload_damping_test|parallel_engine_test|lifecycle_test|scheduler_property_test|buffer_backpressure_test|wcmp_flowlet_test)$' \
    --output-on-failure -j "$jobs"
}

if [[ "${1:-}" == "--tsan" ]]; then
  tsan_pass
  echo
  echo "TSan pass passed."
  exit 0
fi

tier1_only=false
[[ "${1:-}" == "--tier1" ]] && tier1_only=true

echo "== tier-1: configure + build + ctest (build/) =="
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

echo
if $tier1_only; then
  echo "== steady-state allocation gate (scripts/gates.json alloc.*) =="
  python3 scripts/bench_diff.py --gate alloc.
else
  echo "== every gate of scripts/gates.json =="
  python3 scripts/bench_diff.py --gate

  echo
  echo "== asan-ubsan: whole tree instrumented (build-asan/) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$jobs"
  ctest --preset asan-ubsan -j "$jobs"

  echo
  tsan_pass
fi

echo
echo "All checks passed."
