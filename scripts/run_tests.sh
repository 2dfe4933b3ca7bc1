#!/usr/bin/env bash
# Full test gate: a Debug build with ASan+UBSan and a Release build, both
# running the complete ctest suite, then a bounded crash-point sweep
# (~200 points per store) plus a bounded media fault-injection campaign
# (fixed seed, ~100 points per store) as smoke checks that every
# persistent store's recovery invariants and poison-containment contract
# hold, and a bounded schedmc schedule-exploration sweep (PCT + DFS +
# crash composition, linearizability-checked, plus the seeded-fault
# negative run). Intended for CI and for pre-commit runs.
#
# Usage: scripts/run_tests.sh [--tier1] [jobs]
#   --tier1  run only the fast always-on gate (`ctest -L tier1`, Release
#            build only) — the quick pre-push loop; the full run remains
#            the merge gate.
#   jobs     defaults to the machine's core count (or XP_JOBS if set).
#
# When ccache is installed it fronts the compiler automatically, so
# repeated CI runs rebuild only what changed.
set -euo pipefail

cd "$(dirname "$0")/.."

TIER1=0
if [[ "${1:-}" == "--tier1" ]]; then
  TIER1=1
  shift
fi
JOBS="${1:-${XP_JOBS:-$(nproc)}}"

LAUNCHER_ARGS=()
if command -v ccache > /dev/null; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

if [[ "$TIER1" == "1" ]]; then
  echo "== tier1 gate (Release, ctest -L tier1) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      "${LAUNCHER_ARGS[@]}" > /dev/null
  cmake --build build-release -j "$JOBS" > /dev/null
  (cd build-release && ctest -L tier1 --output-on-failure -j "$JOBS")
  echo
  echo "tier1 gate passed."
  exit 0
fi

echo "== Debug + ASan/UBSan =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    "${LAUNCHER_ARGS[@]}" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" > /dev/null
cmake --build build-asan -j "$JOBS" > /dev/null
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo
echo "== Release =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
    "${LAUNCHER_ARGS[@]}" > /dev/null
cmake --build build-release -j "$JOBS" > /dev/null
(cd build-release && ctest --output-on-failure -j "$JOBS")

# The crash, fault and schedule panels (scripts/panels.sh, the commands
# scripts/run_benches.sh records in BENCH_panels.txt): a ~200-point crash
# sweep and a ~100-point media fault campaign per store, and a bounded
# schedule exploration with crash composition.
source scripts/panels.sh
for i in "${!PANELS[@]}"; do
  echo
  echo "== panel: ${PANELS[$i]} =="
  run_panel build-release "$i"
done

echo
echo "== resilience fault smoke (bench_ycsb --faults, ASan/UBSan) =="
# Degraded-mode grid on the replicated sharded frontend: zero silent
# corruptions under the read oracle, degraded throughput within
# 0.6x-1.25x of healthy, the rebuilt shard byte-identical to its
# surviving replica, and replicas=1 result-identity. The binary exits
# non-zero if any resilience gate fails.
build-asan/bench/bench_ycsb --mini --faults --out "$(mktemp)"

echo
echo "== schedmc negative run (seeded lock-elision regression) =="
# The seeded lock-elision regression must be caught (the binary exits
# non-zero if the oracle misses it).
build-release/bench/schedmc_sweep --schedules 60 --dfs 24 --crash 0 --fault

echo
echo "All test gates passed."
