#!/usr/bin/env bash
# Build Release, run the self-measurement harnesses (bench_timing writes
# BENCH_sweep.json, bench_stores writes BENCH_stores.json, bench_ycsb
# writes BENCH_YCSB.json), hash the output of every figure and ablation
# bench into BENCH_figs.sha256, record the repository benchmark's
# simulated metrics (perfbench, every workload at seed 1 for one second)
# in BENCH_perfbench_sim.txt and the crash/fault/schedule panel tables in
# BENCH_panels.txt, and guard the sweep engine's determinism
# contract: every converted figure bench must print byte-identical
# tables with --jobs 1 and --jobs N. Intended for CI and for refreshing
# the committed baselines.
#
# Usage: scripts/run_benches.sh [--check] [jobs]
#   --check  write the baselines to a temp dir instead of the repo root,
#            and fail if the new BENCH_stores.json or BENCH_YCSB.json
#            differs from the tracked copy in anything but its host_cores
#            and jobs lines, or if any line of BENCH_figs.sha256,
#            BENCH_perfbench_sim.txt or BENCH_panels.txt differs. All of
#            them are simulated quantities, so every change to them must
#            be re-recorded.
#            BENCH_sweep.json holds host timings and is not compared.
#   jobs     defaults to the machine's core count (or XP_JOBS if set).
set -euo pipefail

cd "$(dirname "$0")/.."
CHECK=0
if [ "${1:-}" = "--check" ]; then
  CHECK=1
  shift
fi
JOBS="${1:-${XP_JOBS:-$(nproc)}}"
# std::thread::hardware_concurrency() under-reports in containers; pass
# the real core count so the JSON headers record the actual machine.
CORES="$(nproc)"
BUILD=build-release
OUT=.
if [ "$CHECK" = 1 ]; then
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
fi

# Every figure and ablation bench; each prints its table to stdout.
FIGS=(fig02_idle_latency fig03_tail_latency fig04_bw_threads
      fig05_bw_access_size fig06_latency_under_load fig07_emulation
      fig08_rocksdb fig09_ewr_correlation fig10_xpbuffer_capacity
      fig12_fileio_latency fig13_persist_instructions fig14_sfence_interval
      fig15_microbuffering fig16_imc_contention fig17_multidimm_nova
      fig18_numa_mix fig19_pmemkv_numa abl_xpbuffer_size abl_wpq_credit
      abl_stream_trackers abl_memory_mode abl_eadr)

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target \
    bench_timing bench_stores bench_ycsb crashmc_sweep schedmc_sweep \
    "${FIGS[@]}" > /dev/null

echo "== bench_timing (jobs=$JOBS) =="
"$BUILD/bench/bench_timing" --jobs "$JOBS" --host-cores "$CORES" \
    --out "$OUT/BENCH_sweep.json"

echo
echo "== bench_stores (jobs=$JOBS) =="
# Write-combining grid plus the §5.1 read grid (stock vs combined point
# reads per store and the lsmkv read-cache capacity sweep). Exits
# non-zero if its serial vs parallel grids diverge (determinism).
"$BUILD/bench/bench_stores" --jobs "$JOBS" --host-cores "$CORES" \
    --out "$OUT/BENCH_stores.json"

echo
echo "== bench_ycsb (jobs=$JOBS) =="
# YCSB A-F over all four stores plus the sharded per-DIMM frontend, and
# the --faults degraded-mode grid (healthy vs one-of-four shards
# quarantined under replication, plus the replicas=1 identity check).
# Exits non-zero if its serial vs parallel grids diverge (the engine's
# byte-identical-at-any---jobs contract) or a resilience gate fails.
"$BUILD/bench/bench_ycsb" --faults --jobs "$JOBS" --host-cores "$CORES" \
    --out "$OUT/BENCH_YCSB.json"

# Figure outputs: one sha256 of each bench's stdout. The converted benches
# take XP_JOBS; the rest run serially and ignore it.
echo
echo "== figure outputs (jobs=$JOBS) =="
: > "$OUT/BENCH_figs.sha256"
for fig in "${FIGS[@]}"; do
  sum=$(XP_JOBS="$JOBS" "$BUILD/bench/$fig" | sha256sum | cut -d' ' -f1)
  echo "$sum  $fig" >> "$OUT/BENCH_figs.sha256"
done
echo "  ${#FIGS[@]} outputs hashed"

# Repository benchmark: sim_kops and media_write_amp repeat bit for bit
# across runs, so one second of each workload pins them (repr() keeps
# every bit). Its host metrics (host_kops, setup_s, peak_rss_mb) are not
# recorded. perfbench builds its own tree under .bench_build/.
echo
echo "== perfbench simulated metrics (seed 1, 1 s) =="
: > "$OUT/BENCH_perfbench_sim.txt"
for w in kv-update kv-read kv-scan device-calib; do
  if ! result=$(python3 perfbench/run.py --workload "$w" --seed 1 \
                    --seconds 1 --trace 0 2> /dev/null | tail -1); then
    echo "  perfbench $w: build failed or run incorrect"
    exit 1
  fi
  python3 -c '
import json, sys
m = json.loads(sys.argv[2])["metrics"]
for k in ("sim_kops", "media_write_amp"):
    print(sys.argv[1], k, repr(m[k]["value"]))' "$w" "$result" \
      >> "$OUT/BENCH_perfbench_sim.txt"
done
echo "  $(wc -l < "$OUT/BENCH_perfbench_sim.txt") values recorded"

# Crash, fault and schedule panels: the three sweeps scripts/run_tests.sh
# runs, defined once in scripts/panels.sh. Each table's host-speed column
# (points/sec, sched/s) is dropped; every other column is a simulated
# count that repeats exactly. A panel with a violation exits non-zero,
# which fails this script.
echo
echo "== crash/fault/schedule panels =="
source scripts/panels.sh
run_panels "$BUILD" | awk '{
  for (i = 1; i <= NF; ++i)
    if ($i == "points/sec" || $i == "sched/s") { col = i; width = NF }
  if (col && NF == width && $1 !~ /^#/) {
    line = $1
    for (i = 2; i <= NF; ++i) if (i != col) line = line " " $i
    $0 = line
  }
  print
}' > "$OUT/BENCH_panels.txt"
echo "  $(wc -l < "$OUT/BENCH_panels.txt") lines recorded"

# Determinism guard: byte-identical tables regardless of job count. The
# quick benches run their full sweeps; the long ones are already covered
# point-for-point by bench_timing's identical-results check above.
echo
echo "== determinism: --jobs 1 vs --jobs $JOBS =="
status=0
for bench in fig02_idle_latency fig13_persist_instructions \
             fig14_sfence_interval fig16_imc_contention; do
  a=$(mktemp) b=$(mktemp)
  "$BUILD/bench/$bench" --jobs 1       > "$a"
  "$BUILD/bench/$bench" --jobs "$JOBS" > "$b"
  if diff -q "$a" "$b" > /dev/null; then
    echo "  $bench: identical"
  else
    echo "  $bench: MISMATCH"
    diff "$a" "$b" | head -20
    status=1
  fi
  rm -f "$a" "$b"
done

# Golden-trace guard: the per-point Chrome-trace files a traced sweep
# writes must be byte-identical at --jobs 1 and --jobs N (point indices
# name the files, so the file set is job-count-invariant too).
echo
echo "== golden traces: fig13 --trace, --jobs 1 vs --jobs $JOBS =="
t1=$(mktemp -d) tn=$(mktemp -d)
"$BUILD/bench/fig13_persist_instructions" --jobs 1 \
    --trace "$t1/trace.json" > /dev/null
"$BUILD/bench/fig13_persist_instructions" --jobs "$JOBS" \
    --trace "$tn/trace.json" > /dev/null
if diff -rq "$t1" "$tn" > /dev/null; then
  echo "  traces: identical ($(ls "$t1" | wc -l) files)"
else
  echo "  traces: MISMATCH"
  diff -rq "$t1" "$tn" | head -10
  status=1
fi
rm -rf "$t1" "$tn"

if [ "$CHECK" = 1 ]; then
  echo
  echo "== check: simulated BENCH files vs the tracked copies =="
  # Each file with what its difference means. The host_cores/jobs lines
  # (only the JSON files have them) are not compared.
  host_lines='^  "(host_cores|jobs)": '
  for entry in \
      "BENCH_stores.json|re-record it with scripts/run_benches.sh" \
      "BENCH_YCSB.json|re-record it with scripts/run_benches.sh" \
      "BENCH_figs.sha256|a figure output changed" \
      "BENCH_perfbench_sim.txt|a simulated perfbench metric moved" \
      "BENCH_panels.txt|a crash/fault/schedule panel count moved"; do
    f="${entry%%|*}"
    if diff <(grep -Ev "$host_lines" "$f") \
            <(grep -Ev "$host_lines" "$OUT/$f") > /dev/null; then
      echo "  $f: matches"
    else
      echo "  $f: DIFFERS (${entry#*|})"
      diff <(grep -Ev "$host_lines" "$f") \
           <(grep -Ev "$host_lines" "$OUT/$f") | head -50 || true
      status=1
    fi
  done
fi
exit $status
