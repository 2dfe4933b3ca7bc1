// Tests of the benchmark itself: determinism at a fixed seed, seed
// sensitivity, the traced run's timing neutrality, the failed-op count,
// the regime guard and the percentile rule. Exits non-zero on failure.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <cstdio>
#include <functional>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;
using namespace xp;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

// A kv-update mix small enough for a unit test.
KvConfig small_update(std::uint64_t seed) {
  KvConfig cfg = kv_config(Workload::kKvUpdate, seed);
  cfg.spec.records = 2000;
  cfg.spec.ops = 4000;
  return cfg;
}

void same_seed_repeats() {
  const KvRun a = run_kv(small_update(7), false);
  const KvRun b = run_kv(small_update(7), false);
  expect(same_sim(a.sim, b.sim), "same seed: identical simulated results");
  expect(a.sim.res.checksum == b.sim.res.checksum, "same seed: same checksum");
  expect(a.check.ok(), "check() passes");
  expect(a.sim.drained, "background debt drains");
}

void seed_changes_checksum() {
  const KvRun a = run_kv(small_update(7), false);
  const KvRun b = run_kv(small_update(8), false);
  expect(a.sim.res.checksum != b.sim.res.checksum,
         "different seed: different checksum");
}

void traced_run_is_timing_neutral() {
  for (Workload w : {Workload::kKvUpdate, Workload::kKvScan}) {
    KvConfig cfg = kv_config(w, 3);
    cfg.spec.records = 1000;
    cfg.spec.ops = 600;
    const KvRun bare = run_kv(cfg, false);
    const KvRun traced = run_kv(cfg, true);
    expect(same_sim(bare.sim, traced.sim),
           "traced run: identical simulated results and checksum");
    expect(traced.sim.res.corruptions == 0, "traced run: no corruptions");
    expect(traced.spans.has_value(), "traced run: spans recorded");
    const TracedStore::Spans& s = *traced.spans;
    expect(s.get.calls() + s.put.calls() + s.scan.calls() ==
               traced.sim.res.ops,
           "traced run: one span per op");
  }
  const DeviceRun bare = run_device(5, false);
  const DeviceRun traced = run_device(5, true);
  expect(same_sim(bare, traced), "traced device run: identical results");
  expect(traced.persist[static_cast<unsigned>(hw::PersistEventKind::kSfence)] >
             0,
         "traced device run: the session counted fences");
}

void failed_ops_count_typed_errors() {
  // Reads routed to a quarantined shard end in kUnavailable when there is
  // no replica to fail over to and no retry may donate a rebuild step.
  hw::Timing tm;
  tm.llc_lines = 512;
  hw::Platform platform(tm, 1);
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 16ull << 20);
  workload::ShardOptions so;
  so.max_retries = 0;
  workload::ShardedStore store(ns, so);
  workload::Spec spec = workload::ycsb('C');
  spec.records = 400;
  spec.ops = 400;
  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
  store.create(setup);
  workload::load(store, spec, setup);
  store.quarantine_shard(setup, 0);
  platform.reset_timing();

  TracedStore traced(store);
  workload::EngineOptions eo;
  eo.threads = 2;
  const workload::Result res = workload::run(traced, spec, eo);
  expect(res.typed_errors > 0, "quarantined shard: typed read errors");
  expect(failed_ops(res) == res.typed_errors + res.corruptions,
         "failed_ops counts typed errors and corruptions");
  expect(failed_ops(res) < res.ops, "healthy shards still serve");
}

void regime_guard() {
  expect(regime_ok(regime(kv_config(Workload::kKvRead, 1))),
         "kv-read is in the paper's regime");
  KvConfig shrunk = kv_config(Workload::kKvRead, 1);
  shrunk.spec.records = 2000;  // bench_ycsb's size: the read cache holds it
  expect(!regime_ok(regime(shrunk)), "a shrunken kv-read fails the guard");
}

void percentile_rule() {
  auto samples = [](std::size_t n) {
    std::vector<sim::Time> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = (i + 1) * sim::kMicrosecond;
    return v;
  };
  const Percentile big = tail(samples(20000));
  expect(big.valid && big.q == 0.999, "20000 samples: tail is p99.9");
  expect(big.us == 19980, "p99.9 is the nearest-rank sample");
  const Percentile mid = tail(samples(5000));
  expect(mid.valid && mid.q == 0.99, "5000 samples: tail is p99");
  expect(!tail(samples(500)).valid, "500 samples: no tail");
  expect(p50(samples(9)).us == 5, "p50 of 1..9 is 5");
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"same_seed_repeats", same_seed_repeats},
      {"seed_changes_checksum", seed_changes_checksum},
      {"traced_run_is_timing_neutral", traced_run_is_timing_neutral},
      {"failed_ops_count_typed_errors", failed_ops_count_typed_errors},
      {"regime_guard", regime_guard},
      {"percentile_rule", percentile_rule},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  return g_failures == 0 ? 0 : 1;
}
