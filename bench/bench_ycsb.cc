// YCSB-style mixed-workload sweep over the four store families and the
// sharded frontend (src/workload/). Writes BENCH_YCSB.json:
//
//  * workloads A-F per family, stock single-shard configuration —
//    the paper's device-level rules under skewed mixed traffic;
//  * lsmkv workload A (update-heavy) at shards=1 vs shards=4 with the
//    fast paths on: per-DIMM sharding + writer lanes (§5.3/§5.4)
//    scaling headline;
//  * lsmkv workload B (95% read) stock vs read-path + sharding: the
//    >= 2x acceptance headline.
//
// Rows carry per-workload simulated kops/s, p50/p99 op latency, the
// run checksum (order-insensitive digest of every op result), interval
// EWR/ERR, and per-shard EWR/ERR read from each shard's own DIMM
// counters (shards are non-interleaved, one DIMM each). All metrics
// are simulated quantities: the grid runs once serially and once with
// --jobs N and the binary exits non-zero if any row differs (the
// workload engine's any-`--jobs` byte-identical contract).
//
// With --faults the binary appends a degraded-mode grid: the same
// replicated frontend measured healthy vs. with one of four shards
// quarantined + poisoned mid-service (online rebuild on the engine's
// background thread), plus a fault-free replicas=1 vs replicas=2
// result-identity check. Gates (exit non-zero on violation): zero
// silent corruptions under the host-side read oracle, degraded
// throughput within 0.6x-1.25x of healthy (a degraded run that beats
// healthy measures an artifact, not resilience), the rebuilt shard
// byte-identical to its surviving replica, and the identity checksums
// equal.
//
// Usage: bench_ycsb [--mini] [--faults] [--jobs N] [--out FILE]
//                   [--host-cores N]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"
#include "telemetry/registry.h"
#include "telemetry/session.h"
#include "workload/engine.h"
#include "workload/shard.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;

struct Cfg {
  workload::StoreKind kind = workload::StoreKind::kLsmkv;
  char wl = 'A';
  unsigned shards = 1;
  unsigned threads = 4;
  bool knobs = false;  // write combining + read path (+ bg lsmkv)
  std::uint64_t records = 600;
  std::uint64_t ops = 1500;
};

struct Row {
  std::string store;
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t checksum = 0;
  std::uint64_t p50 = 0, p99 = 0;  // simulated ps
  double kops = 0;
  double ewr = 0, err = 0;
  std::vector<double> shard_ewr, shard_err;
};

// Bitwise-equal doubles, with NaN == NaN (idle shards report NaN).
bool deq(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool an = std::isnan(a[i]), bn = std::isnan(b[i]);
    if (an != bn || (!an && a[i] != b[i])) return false;
  }
  return true;
}

bool rows_equal(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].store != b[i].store || a[i].name != b[i].name ||
        a[i].ops != b[i].ops || a[i].read_hits != b[i].read_hits ||
        a[i].checksum != b[i].checksum || a[i].p50 != b[i].p50 ||
        a[i].p99 != b[i].p99 || a[i].kops != b[i].kops ||
        a[i].ewr != b[i].ewr || a[i].err != b[i].err ||
        !deq(a[i].shard_ewr, b[i].shard_ewr) ||
        !deq(a[i].shard_err, b[i].shard_err))
      return false;
  }
  return true;
}

// The read benches' regime: LLC below the working set so repeat reads
// actually reach the DIMMs (paper §5.1); used for every YCSB row so
// read-heavy and update-heavy mixes are measured on one platform.
hw::Timing small_llc_timing() {
  hw::Timing tm;
  tm.llc_lines = 512;  // 32 KB
  return tm;
}

workload::StoreTuning tuning_for(const Cfg& c) {
  workload::StoreTuning t;
  t.memtable_bytes = 16 << 10;  // mixed traffic must reach SSTables
  if (c.knobs) {
    t.write_combine = true;
    t.read_path = true;
    t.read_cache_lines = 2048;
    t.background_compaction = c.kind == workload::StoreKind::kLsmkv;
  }
  return t;
}

Row run_point(const Cfg& c) {
  Row r;
  r.store = workload::store_kind_name(c.kind);
  char name[96];
  std::snprintf(name, sizeof name, "%c-s%u-t%u-%s", c.wl, c.shards,
                c.threads, c.knobs ? "knobs" : "stock");
  r.name = name;

  hw::Platform platform(small_llc_timing(), /*seed=*/1);
  const auto shard_ns = workload::ShardedStore::make_namespaces(
      platform, c.shards, 64ull << 20);
  workload::ShardOptions so;
  so.kind = c.kind;
  so.tuning = tuning_for(c);
  workload::ShardedStore store(shard_ns, so);

  workload::Spec spec = workload::ycsb(c.wl);
  spec.records = c.records;
  spec.ops = c.ops;

  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
  store.create(setup);
  workload::load(store, spec, setup);
  // Finish the load before the measured epoch starts: its last accesses
  // and buffered lines retire at the setup thread's clock, so resetting
  // first would make every worker's first op wait for the whole load.
  setup.drain();
  platform.flush_xp_buffers(setup.now());
  platform.reset_timing();

  const auto s0 = telemetry::Snapshot::capture(platform);
  workload::EngineOptions eo;
  eo.threads = c.threads;
  eo.background_thread = so.tuning.background_compaction;
  const workload::Result res = workload::run(store, spec, eo);
  platform.flush_xp_buffers(res.elapsed);
  const telemetry::Delta d = telemetry::Snapshot::capture(platform) - s0;

  r.ops = res.ops;
  r.read_hits = res.read_hits;
  r.checksum = res.checksum;
  r.p50 = res.p50;
  r.p99 = res.p99;
  r.kops = res.kops();
  const hw::XpCounters xc = d.xp_total();
  r.ewr = xc.ewr();
  r.err = xc.err();
  const unsigned channels = platform.timing().channels_per_socket;
  for (unsigned s = 0; s < c.shards; ++s) {
    // Shard s lives alone on DIMM (socket 0, channel s % channels).
    const hw::XpCounters& sc = d.xp[0][s % channels].counters;
    r.shard_ewr.push_back(sc.media_write_bytes == 0 ? std::nan("")
                                                    : sc.ewr());
    r.shard_err.push_back(sc.imc_read_bytes == 0 ? std::nan("") : sc.err());
  }
  return r;
}

void json_rows(std::FILE* f, const std::vector<Row>& rows) {
  auto arr = [&](const std::vector<double>& v) {
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < v.size(); ++i)
      if (std::isnan(v[i]))
        std::fprintf(f, "null%s", i + 1 < v.size() ? "," : "");
      else
        std::fprintf(f, "%.4f%s", v[i], i + 1 < v.size() ? "," : "");
    std::fprintf(f, "]");
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"store\": \"%s\", \"name\": \"%s\", \"ops\": %llu, "
                 "\"checksum\": \"%016llx\", \"kops\": %.2f, "
                 "\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
                 "\"ewr\": %.4f, \"err\": %.4f, \"shard_ewr\": ",
                 r.store.c_str(), r.name.c_str(),
                 static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.checksum), r.kops,
                 sim::to_ns(r.p50), sim::to_ns(r.p99),
                 std::isfinite(r.ewr) ? r.ewr : -1.0,
                 std::isfinite(r.err) ? r.err : -1.0);
    arr(r.shard_ewr);
    std::fprintf(f, ", \"shard_err\": ");
    arr(r.shard_err);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
}

const Row* find_row(const std::vector<Row>& rows, const char* store,
                    const char* name) {
  for (const Row& r : rows)
    if (r.store == store && r.name == name) return &r;
  return nullptr;
}

// ---- --faults: degraded-mode grid and resilience gates ------------------

// Degraded/healthy throughput bounds. Losing one of four shards may cost
// throughput; degraded beating healthy by more than its spread over
// workload seeds means the two rows measure different regimes.
constexpr double kDegradedMin = 0.6;
constexpr double kDegradedMax = 1.25;

struct FaultRow {
  std::string name;
  double kops = 0;
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
  workload::ResilienceStats stats;
  bool healthy_at_end = false;
  bool rebuild_verified = true;  // vacuous on fault-free rows
};

FaultRow run_fault_point(const char* name, bool degraded, unsigned replicas,
                         unsigned threads, std::uint64_t records,
                         std::uint64_t ops) {
  FaultRow row;
  row.name = name;

  hw::Platform platform(small_llc_timing(), /*seed=*/1);
  const auto shard_ns =
      workload::ShardedStore::make_namespaces(platform, 4, 64ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning = tuning_for({.knobs = true});
  so.replicas = replicas;
  workload::ShardedStore store(shard_ns, so);

  workload::Spec spec = workload::ycsb('B');
  spec.records = records;
  spec.ops = ops;

  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
  store.create(setup);
  workload::load(store, spec, setup);
  if (degraded) {
    // One of four failure domains goes bad under live traffic: the shard
    // is pulled from service and its DIMM carries at-rest poison the
    // online rebuild must scrub and heal.
    store.quarantine_shard(setup, 0);
    hw::FaultInjector(platform).poison_live(*shard_ns[0], 16,
                                            /*stride=*/4);
  }
  // As in run_point: finish the setup before the measured epoch starts.
  setup.drain();
  platform.flush_xp_buffers(setup.now());
  platform.reset_timing();

  workload::EngineOptions eo;
  eo.threads = threads;
  eo.background_thread = true;
  eo.validate_reads = true;
  const workload::Result res = workload::run(store, spec, eo);

  row.ops = res.ops;
  row.kops = res.kops();
  row.checksum = res.checksum;
  row.corruptions = res.corruptions;
  row.typed_errors = res.typed_errors;
  row.failovers = res.failovers;
  row.retries = res.retries;

  // Finish any repair still in flight, then audit the outcome.
  sim::ThreadCtx after({.id = 200, .socket = 0, .mlp = 8, .seed = 2});
  for (int turn = 0; turn < 20000 && !store.all_healthy(); ++turn)
    store.background_turn(after);
  store.flush_pending(after);
  row.healthy_at_end = store.all_healthy() && store.check(after).ok();
  row.stats = store.resilience();

  if (degraded && row.healthy_at_end) {
    // The rebuilt store's keyspace must byte-match the surviving copies
    // it was re-silvered from: store 0 hosts logical shard 0 (other copy
    // on store 1) and logical shard 3 (other copy on store 3). Any status
    // other than OK leaves the rebuild unverified.
    std::size_t compared = 0;
    std::vector<std::pair<std::string, std::string>> rebuilt;
    if (!store.shard(0)
             .try_scan(after, "", static_cast<std::size_t>(-1), &rebuilt)
             .ok())
      row.rebuild_verified = false;
    for (const auto& [k, v] : rebuilt) {
      const unsigned s = workload::shard_of(k, 4);
      if (s != 0 && s != 3) {
        row.rebuild_verified = false;  // hosting a shard it doesn't own
        continue;
      }
      std::string other;
      if (!store.shard(s == 0 ? 1 : 3).try_get(after, k, &other).ok() ||
          other != v)
        row.rebuild_verified = false;
      ++compared;
    }
    if (compared == 0) row.rebuild_verified = false;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_YCSB.json";
  bool mini = false;
  bool faults = false;
  unsigned host_cores = std::thread::hardware_concurrency();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--mini") == 0) mini = true;
    if (std::strcmp(argv[i], "--faults") == 0) faults = true;
    if (std::strcmp(argv[i], "--host-cores") == 0 && i + 1 < argc)
      host_cores = static_cast<unsigned>(std::atoi(argv[i + 1]));
  }
  const unsigned jobs = sweep::jobs_from_args(argc, argv);

  benchutil::banner("bench_ycsb",
                    "YCSB A-F over the four stores + sharded frontend");
  benchutil::note("host cores %u, jobs %u%s", host_cores, jobs,
                  mini ? ", mini" : "");

  // Working sets sized past the 32 KB LLC and the aggregate XPBuffer so
  // the stock read path pays media loads (the regime §5.1 targets).
  const std::uint64_t recs = mini ? 1200 : 2000;
  const std::uint64_t ops = mini ? 2000 : 4000;

  sweep::Grid<Cfg> grid;
  // Stock single-shard A-F per family (lsmkv-only in mini runs; the
  // other families ride in the full grid and the differential oracle).
  const auto families =
      mini ? std::vector<workload::StoreKind>{workload::StoreKind::kLsmkv}
           : std::vector<workload::StoreKind>{
                 workload::StoreKind::kLsmkv, workload::StoreKind::kCmap,
                 workload::StoreKind::kStree, workload::StoreKind::kNova};
  const auto workloads = mini ? std::vector<char>{'A', 'B'}
                              : std::vector<char>{'A', 'B', 'C',
                                                  'D', 'E', 'F'};
  for (workload::StoreKind k : families)
    for (char wl : workloads)
      grid.add({.kind = k, .wl = wl, .records = recs, .ops = ops});

  // Headline rows (always present — CI gates on them).
  // 1) update-heavy scaling: A, knobs on, 8 threads, shards 1 vs 4.
  for (unsigned shards : {1u, 4u})
    grid.add({.kind = workload::StoreKind::kLsmkv, .wl = 'A',
              .shards = shards, .threads = 8, .knobs = true,
              .records = recs, .ops = ops});
  // 2) 95%-read speedup: B stock single shard vs read-path + 4 shards.
  grid.add({.kind = workload::StoreKind::kLsmkv, .wl = 'B', .shards = 1,
            .threads = 8, .knobs = false, .records = recs, .ops = ops});
  grid.add({.kind = workload::StoreKind::kLsmkv, .wl = 'B', .shards = 4,
            .threads = 8, .knobs = true, .records = recs, .ops = ops});

  sweep::Pool serial(1);
  sweep::Pool parallel(jobs);
  const auto rows = sweep::run_points(serial, grid, run_point);
  const auto rows_par = sweep::run_points(parallel, grid, run_point);
  const bool identical = rows_equal(rows, rows_par);

  benchutil::row("%-26s %10s %10s %10s %8s", "point", "kops/s", "p50 ns",
                 "p99 ns", "EWR");
  for (const Row& r : rows)
    benchutil::row("%-26s %10.1f %10.1f %10.1f %8.3f",
                   (r.store + "/" + r.name).c_str(), r.kops,
                   sim::to_ns(r.p50), sim::to_ns(r.p99), r.ewr);
  benchutil::row("");
  benchutil::row("determinism (--jobs 1 vs --jobs %u): %s", jobs,
                 identical ? "identical" : "MISMATCH");

  const Row* a1 = find_row(rows, "lsmkv", "A-s1-t8-knobs");
  const Row* a4 = find_row(rows, "lsmkv", "A-s4-t8-knobs");
  const double scaling =
      (a1 != nullptr && a4 != nullptr && a1->kops > 0) ? a4->kops / a1->kops
                                                       : 0;
  if (a1 != nullptr && a4 != nullptr)
    benchutil::row("workload A shards 4 vs 1 (update-heavy): %.2fx", scaling);

  const Row* b_stock = find_row(rows, "lsmkv", "B-s1-t8-stock");
  const Row* b_fast = find_row(rows, "lsmkv", "B-s4-t8-knobs");
  const double b_speedup =
      (b_stock != nullptr && b_fast != nullptr && b_stock->kops > 0)
          ? b_fast->kops / b_stock->kops
          : 0;
  if (b_stock != nullptr && b_fast != nullptr)
    benchutil::row("workload B read-path + sharding vs stock: %.2fx",
                   b_speedup);

  // ---- --faults: degraded-mode grid + resilience gates ------------------
  bool fault_gates_ok = true;
  std::vector<FaultRow> fault_rows;
  double degraded_ratio = 0;
  bool identity_ok = true;
  if (faults) {
    const std::uint64_t frecs = mini ? 800 : 2000;
    const std::uint64_t fops = mini ? 1600 : 4000;
    fault_rows.push_back(run_fault_point("B-r2-healthy", /*degraded=*/false,
                                         /*replicas=*/2, 8, frecs, fops));
    fault_rows.push_back(run_fault_point("B-r2-degraded", /*degraded=*/true,
                                         /*replicas=*/2, 8, frecs, fops));
    // Replication result-identity: fault-free, single worker (so the op
    // interleaving is a pure function of program order), replicas=1 and
    // replicas=2 must observe byte-identical results.
    fault_rows.push_back(run_fault_point("B-r1-identity", false, 1, 1,
                                         mini ? 300 : 600, mini ? 600 : 1200));
    fault_rows.push_back(run_fault_point("B-r2-identity", false, 2, 1,
                                         mini ? 300 : 600, mini ? 600 : 1200));
    // Bind references only once the vector is final: push_back may
    // reallocate and would leave earlier references dangling.
    const FaultRow& healthy = fault_rows[0];
    const FaultRow& degraded = fault_rows[1];
    degraded_ratio =
        healthy.kops > 0 ? degraded.kops / healthy.kops : 0;
    identity_ok = fault_rows[2].checksum == fault_rows[3].checksum;

    benchutil::row("");
    benchutil::row("%-18s %10s %8s %8s %8s %8s %8s", "fault point",
                   "kops/s", "corrupt", "typed", "failover", "resilver",
                   "healthy");
    for (const FaultRow& r : fault_rows)
      benchutil::row("%-18s %10.1f %8llu %8llu %8llu %8llu %8s",
                     r.name.c_str(), r.kops,
                     static_cast<unsigned long long>(r.corruptions),
                     static_cast<unsigned long long>(r.typed_errors),
                     static_cast<unsigned long long>(r.failovers),
                     static_cast<unsigned long long>(r.stats.keys_resilvered),
                     r.healthy_at_end ? "yes" : "NO");
    benchutil::row("degraded/healthy throughput: %.2fx (gate %.2fx-%.2fx)",
                   degraded_ratio, kDegradedMin, kDegradedMax);
    benchutil::row("replicas=1 vs replicas=2 identity: %s",
                   identity_ok ? "identical" : "MISMATCH");

    for (const FaultRow& r : fault_rows) {
      if (r.corruptions != 0) {
        benchutil::row("GATE: %s saw %llu silent corruptions", r.name.c_str(),
                       static_cast<unsigned long long>(r.corruptions));
        fault_gates_ok = false;
      }
      if (!r.healthy_at_end || !r.rebuild_verified) {
        benchutil::row("GATE: %s did not return to verified health",
                       r.name.c_str());
        fault_gates_ok = false;
      }
    }
    if (degraded.stats.keys_lost != 0) {
      benchutil::row("GATE: degraded run lost %llu acked keys",
                     static_cast<unsigned long long>(
                         degraded.stats.keys_lost));
      fault_gates_ok = false;
    }
    if (degraded_ratio < kDegradedMin || degraded_ratio > kDegradedMax) {
      benchutil::row("GATE: degraded throughput outside %.2fx-%.2fx healthy",
                     kDegradedMin, kDegradedMax);
      fault_gates_ok = false;
    }
    if (degraded.failovers == 0 || degraded.stats.keys_resilvered == 0) {
      benchutil::row("GATE: degraded run never exercised failover/rebuild");
      fault_gates_ok = false;
    }
    if (!identity_ok) fault_gates_ok = false;
  }

  // One instrumented sharded run's telemetry summary rides along: the
  // per-DIMM (= per-shard) EWR/ERR timelines under workload A.
  std::string summary;
  {
    hw::Platform platform(small_llc_timing(), /*seed=*/1);
    telemetry::Options topt;
    topt.sample_interval = sim::ms(1);
    telemetry::Session tel(platform, topt);
    const auto shard_ns =
        workload::ShardedStore::make_namespaces(platform, 4, 64ull << 20);
    workload::ShardOptions so;
    so.kind = workload::StoreKind::kLsmkv;
    so.tuning = tuning_for({.knobs = true});
    workload::ShardedStore store(shard_ns, so);
    workload::Spec spec = workload::ycsb('A');
    spec.records = mini ? 300 : 500;
    spec.ops = mini ? 600 : 1000;
    sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
    store.create(setup);
    workload::load(store, spec, setup);
    workload::EngineOptions eo;
    eo.threads = 4;
    eo.background_thread = true;
    workload::run(store, spec, eo);
    tel.finish();
    summary = tel.summary_json();
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"ycsb\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"jobs\": %u,\n", jobs);
  std::fprintf(f, "  \"mini\": %s,\n", mini ? "true" : "false");
  std::fprintf(f, "  \"deterministic\": %s,\n", identical ? "true" : "false");
  std::fprintf(f,
               "  \"headline\": {\"ycsb_update_scaling\": %.3f, "
               "\"lsmkv_b_speedup\": %.3f},\n",
               scaling, b_speedup);
  std::fprintf(f, "  \"rows\": [\n");
  json_rows(f, rows);
  std::fprintf(f, "  ],\n");
  if (faults) {
    std::fprintf(f,
                 "  \"resilience\": {\"gates_ok\": %s, "
                 "\"degraded_ratio\": %.3f, \"identity_ok\": %s, "
                 "\"fault_rows\": [\n",
                 fault_gates_ok ? "true" : "false", degraded_ratio,
                 identity_ok ? "true" : "false");
    for (std::size_t i = 0; i < fault_rows.size(); ++i) {
      const FaultRow& r = fault_rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"kops\": %.2f, \"checksum\": \"%016llx\", "
          "\"corruptions\": %llu, \"typed_errors\": %llu, "
          "\"failovers\": %llu, \"retries\": %llu, "
          "\"keys_resilvered\": %llu, \"keys_lost\": %llu, "
          "\"lines_healed\": %llu, \"recovered\": %llu, "
          "\"healthy_at_end\": %s, \"rebuild_verified\": %s}%s\n",
          r.name.c_str(), r.kops,
          static_cast<unsigned long long>(r.checksum),
          static_cast<unsigned long long>(r.corruptions),
          static_cast<unsigned long long>(r.typed_errors),
          static_cast<unsigned long long>(r.failovers),
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.stats.keys_resilvered),
          static_cast<unsigned long long>(r.stats.keys_lost),
          static_cast<unsigned long long>(r.stats.lines_healed),
          static_cast<unsigned long long>(r.stats.recovered),
          r.healthy_at_end ? "true" : "false",
          r.rebuild_verified ? "true" : "false",
          i + 1 < fault_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
  }
  std::fprintf(f, "  \"telemetry_summary\": %s\n", summary.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  benchutil::row("");
  benchutil::note("wrote %s", out_path);

  return identical && fault_gates_ok ? 0 : 1;
}
