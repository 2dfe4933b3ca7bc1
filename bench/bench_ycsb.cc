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
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"
#include "telemetry/registry.h"
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
  std::vector<std::optional<double>> shard_ewr, shard_err;  // idle: empty

  bool operator==(const Row&) const = default;

  void json(std::FILE* f) const {
    std::fprintf(f,
                 "{\"store\": \"%s\", \"name\": \"%s\", \"ops\": %llu, "
                 "\"checksum\": \"%016llx\", \"kops\": %.2f, "
                 "\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
                 "\"ewr\": %.4f, \"err\": %.4f, \"shard_ewr\": ",
                 store.c_str(), name.c_str(),
                 static_cast<unsigned long long>(ops),
                 static_cast<unsigned long long>(checksum), kops,
                 sim::to_ns(p50), sim::to_ns(p99),
                 std::isfinite(ewr) ? ewr : -1.0,
                 std::isfinite(err) ? err : -1.0);
    benchutil::json_numbers(f, shard_ewr);
    std::fprintf(f, ", \"shard_err\": ");
    benchutil::json_numbers(f, shard_err);
    std::fprintf(f, "}");
  }
};

// Every switch is set from `c.knobs`, so a `-stock` row stays knobs-off
// whatever the library defaults are.
workload::StoreTuning tuning_for(const Cfg& c) {
  workload::StoreTuning t;
  t.memtable_bytes = 16 << 10;  // mixed traffic must reach SSTables
  t.write_combine = c.knobs;
  t.read_path = c.knobs;
  t.read_cache_lines = 2048;
  t.background_compaction = c.knobs && c.kind == workload::StoreKind::kLsmkv;
  return t;
}

// The setup every run here shares: `shards` namespaces of 64 MiB on
// `platform`, a sharded store of `kind` over them, created and loaded
// with the records of YCSB workload `wl` by the setup thread. Each
// caller takes its own steps between the load and the measured run.
struct LoadedStore {
  LoadedStore(hw::Platform& platform, workload::StoreKind kind,
              unsigned shards, const workload::StoreTuning& tuning,
              unsigned replicas, char wl, std::uint64_t records,
              std::uint64_t ops)
      : shard_ns(workload::ShardedStore::make_namespaces(platform, shards,
                                                         64ull << 20)),
        store(shard_ns,
              {.kind = kind, .tuning = tuning, .replicas = replicas}),
        spec(workload::ycsb(wl)) {
    spec.records = records;
    spec.ops = ops;
    store.create(setup);
    workload::load(store, spec, setup);
  }

  std::vector<hw::PmemNamespace*> shard_ns;
  workload::ShardedStore store;
  workload::Spec spec;
  sim::ThreadCtx setup{{.id = 100, .socket = 0, .mlp = 8, .seed = 1}};
};

Row run_point(const Cfg& c) {
  Row r;
  r.store = workload::store_kind_name(c.kind);
  char name[96];
  std::snprintf(name, sizeof name, "%c-s%u-t%u-%s", c.wl, c.shards,
                c.threads, c.knobs ? "knobs" : "stock");
  r.name = name;

  // Every row runs in the §5.1 read regime, so read-heavy and
  // update-heavy mixes are measured on one platform.
  hw::Platform platform(benchutil::small_llc_timing(), /*seed=*/1);
  const workload::StoreTuning tuning = tuning_for(c);
  LoadedStore loaded(platform, c.kind, c.shards, tuning, /*replicas=*/1,
                     c.wl, c.records, c.ops);
  // Finish the load before the measured epoch starts: its last accesses
  // and buffered lines retire at the setup thread's clock, so resetting
  // first would make every worker's first op wait for the whole load.
  loaded.setup.drain();
  platform.flush_xp_buffers(loaded.setup.now());
  platform.reset_timing();

  const auto s0 = telemetry::Snapshot::capture(platform);
  workload::EngineOptions eo;
  eo.threads = c.threads;
  eo.background_thread = tuning.background_compaction;
  const workload::Result res = workload::run(loaded.store, loaded.spec, eo);
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
    r.shard_ewr.push_back(sc.media_write_bytes == 0 ? std::nullopt
                                                    : std::optional(sc.ewr()));
    r.shard_err.push_back(sc.imc_read_bytes == 0 ? std::nullopt
                                                 : std::optional(sc.err()));
  }
  return r;
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

  void json(std::FILE* f) const {
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"kops\": %.2f, \"checksum\": \"%016llx\", "
        "\"corruptions\": %llu, \"typed_errors\": %llu, "
        "\"failovers\": %llu, \"retries\": %llu, "
        "\"keys_resilvered\": %llu, \"keys_lost\": %llu, "
        "\"lines_healed\": %llu, \"recovered\": %llu, "
        "\"healthy_at_end\": %s, \"rebuild_verified\": %s}",
        name.c_str(), kops, static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(corruptions),
        static_cast<unsigned long long>(typed_errors),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(stats.keys_resilvered),
        static_cast<unsigned long long>(stats.keys_lost),
        static_cast<unsigned long long>(stats.lines_healed),
        static_cast<unsigned long long>(stats.recovered),
        healthy_at_end ? "true" : "false",
        rebuild_verified ? "true" : "false");
  }
};

FaultRow run_fault_point(const char* name, bool degraded, unsigned replicas,
                         unsigned threads, std::uint64_t records,
                         std::uint64_t ops) {
  FaultRow row;
  row.name = name;

  hw::Platform platform(benchutil::small_llc_timing(), /*seed=*/1);
  LoadedStore loaded(platform, workload::StoreKind::kLsmkv, 4,
                     tuning_for({.knobs = true}), replicas, 'B', records,
                     ops);
  workload::ShardedStore& store = loaded.store;
  if (degraded) {
    // One of four failure domains goes bad under live traffic: the shard
    // is pulled from service and its DIMM carries at-rest poison the
    // online rebuild must scrub and heal.
    store.quarantine_shard(loaded.setup, 0);
    hw::FaultInjector(platform).poison_live(*loaded.shard_ns[0], 16,
                                            /*stride=*/4);
  }
  // As in run_point: finish the setup before the measured epoch starts.
  loaded.setup.drain();
  platform.flush_xp_buffers(loaded.setup.now());
  platform.reset_timing();

  workload::EngineOptions eo;
  eo.threads = threads;
  eo.background_thread = true;
  eo.validate_reads = true;
  const workload::Result res = workload::run(store, loaded.spec, eo);

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
  const auto args = benchutil::StoreArgs::parse(argc, argv, "BENCH_YCSB.json");
  const bool faults = benchutil::has_flag(argc, argv, "--faults");

  benchutil::banner("bench_ycsb",
                    "YCSB A-F over the four stores + sharded frontend");
  benchutil::note("host cores %u, jobs %u%s", args.host_cores, args.jobs,
                  args.mini ? ", mini" : "");

  // Working sets sized past the 32 KB LLC and the aggregate XPBuffer so
  // the stock read path pays media loads (the regime §5.1 targets).
  const std::uint64_t recs = args.mini ? 1200 : 2000;
  const std::uint64_t ops = args.mini ? 2000 : 4000;

  sweep::Grid<Cfg> grid;
  // Stock single-shard A-F per family (lsmkv-only in mini runs; the
  // other families ride in the full grid and the differential oracle).
  const auto families =
      args.mini
          ? std::vector<workload::StoreKind>{workload::StoreKind::kLsmkv}
          : std::vector<workload::StoreKind>{
                workload::StoreKind::kLsmkv, workload::StoreKind::kCmap,
                workload::StoreKind::kStree, workload::StoreKind::kNova};
  const auto workloads = args.mini ? std::vector<char>{'A', 'B'}
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

  const auto [rows, identical] =
      benchutil::run_serial_then_parallel(grid, args.jobs, run_point);

  benchutil::row("%-26s %10s %10s %10s %8s", "point", "kops/s", "p50 ns",
                 "p99 ns", "EWR");
  for (const Row& r : rows)
    benchutil::row("%-26s %10.1f %10.1f %10.1f %8.3f",
                   (r.store + "/" + r.name).c_str(), r.kops,
                   sim::to_ns(r.p50), sim::to_ns(r.p99), r.ewr);
  benchutil::row("");
  benchutil::row("determinism (--jobs 1 vs --jobs %u): %s", args.jobs,
                 identical ? "identical" : "MISMATCH");

  const Row* a1 = benchutil::find_row(rows, "lsmkv", "A-s1-t8-knobs");
  const Row* a4 = benchutil::find_row(rows, "lsmkv", "A-s4-t8-knobs");
  const double scaling = benchutil::ratio(a4, a1, &Row::kops);
  if (a1 != nullptr && a4 != nullptr)
    benchutil::row("workload A shards 4 vs 1 (update-heavy): %.2fx", scaling);

  const Row* b_stock = benchutil::find_row(rows, "lsmkv", "B-s1-t8-stock");
  const Row* b_fast = benchutil::find_row(rows, "lsmkv", "B-s4-t8-knobs");
  const double b_speedup = benchutil::ratio(b_fast, b_stock, &Row::kops);
  if (b_stock != nullptr && b_fast != nullptr)
    benchutil::row("workload B read-path + sharding vs stock: %.2fx",
                   b_speedup);

  // ---- --faults: degraded-mode grid + resilience gates ------------------
  bool fault_gates_ok = true;
  std::vector<FaultRow> fault_rows;
  double degraded_ratio = 0;
  bool identity_ok = true;
  if (faults) {
    const std::uint64_t frecs = args.mini ? 800 : 2000;
    const std::uint64_t fops = args.mini ? 1600 : 4000;
    fault_rows.push_back(run_fault_point("B-r2-healthy", /*degraded=*/false,
                                         /*replicas=*/2, 8, frecs, fops));
    fault_rows.push_back(run_fault_point("B-r2-degraded", /*degraded=*/true,
                                         /*replicas=*/2, 8, frecs, fops));
    // Replication result-identity: fault-free, single worker (so the op
    // interleaving is a pure function of program order), replicas=1 and
    // replicas=2 must observe byte-identical results.
    fault_rows.push_back(run_fault_point("B-r1-identity", false, 1, 1,
                                         args.mini ? 300 : 600,
                                         args.mini ? 600 : 1200));
    fault_rows.push_back(run_fault_point("B-r2-identity", false, 2, 1,
                                         args.mini ? 300 : 600,
                                         args.mini ? 600 : 1200));
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
  hw::Platform tel_platform(benchutil::small_llc_timing(), /*seed=*/1);
  const std::string summary = benchutil::telemetry_summary(tel_platform, [&] {
    LoadedStore loaded(tel_platform, workload::StoreKind::kLsmkv, 4,
                       tuning_for({.knobs = true}), /*replicas=*/1, 'A',
                       args.mini ? 300 : 500, args.mini ? 600 : 1000);
    workload::EngineOptions eo;
    eo.threads = 4;
    eo.background_thread = true;
    workload::run(loaded.store, loaded.spec, eo);
  });

  const auto resilience = [&](std::FILE* f) {
    if (!faults) return;
    std::fprintf(f,
                 "  \"resilience\": {\"gates_ok\": %s, "
                 "\"degraded_ratio\": %.3f, \"identity_ok\": %s, "
                 "\"fault_rows\": [\n",
                 fault_gates_ok ? "true" : "false", degraded_ratio,
                 identity_ok ? "true" : "false");
    benchutil::json_objects(f, fault_rows);
    std::fprintf(f, "  ]},\n");
  };
  if (!benchutil::write_json(args, "ycsb", identical,
                             {{"ycsb_update_scaling", scaling, 3},
                              {"lsmkv_b_speedup", b_speedup, 3}},
                             rows, summary, resilience))
    return 1;
  return identical && fault_gates_ok ? 0 : 1;
}
