// Tier-1 coverage for the workload layer (src/workload/): generator
// distribution sanity, router partition stability, engine determinism
// (same-process repeats and across sweep --jobs), adapter timing
// neutrality, the deferred background-compaction knob (off-path
// telemetry identity, on-path data equivalence, the write-stall
// admission gate), the sharded frontend's routing/scan-merge/per-DIMM
// isolation contracts, and the self-healing resilience layer (typed
// error surface, health state machine, replication failover, online
// rebuild, writer-lane restoration across contained faults).
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lsmkv/db.h"
#include "sweep/sweep.h"
#include "telemetry/registry.h"
#include "telemetry/session.h"
#include "workload/engine.h"
#include "workload/shard.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

sim::ThreadCtx make_thread(unsigned id = 0, std::uint64_t seed = 1) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = seed});
}

void drain_xp_buffers(hw::Platform& p, sim::Time t) {
  for (unsigned s = 0; s < p.timing().sockets; ++s)
    for (unsigned c = 0; c < p.timing().channels_per_socket; ++c) {
      auto& d = p.xp_dimm(s, c);
      d.buffer().flush_all(t, d.counters());
    }
}

// Telemetry fingerprint of a platform interval: byte counters + clock.
using Tuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, sim::Time>;
Tuple fingerprint(const telemetry::Delta& d, sim::Time t) {
  const hw::XpCounters xc = d.xp_total();
  return {xc.imc_write_bytes, xc.media_write_bytes, xc.imc_read_bytes,
          xc.media_read_bytes, t};
}

// ---------------------------------------------------------------------
// Generators.

TEST(Zipfian, SkewMatchesTheory) {
  workload::XorShift rng(42);
  workload::Zipfian zipf(100, 0.99);
  const int kDraws = 200000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.next(rng)];

  // zeta(100, 0.99) ~= 5.187; rank 0 should get ~1/zetan of the draws.
  const double p0 = static_cast<double>(counts[0]) / kDraws;
  EXPECT_GT(p0, 0.155);
  EXPECT_LT(p0, 0.235);
  // Monotone-ish decay over the head of the distribution.
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[1], counts[8]);
  EXPECT_GT(counts[2], counts[30]);
  // The tail is populated: a zipfian over 100 items is not a delta.
  int tail = 0;
  for (int i = 50; i < 100; ++i) tail += counts[i];
  EXPECT_GT(tail, kDraws / 100);
}

TEST(Zipfian, GrowKeepsDistributionValid) {
  workload::XorShift rng(7);
  workload::Zipfian zipf(10, 0.99);
  zipf.grow(1000);
  EXPECT_EQ(zipf.items(), 1000u);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t r = zipf.next(rng);
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[10]);
}

TEST(Uniform, ChiSquaredWithinBounds) {
  workload::XorShift rng(1234);
  const int kBuckets = 64, kDraws = 64 * 500;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    const double d = c - expect;
    chi2 += d * d / expect;
  }
  // 63 degrees of freedom: mean 63, 99.9th percentile ~103. The draw
  // stream is deterministic, so this is a regression bound, not a
  // flaky statistical test.
  EXPECT_LT(chi2, 100.0);
  EXPECT_GT(chi2, 25.0);  // suspiciously uniform = broken generator
}

TEST(Scramble, CoversKeySpace) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < 100; ++r)
    seen.insert(workload::scramble(r, 1000));
  // FNV mixing should map 100 ranks to ~100 distinct ids.
  EXPECT_GT(seen.size(), 90u);
}

TEST(KeyName, SortableAndStreeSafe) {
  EXPECT_EQ(workload::key_name(0), "user000000000000");
  EXPECT_EQ(workload::key_name(42), "user000000000042");
  EXPECT_LT(workload::key_name(99), workload::key_name(100));
  EXPECT_LE(workload::key_name(~0ull).size(), 31u);  // stree kMaxKey
}

// ---------------------------------------------------------------------
// Router.

TEST(ShardRouter, StableAndBalanced) {
  // Pure function of (key, nshards): same key, same shard, every call.
  for (int i = 0; i < 100; ++i) {
    const std::string k = workload::key_name(i * 37);
    EXPECT_EQ(workload::shard_of(k, 4), workload::shard_of(k, 4));
    EXPECT_EQ(workload::shard_of(k, 1), 0u);
  }
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i)
    ++counts[workload::shard_of(workload::key_name(i), 4)];
  int lo = counts[0], hi = counts[0];
  for (int c : counts) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LT(hi, lo * 13 / 10) << "router imbalance: " << lo << ".." << hi;
}

// ---------------------------------------------------------------------
// Engine determinism.

workload::Result run_once(workload::StoreKind kind, char wl,
                          unsigned shards, unsigned threads,
                          bool knobs) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, shards, 48ull << 20);
  workload::ShardOptions so;
  so.kind = kind;
  so.writer_lanes = knobs;
  so.tuning.memtable_bytes = 8 << 10;
  if (knobs) {
    so.tuning.write_combine = true;
    so.tuning.read_path = true;
    so.tuning.background_compaction = kind == workload::StoreKind::kLsmkv;
  }
  workload::ShardedStore store(ns, so);
  workload::Spec spec = workload::ycsb(wl);
  spec.records = 200;
  spec.ops = 400;
  sim::ThreadCtx setup = make_thread(100);
  store.create(setup);
  workload::load(store, spec, setup);
  workload::EngineOptions eo;
  eo.threads = threads;
  eo.background_thread = so.tuning.background_compaction;
  return workload::run(store, spec, eo);
}

TEST(Engine, RepeatRunsAreByteIdentical) {
  for (char wl : {'A', 'D', 'F'}) {
    const auto a = run_once(workload::StoreKind::kLsmkv, wl, 2, 4, true);
    const auto b = run_once(workload::StoreKind::kLsmkv, wl, 2, 4, true);
    EXPECT_EQ(a.checksum, b.checksum) << wl;
    EXPECT_EQ(a.elapsed, b.elapsed) << wl;
    EXPECT_EQ(a.p50, b.p50) << wl;
    EXPECT_EQ(a.p99, b.p99) << wl;
    EXPECT_EQ(a.ops, 400u) << wl;
  }
}

TEST(Engine, DeterministicAcrossSweepJobs) {
  struct Pt {
    workload::StoreKind kind;
    char wl;
    unsigned threads;
  };
  sweep::Grid<Pt> grid;
  for (char wl : {'A', 'B'})
    for (unsigned t : {1u, 4u})
      grid.add({workload::StoreKind::kLsmkv, wl, t});
  grid.add({workload::StoreKind::kCmap, 'A', 4});
  grid.add({workload::StoreKind::kStree, 'A', 4});

  auto runner = [](const Pt& p) {
    const auto r = run_once(p.kind, p.wl, 2, p.threads, true);
    return std::tuple{r.checksum, r.elapsed, r.p50, r.p99, r.ops,
                      r.read_hits};
  };
  sweep::Pool serial(1);
  sweep::Pool par(4);
  const auto a = sweep::run_points(serial, grid, runner);
  const auto b = sweep::run_points(par, grid, runner);
  EXPECT_EQ(a, b);
}

TEST(Engine, AllFourFamiliesRunEveryWorkload) {
  for (const workload::StoreKind kind :
       {workload::StoreKind::kLsmkv, workload::StoreKind::kCmap,
        workload::StoreKind::kStree, workload::StoreKind::kNova}) {
    hw::Platform platform;
    auto& ns = platform.optane(64ull << 20);
    auto store = workload::make_store(kind, ns, {});
    workload::Spec spec = workload::ycsb('A');
    spec.records = 100;
    spec.ops = 200;
    sim::ThreadCtx setup = make_thread(100);
    store->create(setup);
    EXPECT_EQ(workload::load(*store, spec, setup), 0u) << store->name();
    const auto r = workload::run(*store, spec, {.threads = 3});
    EXPECT_EQ(r.ops, 200u) << store->name();
    EXPECT_EQ(r.reads + r.updates + r.inserts + r.scans + r.rmws, r.ops)
        << store->name();
    EXPECT_GT(r.read_hits, 0u) << store->name();
    sim::ThreadCtx t = make_thread(50);
    EXPECT_TRUE(store->check(t).ok()) << store->name();
  }
}

// ---------------------------------------------------------------------
// Adapter timing neutrality: driving lsmkv through its StoreIface
// adapter must be telemetry-identical to driving the Db directly with
// the same options — the adapter adds no simulated time.

kv::DbOptions adapter_equiv_opts() {
  kv::DbOptions o;
  o.wal_capacity = 4 << 20;  // the adapter's sizing
  o.memtable_bytes = 64 << 10;
  return o;
}

TEST(StoreIface, LsmkvAdapterIsTimingNeutral) {
  Tuple direct, adapted;
  {
    hw::Platform platform;
    auto& ns = platform.optane(64ull << 20);
    kv::Db db(ns, adapter_equiv_opts());
    sim::ThreadCtx t = make_thread();
    db.create(t);
    const auto s0 = telemetry::Snapshot::capture(platform);
    std::string v;
    for (int i = 0; i < 300; ++i) {
      db.put(t, workload::key_name(i % 64),
             workload::make_value(i % 64, i, 80));
      if (i % 3 == 0) db.get(t, workload::key_name(i % 64), &v);
      if (i % 17 == 0) db.del(t, workload::key_name((i + 5) % 64));
    }
    t.drain();
    drain_xp_buffers(platform, t.now());
    direct =
        fingerprint(telemetry::Snapshot::capture(platform) - s0, t.now());
  }
  {
    hw::Platform platform;
    auto& ns = platform.optane(64ull << 20);
    auto store = workload::make_store(workload::StoreKind::kLsmkv, ns, {});
    sim::ThreadCtx t = make_thread();
    store->create(t);
    const auto s0 = telemetry::Snapshot::capture(platform);
    std::string v;
    for (int i = 0; i < 300; ++i) {
      store->put(t, workload::key_name(i % 64),
                 workload::make_value(i % 64, i, 80));
      if (i % 3 == 0) store->get(t, workload::key_name(i % 64), &v);
      if (i % 17 == 0) store->del(t, workload::key_name((i + 5) % 64));
    }
    t.drain();
    drain_xp_buffers(platform, t.now());
    adapted =
        fingerprint(telemetry::Snapshot::capture(platform) - s0, t.now());
  }
  EXPECT_EQ(direct, adapted);
}

// ---------------------------------------------------------------------
// Deferred background compaction.

Tuple run_db_workload(kv::DbOptions o, kv::DbStats* stats = nullptr,
                      std::map<std::string, std::string>* state = nullptr) {
  o.wal_capacity = 4 << 20;  // fit the 64 MiB namespace
  hw::Platform platform;
  auto& ns = platform.optane(64ull << 20);
  kv::Db db(ns, o);
  sim::ThreadCtx t = make_thread();
  db.create(t);
  const auto s0 = telemetry::Snapshot::capture(platform);
  for (int i = 0; i < 500; ++i)
    db.put(t, workload::key_name(i % 120),
           workload::make_value(i % 120, i, 100));
  t.drain();
  drain_xp_buffers(platform, t.now());
  if (stats != nullptr) *stats = db.stats();
  if (state != nullptr)
    for (auto& [k, v] : db.scan(t, "", 1000)) (*state)[k] = v;
  return fingerprint(telemetry::Snapshot::capture(platform) - s0, t.now());
}

// Off-path identity: with the knob off, the new DbOptions fields are
// inert — a run with explicit background_compaction=false and a wild
// stall trigger is byte- and timing-identical to the defaults.
TEST(BackgroundCompaction, OffPathTelemetryIdentical) {
  kv::DbOptions defaults;
  defaults.memtable_bytes = 4 << 10;  // force flushes + compactions
  kv::DbOptions off = defaults;
  off.background_compaction = false;
  off.l0_stall_trigger = 5;  // unused with the knob off

  kv::DbStats s_def, s_off;
  EXPECT_EQ(run_db_workload(defaults, &s_def), run_db_workload(off, &s_off));
  EXPECT_GT(s_def.compactions, 0u);  // the workload exercised the path
  EXPECT_EQ(s_def.background_compactions, 0u);
  EXPECT_EQ(s_off.background_compactions, 0u);
  EXPECT_EQ(s_off.write_stalls, 0u);
}

// On-path equivalence: deferring compactions (and paying them via the
// stall gate) must not change the database's contents.
TEST(BackgroundCompaction, StallGateBoundsL0AndPreservesData) {
  kv::DbOptions base;
  base.memtable_bytes = 4 << 10;
  base.l0_compaction_trigger = 2;

  kv::DbOptions bg = base;
  bg.background_compaction = true;
  bg.l0_stall_trigger = 4;

  std::map<std::string, std::string> state_inline, state_bg;
  kv::DbStats s_inline, s_bg;
  run_db_workload(base, &s_inline, &state_inline);
  run_db_workload(bg, &s_bg, &state_bg);
  EXPECT_EQ(state_inline, state_bg);
  // Nobody donated turns, so every deferred merge was paid at the gate.
  EXPECT_GT(s_bg.write_stalls, 0u);
  EXPECT_EQ(s_bg.write_stalls, s_bg.background_compactions);
  // Deferral batches more L0 runs per merge: strictly fewer compactions.
  EXPECT_LT(s_bg.compactions, s_inline.compactions);
}

TEST(BackgroundCompaction, DonatedTurnsRunTheMerge) {
  hw::Platform platform;
  auto& ns = platform.optane(64ull << 20);
  kv::DbOptions o;
  o.wal_capacity = 4 << 20;
  o.memtable_bytes = 4 << 10;
  o.l0_compaction_trigger = 2;
  o.background_compaction = true;
  kv::Db db(ns, o);
  sim::ThreadCtx t = make_thread();
  db.create(t);
  std::uint64_t turns = 0;
  for (int i = 0; i < 400; ++i) {
    db.put(t, workload::key_name(i % 100),
           workload::make_value(i % 100, i, 100));
    if (db.compaction_pending() && db.background_work(t)) ++turns;
  }
  EXPECT_GT(turns, 0u);
  EXPECT_EQ(db.stats().background_compactions, turns);
  EXPECT_EQ(db.stats().write_stalls, 0u);  // turns kept L0 below the gate
  EXPECT_TRUE(db.check(t).ok());
}

TEST(BackgroundCompaction, EngineBackgroundThreadDonatesTurns) {
  const auto r = run_once(workload::StoreKind::kLsmkv, 'A', 1, 4, true);
  EXPECT_GT(r.background_turns, 0u);
}

// A crash (or plain reopen) between schedule and merge: the volatile
// debt flag is re-derived from the recovered manifest.
TEST(BackgroundCompaction, PendingDebtSurvivesReopen) {
  hw::Platform platform;
  auto& ns = platform.optane(64ull << 20);
  kv::DbOptions o;
  o.wal_capacity = 4 << 20;
  o.memtable_bytes = 4 << 10;
  o.l0_compaction_trigger = 2;
  o.background_compaction = true;
  {
    kv::Db db(ns, o);
    sim::ThreadCtx t = make_thread();
    db.create(t);
    int i = 0;
    while (!db.compaction_pending())
      db.put(t, workload::key_name(i % 100),
             workload::make_value(i % 100, i, 100)), ++i;
  }
  kv::Db db2(ns, o);
  sim::ThreadCtx t = make_thread(1);
  ASSERT_TRUE(db2.open(t));
  EXPECT_TRUE(db2.compaction_pending());
  EXPECT_TRUE(db2.background_work(t));
  EXPECT_TRUE(db2.check(t).ok());
}

// ---------------------------------------------------------------------
// Sharded frontend.

TEST(ShardedStore, RoutesAndScansAcrossShards) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 3, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kStree;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 120; ++i) {
    const std::string k = workload::key_name(i * 7);
    const std::string v = workload::make_value(i, 0, 40);
    store.put(t, k, v);
    model[k] = v;
  }
  // Point reads route to the owning shard.
  std::string v;
  for (auto& [k, want] : model) {
    ASSERT_TRUE(store.get(t, k, &v)) << k;
    EXPECT_EQ(v, want);
  }
  // Deletions route too.
  EXPECT_TRUE(store.del(t, workload::key_name(0)));
  model.erase(workload::key_name(0));
  EXPECT_FALSE(store.get(t, workload::key_name(0), &v));

  // Scan-merge returns the global key order, not per-shard order.
  const auto rows = store.scan(t, workload::key_name(50), 20);
  auto it = model.lower_bound(workload::key_name(50));
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& [k, val] : rows) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(val, it->second);
    ++it;
  }
  EXPECT_TRUE(store.check(t).ok());
}

TEST(ShardedStore, BatchedDispatchReachesEveryShard) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning.write_combine = true;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);

  std::vector<workload::BatchOp> batch;
  for (int i = 0; i < 64; ++i)
    batch.push_back({workload::key_name(i), workload::make_value(i, 1, 60),
                     false});
  const auto s0 = telemetry::Snapshot::capture(platform);
  store.apply_batch(t, batch);
  t.drain();
  drain_xp_buffers(platform, t.now());
  const auto d = telemetry::Snapshot::capture(platform) - s0;

  // Every shard's DIMM saw writes: the batch fanned out per the router.
  for (unsigned s = 0; s < 4; ++s)
    EXPECT_GT(d.xp[0][s].counters.imc_write_bytes, 0u) << "shard " << s;
  std::string v;
  for (int i = 0; i < 64; ++i)
    EXPECT_TRUE(store.get(t, workload::key_name(i), &v)) << i;
}

TEST(ShardedStore, ReopenRecoversAllShards) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 2, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  {
    workload::ShardedStore store(ns, so);
    sim::ThreadCtx t = make_thread();
    store.create(t);
    for (int i = 0; i < 50; ++i)
      store.put(t, workload::key_name(i), workload::make_value(i, 0, 50));
  }
  workload::ShardedStore again(ns, so);
  sim::ThreadCtx t = make_thread(1);
  ASSERT_TRUE(again.open(t));
  std::string v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(again.get(t, workload::key_name(i), &v)) << i;
    EXPECT_EQ(v, workload::make_value(i, 0, 50));
  }
  EXPECT_TRUE(again.check(t).ok());
}

// ---------------------------------------------------------------------
// Self-healing resilience layer.

// The default try_* wrappers on a bare adapter (no sharded frontend):
// a poisoned line read surfaces as OpStatus::kMediaError, never as an
// escaped exception, for every store family.
TEST(StoreIface, BareAdaptersReturnTypedMediaErrors) {
  for (const workload::StoreKind kind :
       {workload::StoreKind::kLsmkv, workload::StoreKind::kCmap,
        workload::StoreKind::kStree, workload::StoreKind::kNova}) {
    hw::Platform platform;
    auto& ns = platform.optane(32ull << 20);
    workload::StoreTuning tuning;
    tuning.memtable_bytes = 2 << 10;
    auto store = workload::make_store(kind, ns, tuning);
    sim::ThreadCtx t = make_thread();
    store->create(t);
    for (int i = 0; i < 100; ++i)
      store->put(t, workload::key_name(i), workload::make_value(i, 0, 64));
    store->flush_pending(t);
    ASSERT_GT(hw::FaultInjector(platform).poison_live(ns, 30, /*stride=*/2),
              0u)
        << store->name();

    unsigned media = 0;
    for (int i = 0; i < 100; ++i) {
      std::string v;
      const auto r = store->try_get(t, workload::key_name(i), &v);
      if (r.status == workload::OpStatus::kMediaError) ++media;
      if (r.status == workload::OpStatus::kOk) {
        EXPECT_EQ(v, workload::make_value(i, 0, 64)) << store->name();
      }
    }
    EXPECT_GT(media, 0u) << store->name()
                         << ": poison never surfaced as a typed error";
  }
}

// K == 1 (replication off): poisoned data surfaces as typed statuses —
// never an exception, never garbage — the shard walks
// healthy -> degraded -> quarantined, and the in-place salvage path
// returns it to service with bounded, typed loss.
TEST(Resilience, TypedErrorsAndSalvageWithoutReplication) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 1, 16ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning.memtable_bytes = 2 << 10;  // data lives in SSTables, not DRAM
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 120; ++i) {
    const std::string k = workload::key_name(i);
    const std::string v = workload::make_value(i, 0, 64);
    store.put(t, k, v);
    model[k] = v;
  }
  store.flush_pending(t);
  ASSERT_GT(hw::FaultInjector(platform).poison_live(*ns[0], 24, /*stride=*/3),
            0u);

  // Typed read pass: each op ends in a status, and a hit is always the
  // written value (the media model clobbers poisoned lines, so a read
  // that "succeeded" through poison would differ).
  for (auto& [k, want] : model) {
    std::string v;
    const auto r = store.try_get(t, k, &v);
    if (r.status == workload::OpStatus::kOk) {
      EXPECT_EQ(v, want) << k;
    }
  }
  const auto& st = store.resilience();
  EXPECT_GT(st.media_errors, 0u);
  EXPECT_GE(st.quarantined, 1u);

  // Drive the salvage to completion on donated turns.
  for (int turn = 0; turn < 2000 && !store.all_healthy(); ++turn)
    store.background_turn(t);
  ASSERT_TRUE(store.all_healthy());
  EXPECT_GT(store.resilience().lines_healed, 0u);
  EXPECT_GE(store.resilience().recovered, 1u);
  EXPECT_TRUE(store.check(t).ok());

  // Bounded, *typed* loss, never garbage: every key now reads back
  // either its exact value or kDataLoss — never a silent kNotFound
  // (every key was acked through this frontend, so the salvage's loss
  // accounting covers all of them).
  std::uint64_t data_loss = 0;
  for (auto& [k, want] : model) {
    std::string v;
    const auto r = store.try_get(t, k, &v);
    ASSERT_TRUE(r.status == workload::OpStatus::kOk ||
                r.status == workload::OpStatus::kDataLoss)
        << k << " -> " << workload::op_status_name(r.status);
    if (r.status == workload::OpStatus::kOk) {
      EXPECT_EQ(v, want) << k;
    } else {
      ++data_loss;
    }
  }
  EXPECT_EQ(data_loss, store.resilience().keys_lost);
}

// Writer-lane leak regression: a MediaError thrown mid-write (here: the
// inline compaction a put triggers reads a poisoned SSTable) unwinds
// through the per-shard LaneGuard. The issuing thread's write stream
// must be restored after every contained fault — a leaked lane would
// silently misattribute all later traffic to the dead shard's stream.
TEST(Resilience, WriterLaneRestoredAcrossContainedFaults) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 2, 16ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.writer_lanes = true;
  so.tuning.memtable_bytes = 1 << 10;
  so.tuning.write_combine = true;  // the batched LineBatcher path
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread(3);
  store.create(t);
  for (int i = 0; i < 200; ++i)
    store.put(t, workload::key_name(i), workload::make_value(i, 0, 80));
  store.flush_pending(t);
  hw::FaultInjector inj(platform);
  inj.poison_live(*ns[0], 64);
  inj.poison_live(*ns[1], 64);

  const unsigned own = t.write_stream();
  // Single-key path: every put returns with the lane released, faulted
  // or not.
  for (int i = 0; i < 200; ++i) {
    (void)store.try_put(t, workload::key_name(i),
                        workload::make_value(i, 1, 80));
    ASSERT_EQ(t.write_stream(), own) << "lane leaked at put " << i;
  }
  // Batched cross-shard dispatch: same contract through apply_batch.
  std::vector<workload::BatchOp> batch;
  for (int i = 0; i < 64; ++i)
    batch.push_back({workload::key_name(i), workload::make_value(i, 2, 80),
                     false});
  (void)store.try_apply_batch(t, batch);
  EXPECT_EQ(t.write_stream(), own) << "lane leaked by batched dispatch";
  // The poison actually fired (otherwise this test proves nothing).
  EXPECT_GT(store.resilience().media_errors, 0u);
}

workload::Result run_replicated(unsigned replicas, unsigned* quarantine,
                                workload::ResilienceStats* stats = nullptr,
                                char wl = 'A') {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = replicas;
  so.tuning.memtable_bytes = 8 << 10;
  workload::ShardedStore store(ns, so);
  workload::Spec spec = workload::ycsb(wl);
  spec.records = 200;
  spec.ops = 400;
  sim::ThreadCtx setup = make_thread(100);
  store.create(setup);
  workload::load(store, spec, setup);
  if (quarantine != nullptr) store.quarantine_shard(setup, *quarantine);
  workload::EngineOptions eo;
  // Single-threaded: replication changes per-op simulated cost, so with
  // several workers it changes the interleaving (and thus which version
  // each read observes). One worker makes the observed-value sequence a
  // pure function of program order — comparable across replica counts.
  eo.threads = 1;
  eo.validate_reads = true;
  eo.background_thread = true;
  const auto r = workload::run(store, spec, eo);
  if (stats != nullptr) *stats = store.resilience();
  return r;
}

// Replication off-path identity: with no faults, a replicas=2 run reads
// the same values as replicas=1 (primary copies serve everything), so
// the engine checksum is identical and every resilience counter is
// zero. This pins "replication changes durability, not results".
TEST(Resilience, ReplicationIsResultInvariantWhenFaultFree) {
  workload::ResilienceStats s1, s2;
  const auto r1 = run_replicated(1, nullptr, &s1);
  const auto r2 = run_replicated(2, nullptr, &s2);
  EXPECT_EQ(r1.checksum, r2.checksum);
  for (const auto* r : {&r1, &r2}) {
    EXPECT_EQ(r->typed_errors, 0u);
    EXPECT_EQ(r->failovers, 0u);
    EXPECT_EQ(r->retries, 0u);
    EXPECT_EQ(r->corruptions, 0u);
  }
  for (const auto* s : {&s1, &s2}) {
    EXPECT_EQ(s->media_errors, 0u);
    EXPECT_EQ(s->degraded + s->quarantined + s->recovered, 0u);
    EXPECT_EQ(s->failover_reads + s->keys_resilvered, 0u);
  }
}

// Replicated-scan identity gate: YCSB E (scan-heavy) must be result-
// invariant across replica counts too. Regression for the capped-scan
// row drop: a physical store co-hosts two logical shards' copies, so a
// per-copy scan capped at n and then filtered could lose target-shard
// rows; the continuation scan keeps each shard's slice exact and the
// merged result identical to the unreplicated frontend's.
TEST(Resilience, ReplicatedScansAreResultInvariant) {
  workload::ResilienceStats s1, s2;
  const auto r1 = run_replicated(1, nullptr, &s1, 'E');
  const auto r2 = run_replicated(2, nullptr, &s2, 'E');
  EXPECT_GT(r1.scans, 0u);
  EXPECT_GT(r1.scanned_items, 0u);
  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.scanned_items, r2.scanned_items);
  for (const auto* r : {&r1, &r2}) {
    EXPECT_EQ(r->typed_errors, 0u);
    EXPECT_EQ(r->corruptions, 0u);
  }
}

// Deterministic replicated-scan exactness: the merged scan must equal
// the model's first-n slice for every start/n combination, healthy and
// with a quarantined store (failover) — co-hosted copies' smaller keys
// never crowd a shard's rows out, and rows are never silently dropped
// under a kOk status.
TEST(Resilience, ReplicatedScanMatchesModelExactly) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = 2;
  so.tuning.memtable_bytes = 8 << 10;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) {
    const std::string k = workload::key_name(i);
    model[k] = workload::make_value(i, 0, 48);
    ASSERT_TRUE(store.try_put(t, k, model[k]).ok());
  }
  store.flush_pending(t);

  auto expect_exact = [&](const std::string& start, std::size_t n) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(store.try_scan(t, start, n, &rows).ok()) << start << " " << n;
    auto it = model.lower_bound(start);
    const std::size_t avail =
        static_cast<std::size_t>(std::distance(it, model.end()));
    ASSERT_EQ(rows.size(), std::min(n, avail)) << start << " " << n;
    for (std::size_t i = 0; i < rows.size(); ++i, ++it) {
      EXPECT_EQ(rows[i].first, it->first) << "start=" << start << " n=" << n;
      EXPECT_EQ(rows[i].second, it->second) << rows[i].first;
    }
  };
  const std::size_t sizes[] = {1, 3, 7, 25, 199, 500};
  for (const std::size_t n : sizes) {
    expect_exact("", n);
    expect_exact(workload::key_name(50), n);
  }

  // Degraded: one store out, every row still exact via the replicas.
  store.quarantine_shard(t, 0);
  for (const std::size_t n : sizes) {
    expect_exact("", n);
    expect_exact(workload::key_name(50), n);
  }
  EXPECT_GT(store.resilience().failover_reads, 0u);
}

// Degraded-mode service: with one of four shards quarantined for the
// whole run, a replicas=2 frontend keeps serving every op (failover
// reads, zero unavailable, zero corruptions) while the rebuild runs on
// the engine's donated background turns.
TEST(Resilience, QuarantinedShardServesThroughReplicas) {
  unsigned q = 0;
  workload::ResilienceStats st;
  const auto r = run_replicated(2, &q, &st);
  EXPECT_EQ(r.ops, 400u);
  EXPECT_EQ(r.corruptions, 0u);
  EXPECT_GT(r.failovers, 0u);
  EXPECT_EQ(st.unavailable, 0u);  // every logical shard kept a live copy
  EXPECT_GE(st.quarantined, 1u);
  EXPECT_GT(r.read_hits, 0u);
}

// Online rebuild end-to-end: quarantine a store under live writes, let
// donated turns scrub/heal/reformat/re-silver/verify it, and require
// the rebuilt store's hosted keyspace to be byte-identical to the
// surviving copies — zero acked writes lost.
TEST(Resilience, RebuildRestoresByteIdenticalKeyspace) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = 2;
  so.tuning.memtable_bytes = 4 << 10;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 160; ++i) {
    const std::string k = workload::key_name(i);
    model[k] = workload::make_value(i, 0, 60);
    ASSERT_TRUE(store.try_put(t, k, model[k]).ok());
  }
  store.quarantine_shard(t, 0);
  ASSERT_EQ(store.health(0), workload::ShardHealth::kQuarantined);

  // Writes keep flowing while store 0 is out: updates land on the
  // surviving copies and in store 0's pending set.
  for (int i = 0; i < 160; i += 3) {
    const std::string k = workload::key_name(i);
    model[k] = workload::make_value(i, 1, 60);
    ASSERT_TRUE(store.try_put(t, k, model[k]).ok());
  }
  // Reads never stall: logical shard 0 fails over to store 1.
  for (int i = 0; i < 160; ++i) {
    std::string v;
    const auto r = store.try_get(t, workload::key_name(i), &v);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(v, model[workload::key_name(i)]);
  }
  EXPECT_GT(store.resilience().failover_reads, 0u);

  for (int turn = 0; turn < 4000 && !store.all_healthy(); ++turn)
    store.background_turn(t);
  ASSERT_TRUE(store.all_healthy());
  const auto& st = store.resilience();
  EXPECT_EQ(st.recovered, 1u);
  EXPECT_GT(st.keys_resilvered, 0u);
  EXPECT_EQ(st.keys_lost, 0u);
  EXPECT_TRUE(store.check(t).ok());

  // Store 0 hosts logical shards 0 (as primary) and 3 (as replica);
  // read it directly and compare byte-for-byte against the model.
  unsigned hosted = 0;
  for (auto& [k, want] : model) {
    const unsigned s = workload::shard_of(k, 4);
    if (s != 0 && s != 3) continue;
    std::string v;
    ASSERT_TRUE(store.shard(0).get(t, k, &v)) << k;
    EXPECT_EQ(v, want) << k;
    ++hosted;
  }
  EXPECT_GT(hosted, 0u);
  // And the frontend itself still serves the full keyspace exactly.
  for (auto& [k, want] : model) {
    std::string v;
    ASSERT_TRUE(store.try_get(t, k, &v).ok()) << k;
    EXPECT_EQ(v, want) << k;
  }
}

// Telemetry: resilience transitions reach the attached Session and the
// summary grows a "resilience" section; a fault-free run keeps every
// counter at zero and the summary free of the section (byte-identity
// with pre-resilience summaries).
TEST(Resilience, TelemetryCountsTransitionsOnlyWhenTheyHappen) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 2, 16ull << 20);
  telemetry::Session session(platform);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kStree;
  so.replicas = 2;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t = make_thread();
  store.create(t);
  for (int i = 0; i < 40; ++i)
    store.put(t, workload::key_name(i), workload::make_value(i, 0, 40));
  EXPECT_EQ(session.summary_json().find("\"resilience\""), std::string::npos);

  store.quarantine_shard(t, 1);
  for (int turn = 0; turn < 2000 && !store.all_healthy(); ++turn)
    store.background_turn(t);
  ASSERT_TRUE(store.all_healthy());
  EXPECT_EQ(
      session.resilience_count(hw::ResilienceEventKind::kQuarantined), 1u);
  EXPECT_EQ(
      session.resilience_count(hw::ResilienceEventKind::kRecovered), 1u);
  EXPECT_GE(
      session.resilience_count(hw::ResilienceEventKind::kResilverKey), 1u);
  EXPECT_NE(session.summary_json().find("\"resilience\""), std::string::npos);
}

}  // namespace
}  // namespace xp
