// Media fault-injection campaigns over every persistent store (the
// robustness tentpole's end-to-end gate).
//
// explore_faults() arms the k-th device read to poison the XPLine it
// touches (the process dies at the machine check), then re-opens the
// store from the poisoned image, runs its repair path and verifies the
// containment contract: every explored point ends in full recovery or a
// typed, *reported* error — never silent corruption. The tier-1 smoke
// here sweeps a fixed-seed sample across the whole crash panel; the
// exhaustive sweeps live in bench/crashmc_sweep.cc --faults.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crashmc/explorer.h"
#include "crashmc/workloads.h"
#include "sim/rng.h"
#include "workload/shard.h"
#include "xpsim/fault.h"

namespace xp::crashmc {
namespace {

std::string first_violation(const Result& r) {
  if (r.violations.empty()) return "";
  return "@" + std::to_string(r.violations[0].point) + ": " +
         r.violations[0].detail;
}

// Every shipped configuration is in the crash and fault panels: one
// dropped from (or never added to) all_targets() fails here.
TEST(PanelCoverage, CrashAndFaultPanelsNameEveryConfiguration) {
  for (const bool checksums : {false, true}) {
    std::set<std::string> names;
    for (const auto& target : all_targets(checksums))
      names.insert(target->name());
    for (const char* want :
         {"pmemlib", "lsmkv-flex", "lsmkv-flex-group", "novafs",
          "novafs-batch", "pmemkv-cmap", "pmemkv-stree", "sharded-lsmkv",
          "resilient-lsmkv"})
      EXPECT_EQ(names.count(want), 1u) << want << " checksums=" << checksums;
  }
}

// Fixed-seed bounded smoke across the whole panel (pmemlib, lsmkv,
// novafs, cmap, stree, the sharded and replicated frontends), CI's
// tier-1 gate.
TEST(FaultCampaign, SmokeEveryStoreContainsMediaFaults) {
  Options opts;
  opts.max_exhaustive = 0;  // always sample
  opts.samples = 20;
  opts.seed = 42;
  for (const auto& target : all_targets(/*checksums=*/true)) {
    const Result r = explore_faults(*target, opts);
    EXPECT_TRUE(r.ok()) << target->name() << " " << first_violation(r);
    EXPECT_GT(r.total_events, 0u) << target->name();
    EXPECT_GT(r.fired, 0u) << target->name();
    // Every fired machine check must surface as a typed MediaError; a
    // workload that swallows one is itself flagged as a violation.
    EXPECT_EQ(r.fired, r.typed_errors) << target->name();
  }
}

// The acceptance sweep: >= 500 distinct injection points spread across
// the whole panel, zero silent corruption.
TEST(FaultCampaign, FiveHundredPointsZeroSilentCorruption) {
  Options opts;
  opts.max_exhaustive = 0;
  opts.samples = 120;       // phase 1: every reachable read site
  opts.poison_points = 60;  // phase 2: at-rest poison vs. recovery
  opts.seed = 1;
  std::uint64_t injected = 0;
  for (const auto& target : all_targets(/*checksums=*/true)) {
    const Result r = explore_faults(*target, opts);
    EXPECT_TRUE(r.ok()) << target->name() << " " << first_violation(r);
    EXPECT_EQ(r.fired, r.typed_errors) << target->name();
    injected += r.fired + r.lines_poisoned;
  }
  EXPECT_GE(injected, 500u);
}

// The checksum options change the on-media format; the campaign must
// hold without them too (poison alone is still a typed signal).
TEST(FaultCampaign, ContainmentHoldsWithoutChecksums) {
  Options opts;
  opts.max_exhaustive = 0;
  opts.samples = 8;
  opts.seed = 7;
  for (const auto& target : all_targets(/*checksums=*/false)) {
    const Result r = explore_faults(*target, opts);
    EXPECT_TRUE(r.ok()) << target->name() << " " << first_violation(r);
  }
}

// An armed-but-never-fired injector must be invisible: same durable
// image, same recovery as a run with no injector at all. This is the
// regression canary for the "injector off == bit-identical" guarantee.
TEST(FaultCampaign, ArmedButUnfiredInjectorIsInert) {
  const auto target = make_pmemlib_target();

  hw::Platform& clean = target->reset();
  target->run();
  clean.reset_timing();
  ASSERT_EQ(target->recover_and_check(), "");
  const hw::PmemNamespace& clean_ns = *target->namespaces().front();
  std::vector<std::uint8_t> base(clean_ns.size());
  clean_ns.peek(0, base);

  hw::Platform& armed = target->reset();
  hw::FaultInjector injector(armed, 1);
  injector.arm_nth_device_read(1ull << 40);  // far past the workload
  target->run();
  EXPECT_FALSE(armed.media_fault_fired());
  armed.clear_media_fault();
  armed.reset_timing();
  ASSERT_EQ(target->recover_and_check(), "");
  const hw::PmemNamespace& armed_ns = *target->namespaces().front();
  std::vector<std::uint8_t> img(armed_ns.size());
  armed_ns.peek(0, img);
  EXPECT_TRUE(img == base) << "armed-but-idle injector perturbed the "
                              "durable image";
}

// Deterministic replay: the same seed explores the same points with the
// same outcome counts.
TEST(FaultCampaign, SameSeedReplaysIdentically) {
  Options opts;
  opts.max_exhaustive = 0;
  opts.samples = 6;
  opts.seed = 99;
  const auto t1 = make_stree_target();
  const auto t2 = make_stree_target();
  const Result a = explore_faults(*t1, opts);
  const Result b = explore_faults(*t2, opts);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.typed_errors, b.typed_errors);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

// ---------------------------------------------------------------------
// Self-healing sharded frontend under media faults. These drive the
// frontend's typed try_* path directly rather than through
// explore_faults(): the frontend is *supposed* to contain MediaErrors
// (the campaign harness treats a workload-caught fault as a violation,
// because bare stores must let it propagate).

// At-rest poison lands on two of four DIMMs mid-workload. The
// containment contract: every op ends in success or a typed error
// (never an escaped exception, never a value outside the model), the
// frontend quarantines and rebuilds the damaged stores online, and once
// healthy again the full keyspace — including the rebuilt stores' own
// slices — is byte-identical to the model. Zero acked writes lost.
TEST(FaultCampaign, ShardedFrontendContainsAtRestPoisonMidRun) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 16ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = 2;
  so.tuning.memtable_bytes = 2 << 10;
  workload::ShardedStore store(ns, so);
  sim::ThreadCtx t({.id = 1, .socket = 0, .mlp = 8, .seed = 11});
  store.create(t);

  std::map<std::string, std::string> model;
  auto key = [](std::uint64_t i) { return workload::key_name(i); };
  for (int i = 0; i < 200; ++i) {
    model[key(i)] = workload::make_value(i, 0, 64);
    ASSERT_TRUE(store.try_put(t, key(i), model[key(i)]).ok());
  }
  store.flush_pending(t);

  hw::FaultInjector inj(platform);
  sim::Rng rng(17);
  for (int op = 0; op < 400; ++op) {
    // Two staggered failure domains: stores 0 and 2 go bad while the
    // workload runs. Copies are (s, s+1), so every logical shard keeps
    // at least one clean copy throughout.
    if (op == 100 || op == 220) {
      ASSERT_GT(inj.poison_live(*ns[op == 100 ? 0 : 2], 12, 2), 0u) << op;
    }
    const std::uint64_t id = rng.uniform(200);
    if (rng.uniform(3) == 0) {
      const std::string v = workload::make_value(id, op + 1, 64);
      const auto r = store.try_put(t, key(id), v);
      if (r.ok()) model[key(id)] = v;  // only acked writes enter the model
    } else {
      std::string v;
      const auto r = store.try_get(t, key(id), &v);
      ASSERT_NE(r.status, workload::OpStatus::kDataLoss) << op;
      if (r.ok()) {
        ASSERT_EQ(v, model[key(id)]) << "silent corruption at op " << op;
      }
    }
    store.background_turn(t);
  }

  for (int turn = 0; turn < 6000 && !store.all_healthy(); ++turn)
    store.background_turn(t);
  ASSERT_TRUE(store.all_healthy());
  store.flush_pending(t);
  const auto& st = store.resilience();
  EXPECT_GT(st.media_errors, 0u);
  EXPECT_GE(st.quarantined, 1u);
  EXPECT_EQ(st.recovered, st.quarantined);
  EXPECT_GT(st.keys_resilvered, 0u);
  EXPECT_EQ(st.keys_lost, 0u);
  EXPECT_TRUE(store.check(t).ok());

  // Full keyspace, byte-identical — through the frontend and from each
  // rebuilt store directly.
  for (auto& [k, want] : model) {
    std::string v;
    ASSERT_TRUE(store.try_get(t, k, &v).ok()) << k;
    ASSERT_EQ(v, want) << k;
    const unsigned s = workload::shard_of(k, 4);
    for (unsigned r = 0; r < 2; ++r) {
      std::string copy;
      ASSERT_TRUE(store.shard((s + r) % 4).try_get(t, k, &copy).ok()) << k;
      ASSERT_EQ(copy, want) << k << " copy " << r;
    }
  }
}

// An armed device read fires mid-workload: the machine check kills the
// "process" (frozen platform — the frontend must NOT contain that), and
// a fresh frontend over the same namespaces recovers: the ARS pass at
// open quarantines the poisoned store, the rebuild re-silvers it from
// its replica, and every key reads back as its last-acked value (the
// one in-flight op may land either side of the crash).
TEST(FaultCampaign, ShardedFrontendRecoversFromArmedReadCrash) {
  hw::Platform platform;
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 2, 16ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = 2;
  so.tuning.memtable_bytes = 2 << 10;

  std::map<std::string, std::string> model;
  std::string inflight_key, inflight_val;
  {
    workload::ShardedStore store(ns, so);
    sim::ThreadCtx t({.id = 1, .socket = 0, .mlp = 8, .seed = 3});
    store.create(t);
    for (int i = 0; i < 80; ++i) {
      model[workload::key_name(i)] = workload::make_value(i, 0, 64);
      ASSERT_TRUE(
          store.try_put(t, workload::key_name(i), model[workload::key_name(i)])
              .ok());
    }
    store.flush_pending(t);

    hw::FaultInjector inj(platform);
    inj.arm_nth_device_read(400);
    bool crashed = false;
    sim::Rng rng(5);
    try {
      for (int op = 0; op < 4000; ++op) {
        const std::uint64_t id = rng.uniform(80);
        if (rng.uniform(2) == 0) {
          inflight_key = workload::key_name(id);
          inflight_val = workload::make_value(id, op + 1, 64);
          const auto r = store.try_put(t, inflight_key, inflight_val);
          if (r.ok()) model[inflight_key] = inflight_val;
          inflight_key.clear();
        } else {
          std::string v;
          (void)store.try_get(t, workload::key_name(id), &v);
        }
      }
    } catch (const hw::MediaError&) {
      crashed = platform.frozen();
    }
    ASSERT_TRUE(crashed) << "armed read never fired — workload too small";
  }

  platform.clear_media_fault();
  platform.reset_timing();
  workload::ShardedStore again(ns, so);
  sim::ThreadCtx t({.id = 9, .socket = 0, .mlp = 8, .seed = 7});
  ASSERT_TRUE(again.open(t));
  EXPECT_FALSE(again.all_healthy());  // ARS-at-open found the poison
  for (int turn = 0; turn < 6000 && !again.all_healthy(); ++turn)
    again.background_turn(t);
  ASSERT_TRUE(again.all_healthy());
  EXPECT_GE(again.resilience().recovered, 1u);
  EXPECT_TRUE(again.check(t).ok());

  for (auto& [k, want] : model) {
    std::string v;
    const auto r = again.try_get(t, k, &v);
    ASSERT_TRUE(r.ok()) << k;
    if (k == inflight_key) {
      // The crash interrupted this put: pre- or post-state, nothing else.
      ASSERT_TRUE(v == want || v == inflight_val) << k;
    } else {
      ASSERT_EQ(v, want) << k;
    }
  }
}

}  // namespace
}  // namespace xp::crashmc
