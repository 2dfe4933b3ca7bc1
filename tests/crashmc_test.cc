// Crash-point model checking over every persistent store (the tentpole
// harness), plus focused crash_after()/Tx::release() interaction and
// double-recovery idempotence tests.
//
// The explorer sweeps assert zero invariant violations; together they
// enumerate well over 1000 distinct crash points across the stores. The
// negative test proves the harness has teeth: a deliberately weakened
// pmemlib commit protocol (lane retire without clwb) must be caught.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crashmc/explorer.h"
#include "crashmc/workloads.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"

namespace xp {
namespace {

using crashmc::Options;
using crashmc::Result;
using hw::Platform;
using hw::PmemNamespace;
using pmem::Pool;
using pmem::Tx;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

void expect_clean_sweep(crashmc::Target& target, const Options& opts,
                        std::uint64_t min_points) {
  const Result r = crashmc::explore(target, opts);
  for (const auto& v : r.violations) {
    ADD_FAILURE() << target.name() << " @ crash point " << v.point << ": "
                  << v.detail;
  }
  EXPECT_GE(r.points_explored, min_points)
      << target.name() << ": workload too small (total events "
      << r.total_events << ")";
  EXPECT_GT(r.fired, 0u) << target.name();
}

// ---- Explorer sweeps: every store, zero violations ----------------------

TEST(CrashMcSweep, Pmemlib) {
  auto t = crashmc::make_pmemlib_target();
  expect_clean_sweep(*t, {.max_exhaustive = 350, .samples = 300}, 300);
}

TEST(CrashMcSweep, LsmkvFlex) {
  auto t = crashmc::make_lsmkv_target(kv::WalMode::kFlex);
  expect_clean_sweep(*t, {.max_exhaustive = 256, .samples = 220}, 220);
}

TEST(CrashMcSweep, LsmkvPosix) {
  auto t = crashmc::make_lsmkv_target(kv::WalMode::kPosix);
  expect_clean_sweep(*t, {.max_exhaustive = 128, .samples = 120}, 120);
}

TEST(CrashMcSweep, Novafs) {
  auto t = crashmc::make_novafs_target();
  expect_clean_sweep(*t, {.max_exhaustive = 256, .samples = 200}, 200);
}

// Group commit: a crash anywhere inside a put_batch group must recover
// to the previous group boundary — never a torn group.
TEST(CrashMcSweep, LsmkvFlexGroupCommit) {
  auto t = crashmc::make_lsmkv_target(kv::WalMode::kFlex,
                                      /*wal_checksum=*/false,
                                      /*group_commit=*/true);
  expect_clean_sweep(*t, {.max_exhaustive = 256, .samples = 220}, 220);
}

// Batched log appends: renames and page-straddling writes commit as one
// atomic burst; a crash inside the burst must not leave a half-applied
// operation (a file under neither name, a write half-visible).
TEST(CrashMcSweep, NovafsBatchedAppends) {
  auto t = crashmc::make_novafs_target(/*log_checksum=*/false,
                                       /*batch_appends=*/true);
  expect_clean_sweep(*t, {.max_exhaustive = 256, .samples = 200}, 200);
}

TEST(CrashMcSweep, Cmap) {
  auto t = crashmc::make_cmap_target();
  expect_clean_sweep(*t, {.max_exhaustive = 200, .samples = 180}, 180);
}

TEST(CrashMcSweep, Stree) {
  auto t = crashmc::make_stree_target();
  expect_clean_sweep(*t, {.max_exhaustive = 200, .samples = 150}, 150);
}

// Sharded frontend: crash points land inside cross-shard batched
// dispatch and donated background merges. Each shard's recovered
// restriction must be that shard's pre- or post-op state (a shard's
// batch slice is atomic; the cross-shard batch as a whole is not).
TEST(CrashMcSweep, ShardedLsmkv) {
  auto t = crashmc::make_sharded_target();
  expect_clean_sweep(*t, {.max_exhaustive = 256, .samples = 200}, 200);
}

// Self-healing replicated frontend (K=2): at-rest poison lands on store
// 0 mid-run. Recovery re-opens a fresh frontend, whose ARS pass
// quarantines the poisoned store, drives the online rebuild (heal,
// reformat, re-silver, verify) to completion and checks the served
// state against the per-shard pre-/post-op model twice (a recovered
// image must recover to itself).
TEST(CrashMcSweep, ResilientReplicatedLsmkv) {
  auto t = crashmc::make_resilient_target();
  expect_clean_sweep(*t, {.max_exhaustive = 0, .samples = 60}, 60);
}

// A different sampling seed must explore different (still violation-free)
// points — cheap evidence the sampler isn't stuck on one subset.
TEST(CrashMcSweep, SeedVariesSampledPoints) {
  auto t = crashmc::make_stree_target();
  const Result a = crashmc::explore(*t, {.max_exhaustive = 64,
                                         .samples = 40,
                                         .seed = 1});
  const Result b = crashmc::explore(*t, {.max_exhaustive = 64,
                                         .samples = 40,
                                         .seed = 2});
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.total_events, b.total_events);  // workload is deterministic
}

// ---- Negative test: a broken persistence protocol must be caught --------

TEST(CrashMcNegative, SkippedCommitFlushIsDetected) {
  auto t = crashmc::make_pmemlib_target(/*inject_commit_fault=*/true);
  // Exhaustive: the vulnerable window (between a commit's fence and the
  // next durable write of the lane line) is only a few events wide.
  const Result r = crashmc::explore(*t, {.max_exhaustive = 1u << 20});
  EXPECT_FALSE(r.ok())
      << "a commit protocol that skips the lane-retire clwb must lose an "
         "acknowledged transaction at some crash point";
  for (const auto& v : r.violations) EXPECT_GT(v.point, 0u);
}

// ---- crash_after() semantics --------------------------------------------

TEST(CrashMcPlatform, EventCountIsDeterministic) {
  auto count_run = [] {
    Platform platform;
    PmemNamespace& ns = platform.optane(8 << 20);
    ThreadCtx t = make_thread();
    Pool pool(ns);
    pool.create(t, 64);
    Tx tx(pool, t);
    tx.add(pool.root(t), 8);
    const std::uint64_t v = 1;
    tx.store(pool.root(t),
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(&v), 8));
    tx.commit();
    return platform.persist_events();
  };
  EXPECT_EQ(count_run(), count_run());
  EXPECT_GT(count_run(), 0u);
}

TEST(CrashMcPlatform, FrozenPlatformIgnoresDataPath) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const std::uint64_t v1 = 0x1111;
  ns.store_persist(t, 0, std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(&v1), 8));
  platform.crash_after(1);
  const std::uint64_t v2 = 0x2222;
  EXPECT_THROW(ns.store_persist(
                   t, 0,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&v2), 8)),
               hw::CrashPointHit);
  ASSERT_TRUE(platform.frozen());
  // While frozen: stores are dropped, loads read zeros.
  const std::uint64_t v3 = 0x3333;
  ns.store_persist(t, 0, std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(&v3), 8));
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, 0), 0u);
  platform.clear_crash_trigger();
  EXPECT_FALSE(platform.frozen());
  // The durable image kept the crash-time contents (v2 hit the WPQ as its
  // flush was the armed event; v3 was dropped).
  std::uint64_t durable = 0;
  ns.peek(0, std::span<std::uint8_t>(
                 reinterpret_cast<std::uint8_t*>(&durable), 8));
  EXPECT_TRUE(durable == v1 || durable == v2) << durable;
  EXPECT_NE(durable, v3);
}

// ---- Tx::release() interaction with crash points ------------------------

struct ReleaseFixture {
  ReleaseFixture() {
    t = std::make_unique<ThreadCtx>(make_thread(0));
    pool.create(*t, 16);
    root = pool.root(*t);
    pmem::store_persist_pod(*t, ns, root, std::uint64_t{11});
    pmem::store_persist_pod(*t, ns, root + 8, std::uint64_t{33});
  }
  Platform platform;
  PmemNamespace& ns = platform.optane(8 << 20);
  Pool pool{ns};
  std::unique_ptr<ThreadCtx> t;
  std::uint64_t root = 0;
};

TEST(CrashMcRelease, ReleasedTxRollsBackExactlyOnceOnOpen) {
  ReleaseFixture f;
  {
    Tx tx(f.pool, *f.t);
    tx.add(f.root, 8);
    const std::uint64_t v = 22;
    tx.store(f.root, std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(&v), 8));
    tx.release();
  }
  // The dropped handle must NOT roll back: the new value is still there.
  EXPECT_EQ(f.ns.load_pod<std::uint64_t>(*f.t, f.root), 22u);

  // open() finds the lane durably active and rolls it back.
  ThreadCtx t2 = make_thread(3);
  Pool reopened(f.ns);
  ASSERT_TRUE(reopened.open(t2));
  EXPECT_EQ(f.ns.load_pod<std::uint64_t>(t2, f.root), 11u);
  EXPECT_TRUE(reopened.check(t2).ok());

  // A second open() is a no-op (the lane was retired by the first).
  Pool again(f.ns);
  ASSERT_TRUE(again.open(t2));
  EXPECT_EQ(f.ns.load_pod<std::uint64_t>(t2, f.root), 11u);
  EXPECT_TRUE(again.check(t2).ok());
}

// Sweep every crash point inside a released (never committed) tx: no
// matter where the machine dies, recovery must roll the slot back.
TEST(CrashMcRelease, ReleasedTxNeverSurvivesAnyCrashPoint) {
  // Measure the event window of the tx body once.
  std::uint64_t window = 0;
  {
    ReleaseFixture f;
    const std::uint64_t before = f.platform.persist_events();
    Tx tx(f.pool, *f.t);
    tx.add(f.root, 8);
    const std::uint64_t v = 22;
    tx.store(f.root, std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(&v), 8));
    tx.release();
    window = f.platform.persist_events() - before;
  }
  ASSERT_GT(window, 0u);

  for (std::uint64_t k = 1; k <= window; ++k) {
    ReleaseFixture f;
    f.platform.crash_after(k);
    try {
      Tx tx(f.pool, *f.t);
      tx.add(f.root, 8);
      const std::uint64_t v = 22;
      tx.store(f.root, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(&v), 8));
      tx.release();
    } catch (const hw::CrashPointHit&) {
    }
    EXPECT_TRUE(f.platform.crash_fired()) << k;
    f.platform.clear_crash_trigger();
    f.platform.reset_timing();

    ThreadCtx t2 = make_thread(3);
    Pool reopened(f.ns);
    ASSERT_TRUE(reopened.open(t2)) << k;
    EXPECT_EQ(f.ns.load_pod<std::uint64_t>(t2, f.root), 11u) << k;
    EXPECT_TRUE(reopened.check(t2).ok()) << k;
  }
}

// Two lanes, interleaved fates: thread A's tx commits, thread B's tx is
// released (still active in its lane). At every crash point in the
// combined window the lanes must recover independently — A's slot is
// pre- or post-tx (post once A's window has passed), B's slot always
// rolls back.
TEST(CrashMcRelease, ConcurrentLanesRecoverIndependently) {
  auto body = [](ReleaseFixture& f) {
    ThreadCtx ta = make_thread(0);  // lane 0
    ThreadCtx tb = make_thread(1);  // lane 1
    {
      Tx txa(f.pool, ta);
      txa.add(f.root, 8);
      const std::uint64_t v = 22;
      txa.store(f.root, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(&v), 8));
      txa.commit();
    }
    {
      Tx txb(f.pool, tb);
      txb.add(f.root + 8, 8);
      const std::uint64_t v = 44;
      txb.store(f.root + 8,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(&v), 8));
      txb.release();
    }
  };

  std::uint64_t a_window = 0, total = 0;
  {
    ReleaseFixture f;
    ThreadCtx ta = make_thread(0);
    const std::uint64_t before = f.platform.persist_events();
    {
      Tx txa(f.pool, ta);
      txa.add(f.root, 8);
      const std::uint64_t v = 22;
      txa.store(f.root, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(&v), 8));
      txa.commit();
    }
    a_window = f.platform.persist_events() - before;
  }
  {
    ReleaseFixture f;
    const std::uint64_t before = f.platform.persist_events();
    body(f);
    total = f.platform.persist_events() - before;
  }
  ASSERT_GT(a_window, 0u);
  ASSERT_GT(total, a_window);

  for (std::uint64_t k = 1; k <= total; ++k) {
    ReleaseFixture f;
    f.platform.crash_after(k);
    try {
      body(f);
    } catch (const hw::CrashPointHit&) {
    }
    f.platform.clear_crash_trigger();
    f.platform.reset_timing();

    ThreadCtx t2 = make_thread(3);
    Pool reopened(f.ns);
    ASSERT_TRUE(reopened.open(t2)) << k;
    const auto a = f.ns.load_pod<std::uint64_t>(t2, f.root);
    const auto b = f.ns.load_pod<std::uint64_t>(t2, f.root + 8);
    if (k > a_window) {
      EXPECT_EQ(a, 22u) << k;  // committed tx must never be rolled back
    } else {
      EXPECT_TRUE(a == 11u || a == 22u) << k << " got " << a;
    }
    EXPECT_EQ(b, 33u) << k;  // released tx must always be rolled back
    EXPECT_TRUE(reopened.check(t2).ok()) << k;
  }
}

// ---- Double-recovery idempotence ----------------------------------------

std::vector<std::uint8_t> durable_image(crashmc::Target& target) {
  std::vector<std::uint8_t> img;
  for (const PmemNamespace* ns : target.namespaces()) {
    std::vector<std::uint8_t> part(ns->size());
    ns->peek(0, part);
    img.insert(img.end(), part.begin(), part.end());
  }
  return img;
}

// Crash a store mid-run, recover it twice with fresh objects: the second
// recovery must be a byte-for-byte no-op on the durable image (recovery
// itself persists everything it changes).
void expect_double_recovery_idempotent(crashmc::Target& target) {
  for (const std::uint64_t k : {5ull, 17ull, 43ull, 97ull}) {
    Platform& platform = target.reset();
    platform.crash_after(k);
    try {
      target.run();
    } catch (const hw::CrashPointHit&) {
    }
    platform.clear_crash_trigger();
    platform.reset_timing();

    EXPECT_EQ(target.recover_and_check(), "") << target.name() << " @" << k;
    const auto after_first = durable_image(target);
    EXPECT_EQ(target.recover_and_check(), "") << target.name() << " @" << k;
    const auto after_second = durable_image(target);
    EXPECT_TRUE(after_first == after_second)
        << target.name() << " @" << k
        << ": second recovery modified the durable image";
  }
}

TEST(CrashMcDoubleRecovery, PmemlibPool) {
  auto t = crashmc::make_pmemlib_target();
  expect_double_recovery_idempotent(*t);
}

TEST(CrashMcDoubleRecovery, LsmkvWal) {
  auto t = crashmc::make_lsmkv_target();
  expect_double_recovery_idempotent(*t);
}

TEST(CrashMcDoubleRecovery, Novafs) {
  auto t = crashmc::make_novafs_target();
  expect_double_recovery_idempotent(*t);
}

}  // namespace
}  // namespace xp
