// Tests for the mini-PMDK: pool lifecycle, transactional allocator,
// undo-log transactions, crash-point recovery properties, micro-buffering.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pmemlib/microbuf.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"

namespace xp::pmem {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

struct PoolFixture : ::testing::Test {
  PoolFixture() : ns(platform.optane(64 << 20)), pool(ns) {}
  Platform platform;
  PmemNamespace& ns;
  Pool pool;
};

TEST_F(PoolFixture, CreateAndOpen) {
  ThreadCtx t = make_thread();
  pool.create(t, 1024);
  EXPECT_NE(pool.root(t), 0u);
  EXPECT_EQ(pool.root_size(t), 1024u);

  Pool reopened(ns);
  EXPECT_TRUE(reopened.open(t));
  EXPECT_EQ(reopened.root(t), pool.root(t));
}

TEST_F(PoolFixture, OpenRejectsUnformatted) {
  ThreadCtx t = make_thread();
  Pool p(ns);
  EXPECT_FALSE(p.open(t));
}

TEST_F(PoolFixture, RootIsZeroed) {
  ThreadCtx t = make_thread();
  pool.create(t, 256);
  std::vector<std::uint8_t> out(256);
  ns.peek(pool.root(t), out);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 0);
}

TEST_F(PoolFixture, TxAllocReturnsAlignedDistinct) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  Tx tx(pool, t);
  const std::uint64_t a = pool.tx_alloc(tx, 100);
  const std::uint64_t b = pool.tx_alloc(tx, 100);
  tx.commit();
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 128);  // 100 rounds to 128
}

TEST_F(PoolFixture, FreeListReuse) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  std::uint64_t a;
  {
    Tx tx(pool, t);
    a = pool.tx_alloc(tx, 256);
    tx.commit();
  }
  {
    Tx tx(pool, t);
    pool.tx_free(tx, a, 256);
    tx.commit();
  }
  {
    Tx tx(pool, t);
    const std::uint64_t b = pool.tx_alloc(tx, 256);
    tx.commit();
    EXPECT_EQ(b, a);  // exact-fit reuse
  }
}

TEST_F(PoolFixture, FreeChunkSplitting) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  std::uint64_t a;
  {
    Tx tx(pool, t);
    a = pool.tx_alloc(tx, 1024);
    pool.tx_free(tx, a, 1024);
    tx.commit();
  }
  Tx tx(pool, t);
  const std::uint64_t b = pool.tx_alloc(tx, 256);
  const std::uint64_t c = pool.tx_alloc(tx, 256);
  tx.commit();
  EXPECT_EQ(b, a);
  EXPECT_EQ(c, a + 256);  // carved from the same chunk
}

// ------------------------------------------------------- pool recovery --
// open(), repair() and check() share one header rule and one free-chunk
// rule. The header is {magic, pool_size, root_off, root_size, heap_top,
// free_head, identity_crc}; a free chunk starts with {next, size}.
constexpr std::uint64_t kHeapTopOff = 32;

TEST_F(PoolFixture, OutOfRangeHeapTopRestoresFromBackup) {
  // The identity CRC covers only the first four fields, so this primary
  // still looks like this pool's; its allocator state is impossible.
  ThreadCtx t = make_thread();
  pool.create(t, 1024);
  platform.crash();
  const std::uint64_t past_end = ns.size() + 4096;
  ns.poke(kHeapTopOff, bytes_of(&past_end, sizeof(past_end)));

  Pool p(ns);
  ASSERT_TRUE(p.open(t));
  EXPECT_TRUE(p.recovery().header_restored);
  EXPECT_TRUE(p.recovery().heap_sealed);
  EXPECT_EQ(p.root(t), pool.root(t));
  const Status st = p.check(t);
  EXPECT_TRUE(st.ok()) << st.to_string();
}

TEST_F(PoolFixture, ZeroedPrimaryHeaderRestoresFromBackup) {
  ThreadCtx t = make_thread();
  pool.create(t, 1024);
  platform.crash();
  const std::vector<std::uint8_t> zeros(64, 0);
  ns.poke(0, zeros);

  Pool p(ns);
  ASSERT_TRUE(p.open(t));
  EXPECT_TRUE(p.recovery().header_restored);
  EXPECT_EQ(p.root_size(t), 1024u);
  EXPECT_TRUE(p.check(t).ok());
}

TEST_F(PoolFixture, RepairCutsFreeChunkWithBadSize) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  std::uint64_t a, b;
  {
    Tx tx(pool, t);
    a = pool.tx_alloc(tx, 256);
    b = pool.tx_alloc(tx, 256);
    tx.commit();
  }
  {
    Tx tx(pool, t);
    pool.tx_free(tx, a, 256);
    pool.tx_free(tx, b, 256);  // free list: b -> a
    tx.commit();
  }
  platform.crash();
  const std::uint64_t bad_size = 100;
  ns.poke(a + 8, bytes_of(&bad_size, sizeof(bad_size)));

  Pool p(ns);
  ASSERT_TRUE(p.open(t));
  EXPECT_EQ(p.check(t).code(), ErrorCode::kCorruption);
  p.repair(t);
  EXPECT_TRUE(p.recovery().free_list_truncated);
  EXPECT_TRUE(p.check(t).ok());
  Tx tx(p, t);
  EXPECT_EQ(p.tx_alloc(tx, 256), b);  // the chunk before the cut survives
  tx.commit();
}

TEST_F(PoolFixture, TxCommitDurable) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  const std::uint64_t root = pool.root(t);
  const std::uint64_t v = 0x1122334455667788ULL;
  {
    Tx tx(pool, t);
    tx.add(root, 8);
    tx.store(root, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&v), 8));
    tx.commit();
  }
  platform.crash();
  Pool p(ns);
  ASSERT_TRUE(p.open(t));
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, root), v);
}

TEST_F(PoolFixture, TxAbortRollsBack) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  const std::uint64_t root = pool.root(t);
  const std::uint64_t v1 = 111, v2 = 222;
  store_persist_pod(t, ns, root, v1);
  {
    Tx tx(pool, t);
    tx.add(root, 8);
    tx.store(root, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&v2), 8));
    tx.abort();
  }
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, root), v1);
}

TEST_F(PoolFixture, DestructorAborts) {
  ThreadCtx t = make_thread();
  pool.create(t, 64);
  const std::uint64_t root = pool.root(t);
  const std::uint64_t v1 = 7, v2 = 8;
  store_persist_pod(t, ns, root, v1);
  {
    Tx tx(pool, t);
    tx.add(root, 8);
    tx.store(root, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&v2), 8));
    // no commit
  }
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, root), v1);
}

// Property: crash at any point during a multi-field transaction recovers
// to all-old (never a mix), because recovery rolls back the active lane.
class TxCrashPoint : public ::testing::TestWithParam<int> {};

TEST_P(TxCrashPoint, AllOrNothing) {
  const int crash_after = GetParam();
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  Pool pool(ns);
  pool.create(t, 256);
  const std::uint64_t root = pool.root(t);

  // Initial state: four slots = 1,2,3,4 (durable).
  for (int i = 0; i < 4; ++i)
    store_persist_pod(t, ns, root + i * 8, std::uint64_t(i + 1));

  {
    Tx tx(pool, t);
    for (int step = 0; step < 4; ++step) {
      if (step == crash_after) break;
      tx.add(root + step * 8, 8);
      const std::uint64_t nv = 100 + step;
      tx.store(root + step * 8,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&nv), 8));
    }
    platform.crash();  // power fails mid-transaction
    tx.release();      // the process is gone; recovery happens in open()
  }

  Pool recovered(ns);
  ASSERT_TRUE(recovered.open(t));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ns.load_pod<std::uint64_t>(t, root + i * 8),
              static_cast<std::uint64_t>(i + 1))
        << "slot " << i << " crash_after " << crash_after;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, TxCrashPoint, ::testing::Range(0, 5));

TEST(TxCommitCrash, CommittedSurvives) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  Pool pool(ns);
  pool.create(t, 64);
  const std::uint64_t root = pool.root(t);
  {
    Tx tx(pool, t);
    tx.add(root, 8);
    const std::uint64_t v = 42;
    tx.store(root, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&v), 8));
    tx.commit();
  }
  platform.crash();
  Pool recovered(ns);
  ASSERT_TRUE(recovered.open(t));
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, root), 42u);
}

// ------------------------------------------------------------ pmem_ops --
TEST(PmemOps, AutoHintPicksByCrossover) {
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t = make_thread();

  // Below the crossover: cached stores end up in the cache (clean copy
  // retained after clwb).
  std::vector<std::uint8_t> small(256, 0xaa);
  memcpy_persist(t, ns, 0, small, WriteHint::kAuto);
  EXPECT_TRUE(platform.cache(0).contains(ns.base() + 0));

  // Above: non-temporal, bypasses the cache.
  std::vector<std::uint8_t> big(4096, 0xbb);
  memcpy_persist(t, ns, 1 << 20, big, WriteHint::kAuto);
  EXPECT_FALSE(platform.cache(0).contains(ns.base() + (1 << 20)));
}

TEST(PmemOps, PersistSurvivesCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t = make_thread();
  std::vector<std::uint8_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  memcpy_persist(t, ns, 4096, data, WriteHint::kCached);
  platform.crash();
  std::vector<std::uint8_t> out(512);
  ns.peek(4096, out);
  EXPECT_EQ(out, data);
}

// ------------------------------------------------------------ microbuf --
struct MicroBufFixture : PoolFixture {
  void SetUp() override {
    ThreadCtx t = make_thread();
    pool.create(t, 8192);
  }
};

TEST_F(MicroBufFixture, UpdateAppliesMutation) {
  ThreadCtx t = make_thread();
  MicroBuf mb(pool, WriteBack::kAdaptive);
  const std::uint64_t obj = pool.root(t);
  mb.update(t, obj, 128, [](std::span<std::uint8_t> o) {
    for (auto& b : o) b = 0x5c;
  });
  std::vector<std::uint8_t> out(128);
  ns.peek(obj, out);  // durable, not just cached
  for (auto b : out) EXPECT_EQ(b, 0x5c);
}

TEST_F(MicroBufFixture, NtAndClwbProduceSameData) {
  ThreadCtx t = make_thread();
  const std::uint64_t obj = pool.root(t);
  MicroBuf nt(pool, WriteBack::kNt);
  nt.update(t, obj, 2048, [](std::span<std::uint8_t> o) {
    for (std::size_t i = 0; i < o.size(); ++i)
      o[i] = static_cast<std::uint8_t>(i * 3);
  });
  std::vector<std::uint8_t> a(2048);
  ns.peek(obj, a);

  MicroBuf cl(pool, WriteBack::kClwb);
  cl.update(t, obj + 2048, 2048, [](std::span<std::uint8_t> o) {
    for (std::size_t i = 0; i < o.size(); ++i)
      o[i] = static_cast<std::uint8_t>(i * 3);
  });
  std::vector<std::uint8_t> b(2048);
  platform.writeback_all_caches();
  ns.peek(obj + 2048, b);
  EXPECT_EQ(a, b);
}

TEST_F(MicroBufFixture, CrashMidWritebackRollsBack) {
  ThreadCtx t = make_thread();
  const std::uint64_t obj = pool.root(t);
  std::vector<std::uint8_t> init(256, 0x11);
  ns.ntstore_persist(t, obj, init);

  // Simulate a crash between undo-log append and commit by doing the
  // same steps MicroBuf does, then crashing before commit.
  {
    Tx tx(pool, t);
    tx.add(obj, 256);
    std::vector<std::uint8_t> half(256, 0x22);
    ns.ntstore(t, obj, std::span<const std::uint8_t>(half.data(), 128));
    ns.sfence(t);
    platform.crash();
    tx.release();
  }
  Pool recovered(ns);
  ASSERT_TRUE(recovered.open(t));
  std::vector<std::uint8_t> out(256);
  ns.peek(obj, out);
  for (auto b : out) EXPECT_EQ(b, 0x11);
}

TEST_F(MicroBufFixture, LatencyCrossoverShape) {
  // Fig 15: PGL-CLWB is faster for small objects, PGL-NT for large.
  // Cold objects: each update touches a distinct object, as in the
  // paper's Fig 15 sweep. (For a hot object the CPU cache retains the
  // clwb'd copy and kClwb wins at every size.)
  ThreadCtx setup = make_thread(9);
  std::uint64_t arena;
  {
    Tx tx(pool, setup);
    arena = pool.tx_alloc(tx, 64 * 8192);
    tx.commit();
  }
  auto measure = [&](WriteBack mode, std::size_t size) {
    MicroBuf mb(pool, mode);
    platform.reset_timing();
    ThreadCtx tt = make_thread(3);
    const sim::Time t0 = tt.now();
    for (int i = 0; i < 32; ++i)
      mb.update(tt, arena + static_cast<std::uint64_t>(i) * 8192, size,
                [](std::span<std::uint8_t>) {});
    return (tt.now() - t0) / 32;
  };
  EXPECT_LT(measure(WriteBack::kClwb, 128), measure(WriteBack::kNt, 128));
  EXPECT_LT(measure(WriteBack::kNt, 8192), measure(WriteBack::kClwb, 8192));
}

}  // namespace
}  // namespace xp::pmem
