// Tests for mini-NOVA and the DAX comparators: data-path correctness
// (random-write property tests against a reference model), log replay and
// crash recovery, datalog merge semantics, the log cleaner, multi-DIMM
// allocation, and the Fig 12 latency ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "novafs/daxfs.h"
#include "novafs/novafs.h"
#include "xpsim/platform.h"

namespace xp::nova {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 16, .seed = id + 1});
}

std::vector<std::uint8_t> pattern(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 13 + seed * 7 + 1);
  return v;
}

// ------------------------------------------------------------ basic ops --
struct NovaParam {
  bool datalog;
  const char* name;
};

// Print the name, not gtest's byte dump (padding bytes and the
// ASLR-randomized `name` pointer), so the registered test names are
// stable.
void PrintTo(const NovaParam& p, std::ostream* os) { *os << p.name; }

class NovaBasics : public ::testing::TestWithParam<NovaParam> {
 protected:
  NovaOptions make_opts() const {
    NovaOptions o;
    o.datalog = GetParam().datalog;
    return o;
  }
};

TEST_P(NovaBasics, CreateOpenWriteRead) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, make_opts());
  ThreadCtx t = make_thread();
  fs.format(t);

  const int f = fs.create(t, "hello.txt");
  ASSERT_GE(f, 0);
  EXPECT_EQ(fs.open(t, "hello.txt"), f);
  EXPECT_EQ(fs.open(t, "missing"), -1);

  const auto data = pattern(100, 1);
  fs.write(t, f, 0, data);
  EXPECT_EQ(fs.size(t, f), 100u);
  std::vector<std::uint8_t> out(100);
  EXPECT_EQ(fs.read(t, f, 0, out), 100u);
  EXPECT_EQ(out, data);
}

TEST_P(NovaBasics, SparseFileReadsZeros) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, make_opts());
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "sparse");
  const auto data = pattern(64, 2);
  fs.write(t, f, 100000, data);
  std::vector<std::uint8_t> out(64);
  EXPECT_EQ(fs.read(t, f, 50000, out), 64u);
  for (auto b : out) EXPECT_EQ(b, 0);
}

TEST_P(NovaBasics, CrossPageWrite) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, make_opts());
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  const auto data = pattern(10000, 3);
  fs.write(t, f, 4000, data);  // spans three pages
  std::vector<std::uint8_t> out(10000);
  EXPECT_EQ(fs.read(t, f, 4000, out), 10000u);
  EXPECT_EQ(out, data);
}

TEST_P(NovaBasics, OverwriteVisible) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, make_opts());
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  fs.write(t, f, 0, pattern(4096, 1));
  const auto newer = pattern(64, 9);
  fs.write(t, f, 100, newer);
  std::vector<std::uint8_t> out(64);
  fs.read(t, f, 100, out);
  EXPECT_EQ(out, newer);
  // Neighbors keep the old data.
  std::vector<std::uint8_t> before(4);
  fs.read(t, f, 96, before);
  const auto base = pattern(4096, 1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(before[i], base[96 + i]);
}

INSTANTIATE_TEST_SUITE_P(Modes, NovaBasics,
                         ::testing::Values(NovaParam{false, "cow"},
                                           NovaParam{true, "datalog"}),
                         [](const auto& i) { return i.param.name; });

// -------------------------------------------- randomized reference model --
class NovaRandomized : public ::testing::TestWithParam<NovaParam> {};

TEST_P(NovaRandomized, MatchesReferenceModel) {
  Platform platform;
  PmemNamespace& ns = platform.optane(512 << 20);
  NovaOptions o;
  o.datalog = GetParam().datalog;
  o.merge_threshold = 8;  // exercise merges frequently
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "model");

  constexpr std::uint64_t kFileSize = 128 << 10;
  std::vector<std::uint8_t> reference(kFileSize, 0);
  sim::Rng rng(99);
  for (int op = 0; op < 400; ++op) {
    const std::size_t len = 1 + rng.uniform(6000);
    const std::uint64_t off = rng.uniform(kFileSize - len);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    fs.write(t, f, off, data);
    std::memcpy(reference.data() + off, data.data(), len);

    // Random read-back check.
    const std::size_t rlen = 1 + rng.uniform(8000);
    const std::uint64_t roff = rng.uniform(kFileSize - rlen);
    std::vector<std::uint8_t> out(rlen);
    const std::size_t got = fs.read(t, f, roff, out);
    if (got > 0) {
      ASSERT_EQ(0, std::memcmp(out.data(), reference.data() + roff, got))
          << "op " << op << " off " << roff << " len " << rlen;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, NovaRandomized,
                         ::testing::Values(NovaParam{false, "cow"},
                                           NovaParam{true, "datalog"}),
                         [](const auto& i) { return i.param.name; });

// ------------------------------------------------------- mount / recovery --
class NovaRecovery : public ::testing::TestWithParam<NovaParam> {};

TEST_P(NovaRecovery, RemountSeesAllData) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = GetParam().datalog;
  ThreadCtx t = make_thread();
  const auto d1 = pattern(3000, 1);
  const auto d2 = pattern(64, 2);
  {
    NovaFs fs(ns, o);
    fs.format(t);
    const int f = fs.create(t, "persist.me");
    fs.write(t, f, 0, d1);
    fs.write(t, f, 500, d2);
    platform.crash();
  }
  NovaFs fs2(ns, o);
  ASSERT_TRUE(fs2.mount(t));
  const int f = fs2.open(t, "persist.me");
  ASSERT_GE(f, 0);
  std::vector<std::uint8_t> out(3000);
  EXPECT_EQ(fs2.read(t, f, 0, out), 3000u);
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::uint8_t expect =
        (i >= 500 && i < 564) ? d2[i - 500] : d1[i];
    ASSERT_EQ(out[i], expect) << i;
  }
}

TEST_P(NovaRecovery, MountRejectsUnformatted) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  NovaOptions o;
  o.datalog = GetParam().datalog;
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  EXPECT_FALSE(fs.mount(t));
}

TEST_P(NovaRecovery, ManyFilesSurvive) {
  Platform platform;
  PmemNamespace& ns = platform.optane(512 << 20);
  NovaOptions o;
  o.datalog = GetParam().datalog;
  ThreadCtx t = make_thread();
  {
    NovaFs fs(ns, o);
    fs.format(t);
    for (int i = 0; i < 50; ++i) {
      const int f = fs.create(t, "file" + std::to_string(i));
      fs.write(t, f, 0, pattern(256, static_cast<unsigned>(i)));
    }
    platform.crash();
  }
  NovaFs fs2(ns, o);
  ASSERT_TRUE(fs2.mount(t));
  for (int i = 0; i < 50; ++i) {
    const int f = fs2.open(t, "file" + std::to_string(i));
    ASSERT_GE(f, 0) << i;
    std::vector<std::uint8_t> out(256);
    EXPECT_EQ(fs2.read(t, f, 0, out), 256u);
    EXPECT_EQ(out, pattern(256, static_cast<unsigned>(i)));
  }
}

TEST_P(NovaRecovery, CrashMidWriteIsAtomicPerEntry) {
  // NOVA's claim (unlike DAX fs): file updates are atomic. We crash with
  // a write's data persisted but the log entry's commit word missing is
  // impossible through the public API (the API persists before
  // returning); instead verify that *unsynced cache-resident* DAX writes
  // would be lost while every completed NOVA write survives.
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = GetParam().datalog;
  ThreadCtx t = make_thread();
  NovaFs fs(ns, o);
  fs.format(t);
  const int f = fs.create(t, "atomic");
  for (int i = 0; i < 20; ++i)
    fs.write(t, f, static_cast<std::uint64_t>(i) * 64, pattern(64, 5));
  platform.crash();
  NovaFs fs2(ns, o);
  ASSERT_TRUE(fs2.mount(t));
  const int f2 = fs2.open(t, "atomic");
  std::vector<std::uint8_t> out(64);
  for (int i = 0; i < 20; ++i) {
    fs2.read(t, f2, static_cast<std::uint64_t>(i) * 64, out);
    EXPECT_EQ(out, pattern(64, 5)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, NovaRecovery,
                         ::testing::Values(NovaParam{false, "cow"},
                                           NovaParam{true, "datalog"}),
                         [](const auto& i) { return i.param.name; });

// --------------------------------------------------------- datalog internals
TEST(NovaDatalog, SmallWritesCreateOverlays) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = true;
  o.merge_threshold = 1000;  // don't merge in this test
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  fs.write(t, f, 0, pattern(4096, 1));  // base page (CoW: full page)
  EXPECT_EQ(fs.overlay_count(f), 0u);
  for (int i = 0; i < 10; ++i)
    fs.write(t, f, static_cast<std::uint64_t>(i) * 64, pattern(64, 2));
  EXPECT_EQ(fs.overlay_count(f), 10u);
}

TEST(NovaDatalog, MergeThresholdBoundsOverlays) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = true;
  o.merge_threshold = 4;
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  for (int i = 0; i < 40; ++i)
    fs.write(t, f, (static_cast<std::uint64_t>(i) * 64) % 4096,
             pattern(64, static_cast<unsigned>(i)));
  EXPECT_LE(fs.overlay_count(f), 4u);
  // Data still correct after merges.
  std::vector<std::uint8_t> out(64);
  fs.read(t, f, (39ull * 64) % 4096, out);
  EXPECT_EQ(out, pattern(64, 39));
}

TEST(NovaDatalog, CowModeNeverCreatesOverlays) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = false;
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  for (int i = 0; i < 10; ++i) fs.write(t, f, 0, pattern(64, 1));
  EXPECT_EQ(fs.overlay_count(f), 0u);
}

TEST(NovaCleaner, LogCleaningPreservesData) {
  Platform platform;
  PmemNamespace& ns = platform.optane(512 << 20);
  NovaOptions o;
  o.datalog = true;
  o.merge_threshold = 16;
  o.clean_threshold = 4;  // clean aggressively
  NovaFs fs(ns, o);
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "cleanme");
  const std::uint64_t file_size = 64 << 10;
  std::vector<std::uint8_t> reference(file_size, 0);
  sim::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t off = rng.uniform(file_size / 64) * 64;
    const auto data = pattern(64, static_cast<unsigned>(i));
    fs.write(t, f, off, data);
    std::memcpy(reference.data() + off, data.data(), 64);
  }
  EXPECT_GT(fs.cleanings(), 0u);
  std::vector<std::uint8_t> out(file_size);
  fs.read(t, f, 0, out);
  EXPECT_EQ(0, std::memcmp(out.data(), reference.data(), file_size));

  // And it still remounts correctly.
  platform.crash();
  NovaFs fs2(ns, o);
  ASSERT_TRUE(fs2.mount(t));
  const int f2 = fs2.open(t, "cleanme");
  std::vector<std::uint8_t> out2(file_size);
  fs2.read(t, f2, 0, out2);
  EXPECT_EQ(0, std::memcmp(out2.data(), reference.data(), file_size));
}

// --------------------------------------------------------------- DAX fs --
TEST(DaxFsTest, BasicReadWrite) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  DaxFs fs(ns, xfs_profile(), /*sync_mode=*/false);
  ThreadCtx t = make_thread();
  const int f = fs.create(t, "a");
  const auto data = pattern(5000, 1);
  fs.write(t, f, 123, data);
  std::vector<std::uint8_t> out(5000);
  EXPECT_EQ(fs.read(t, f, 123, out), 5000u);
  EXPECT_EQ(out, data);
}

TEST(DaxFsTest, UnsyncedWritesLostOnCrash) {
  // The paper's point: DAX file systems don't give data durability
  // without fsync.
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  DaxFs fs(ns, xfs_profile(), /*sync_mode=*/false);
  ThreadCtx t = make_thread();
  const int f = fs.create(t, "a");
  fs.write(t, f, 0, pattern(64, 1));
  platform.crash();
  std::vector<std::uint8_t> out(64);
  fs.read(t, f, 0, out);
  int nonzero = 0;
  for (auto b : out) nonzero += b != 0;
  EXPECT_EQ(nonzero, 0);  // data evaporated with the CPU cache
}

TEST(DaxFsTest, SyncedWritesSurviveCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  DaxFs fs(ns, xfs_profile(), /*sync_mode=*/true);
  ThreadCtx t = make_thread();
  const int f = fs.create(t, "a");
  const auto data = pattern(64, 1);
  fs.write(t, f, 0, data);
  platform.crash();
  std::vector<std::uint8_t> out(64);
  fs.read(t, f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(DaxFsTest, Ext4SyncSlowerThanXfsSync) {
  Platform platform;
  PmemNamespace& ns1 = platform.optane(64 << 20);
  PmemNamespace& ns2 = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  DaxFs xfs(ns1, xfs_profile(), true);
  DaxFs ext4(ns2, ext4_profile(), true);
  const int f1 = xfs.create(t, "a");
  const int f2 = ext4.create(t, "a");
  const auto data = pattern(64, 1);

  const sim::Time x0 = t.now();
  for (int i = 0; i < 10; ++i) xfs.write(t, f1, 0, data);
  const sim::Time xfs_time = t.now() - x0;
  const sim::Time e0 = t.now();
  for (int i = 0; i < 10; ++i) ext4.write(t, f2, 0, data);
  const sim::Time ext4_time = t.now() - e0;
  EXPECT_GT(ext4_time, 3 * xfs_time);
}

// --------------------------------------------------------- Fig 12 anchor --
TEST(Fig12Shape, DatalogSpeedsUpSmallOverwrites) {
  Platform platform;
  ThreadCtx t = make_thread();

  auto overwrite_latency = [&](NovaFs& fs, std::size_t size) {
    const int f = fs.open(t, "bench");
    sim::Rng rng(3);
    const sim::Time t0 = t.now();
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t off = rng.uniform((1 << 20) / size) * size;
      fs.write(t, f, off, pattern(size, 1));
    }
    return sim::to_ns(t.now() - t0) / n;
  };

  PmemNamespace& ns1 = platform.optane(256 << 20);
  NovaOptions plain;
  NovaFs nova(ns1, plain);
  nova.format(t);
  const int f1 = nova.create(t, "bench");
  nova.write(t, f1, 0, std::vector<std::uint8_t>(1 << 20, 1));

  PmemNamespace& ns2 = platform.optane(256 << 20);
  NovaOptions dl;
  dl.datalog = true;
  NovaFs datalog(ns2, dl);
  datalog.format(t);
  const int f2 = datalog.create(t, "bench");
  datalog.write(t, f2, 0, std::vector<std::uint8_t>(1 << 20, 1));

  const double nova64 = overwrite_latency(nova, 64);
  const double datalog64 = overwrite_latency(datalog, 64);
  // Paper: ~7x improvement for 64 B random overwrites.
  EXPECT_GT(nova64 / datalog64, 3.0);

  // Read path pays a small merge penalty (Fig 12 right).
  auto read_latency = [&](NovaFs& fs) {
    const int f = fs.open(t, "bench");
    std::vector<std::uint8_t> out(4096);
    const sim::Time t0 = t.now();
    for (int i = 0; i < 100; ++i) fs.read(t, f, (i % 256) * 4096ull, out);
    return sim::to_ns(t.now() - t0) / 100;
  };
  (void)read_latency;  // exercised in bench/fig12
}



// --------------------------------------------- crash-point sweep (P) ----
// Write K records; crash; remount: every completed write must be fully
// visible (NOVA's per-entry atomic commit), regardless of where the
// power failed relative to the op stream.
class NovaCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(NovaCrashSweep, CompletedWritesAlwaysSurvive) {
  const int writes_before_crash = GetParam();
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaOptions o;
  o.datalog = (writes_before_crash % 2) == 1;  // alternate modes
  ThreadCtx t = make_thread();
  {
    NovaFs fs(ns, o);
    fs.format(t);
    const int f = fs.create(t, "sweep");
    for (int i = 0; i < writes_before_crash; ++i) {
      fs.write(t, f, static_cast<std::uint64_t>(i) * 100,
               pattern(100, static_cast<unsigned>(i)));
    }
    platform.crash();
  }
  NovaFs fs2(ns, o);
  ASSERT_TRUE(fs2.mount(t));
  const int f = fs2.open(t, "sweep");
  if (writes_before_crash == 0) {
    ASSERT_GE(f, 0);  // create itself committed
    return;
  }
  std::vector<std::uint8_t> out(100);
  for (int i = 0; i < writes_before_crash; ++i) {
    ASSERT_EQ(fs2.read(t, f, static_cast<std::uint64_t>(i) * 100, out),
              100u)
        << i;
    EXPECT_EQ(out, pattern(100, static_cast<unsigned>(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, NovaCrashSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 9, 17, 40, 80));

// ------------------------------------------------------ unlink / truncate
TEST(NovaUnlink, RemovesAndReclaims) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, NovaOptions{});
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "doomed");
  fs.write(t, f, 0, pattern(8192, 1));
  ASSERT_TRUE(fs.unlink(t, "doomed"));
  EXPECT_EQ(fs.open(t, "doomed"), -1);
  EXPECT_FALSE(fs.unlink(t, "doomed"));
}

TEST(NovaUnlink, SurvivesRemount) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    NovaFs fs(ns, NovaOptions{});
    fs.format(t);
    const int keep = fs.create(t, "keep");
    fs.write(t, keep, 0, pattern(64, 1));
    const int gone = fs.create(t, "gone");
    fs.write(t, gone, 0, pattern(64, 2));
    fs.unlink(t, "gone");
    platform.crash();
  }
  NovaFs fs2(ns, NovaOptions{});
  ASSERT_TRUE(fs2.mount(t));
  EXPECT_GE(fs2.open(t, "keep"), 0);
  EXPECT_EQ(fs2.open(t, "gone"), -1);
}

TEST(NovaUnlink, InodeSlotReusedAfterRemount) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  int old_ino;
  {
    NovaFs fs(ns, NovaOptions{});
    fs.format(t);
    old_ino = fs.create(t, "a");
    fs.unlink(t, "a");
    platform.crash();
  }
  NovaFs fs2(ns, NovaOptions{});
  ASSERT_TRUE(fs2.mount(t));
  EXPECT_EQ(fs2.create(t, "b"), old_ino);  // slot recycled
}

TEST(NovaTruncate, ShrinkDiscardsTail) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, NovaOptions{});
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  fs.write(t, f, 0, pattern(10000, 3));
  fs.truncate(t, f, 5000);
  EXPECT_EQ(fs.size(t, f), 5000u);
  std::vector<std::uint8_t> out(10000);
  EXPECT_EQ(fs.read(t, f, 0, out), 5000u);
}

TEST(NovaTruncate, ReextensionReadsZeros) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  NovaFs fs(ns, NovaOptions{});
  ThreadCtx t = make_thread();
  fs.format(t);
  const int f = fs.create(t, "x");
  fs.write(t, f, 0, pattern(8192, 4));
  fs.truncate(t, f, 1000);
  fs.truncate(t, f, 8192);  // extend again
  std::vector<std::uint8_t> out(8192);
  EXPECT_EQ(fs.read(t, f, 0, out), 8192u);
  const auto base = pattern(8192, 4);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(out[i], base[i]) << i;
  for (int i = 1000; i < 8192; ++i) ASSERT_EQ(out[i], 0) << i;
}

TEST(NovaTruncate, SurvivesRemount) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    NovaFs fs(ns, NovaOptions{});
    fs.format(t);
    const int f = fs.create(t, "x");
    fs.write(t, f, 0, pattern(8192, 5));
    fs.truncate(t, f, 3000);
    platform.crash();
  }
  NovaFs fs2(ns, NovaOptions{});
  ASSERT_TRUE(fs2.mount(t));
  const int f = fs2.open(t, "x");
  EXPECT_EQ(fs2.size(t, f), 3000u);
}

// ------------------------------------------------------- malformed logs --
// Media that still parses can break the entry rule. Each case damages one
// log of a restarted image; mount must end that log at the damage (or the
// chain at the page that links back), report the inode, and leave an
// image fsck accepts with every other file intact, in both entry formats.
// The offsets mirror novafs.cc's persistent layout: the inode table at
// 4 KB with 64 B inodes (log_head at +8), a log page's `next` word at +0
// and its entries from +16, a 32 B entry header (magic_type, total_len),
// and a dirent payload of (u32 target ino, u32 name length).
//
// The far cases point a page reference past the namespace end (2^40):
// f1's head-page link, its first entry's data page, or its inode's
// log_head. Mount must bound each before following it.
//
// Every case also runs on a second image whose f1 overwrites page 0 130
// times. Copy-on-write alternates that page between two data pages, so a
// truncated f1 keeps an entry naming a page that a dropped entry freed
// and f2 or f1's own second log page may have reused. Mount must drop
// that reference (ending the log before the entry that set it) rather
// than leave the page with two owners.
enum class Damage {
  kUnknownType,
  kZeroLength,
  kDirentOverrun,
  kSelfLink,
  kFarLink,
  kFarPage,
  kFarHead,
};

struct MalformedParam {
  Damage damage;
  bool log_checksum;
  const char* name;
  bool overwrite = false;  // f1 rewrites one page instead of 130
};
void PrintTo(const MalformedParam& p, std::ostream* os) { *os << p.name; }

template <typename T>
void poke_pod(PmemNamespace& ns, std::uint64_t off, const T& v) {
  ns.poke(off, std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)));
}
std::uint64_t log_head(PmemNamespace& ns, unsigned ino) {
  return ns.peek_pod<std::uint64_t>(4096 + ino * 64 + 8);
}
// Offset of entry `k` of the log's first page.
std::uint64_t entry_at(PmemNamespace& ns, unsigned ino, int k) {
  std::uint64_t pos = log_head(ns, ino) + 16;
  for (int i = 0; i < k; ++i) pos += ns.peek_pod<std::uint32_t>(pos + 4);
  return pos;
}

class NovaMalformedLog : public ::testing::TestWithParam<MalformedParam> {};

TEST_P(NovaMalformedLog, MountTruncatesAndReports) {
  const MalformedParam& p = GetParam();
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  NovaOptions o;
  o.log_checksum = p.log_checksum;
  ThreadCtx t = make_thread();
  // f0..f2 are inodes 1..3, named by the directory log's first three
  // dirents. f1 writes 130 pages once each (or page 0 130 times), so its
  // log spans two pages in either format.
  std::map<std::string, std::vector<std::uint8_t>> model;
  model["f0"] = pattern(2 * NovaFs::kPageSize, 1);
  model["f2"] = pattern(2 * NovaFs::kPageSize, 3);
  std::vector<std::uint8_t>& f1 = model["f1"];
  const std::uint64_t stride = p.overwrite ? 0 : NovaFs::kPageSize;
  f1.assign(129 * stride + 64, 0);
  {
    NovaFs fs(ns, o);
    fs.format(t);
    for (const char* name : {"f0", "f1", "f2"})
      ASSERT_GE(fs.create(t, name), 0);
    fs.write(t, fs.open(t, "f0"), 0, model["f0"]);
    for (unsigned i = 0; i < 130; ++i) {
      const auto d = pattern(64, i);
      fs.write(t, fs.open(t, "f1"), i * stride, d);
      std::copy(d.begin(), d.end(), f1.begin() + i * stride);
    }
    fs.write(t, fs.open(t, "f2"), 0, model["f2"]);
    ASSERT_EQ(fs.log_pages(2), 2u);
  }
  platform.crash();  // drop the cache, so the pokes below reach the media

  unsigned victim = 2;  // f1's log; the dirent case damages the directory
  std::string lost = "f1";
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  switch (p.damage) {
    case Damage::kUnknownType:
      poke_pod<std::uint32_t>(ns, entry_at(ns, 2, 1), 0x4e560007);
      break;
    case Damage::kZeroLength:
      poke_pod<std::uint32_t>(ns, entry_at(ns, 2, 1) + 4, 0);
      break;
    case Damage::kDirentOverrun:
      victim = 0;
      lost = "f2";
      poke_pod<std::uint32_t>(ns, entry_at(ns, 0, 2) + 32 + 4,
                              static_cast<std::uint32_t>(ns.size()));
      break;
    case Damage::kSelfLink:
      poke_pod<std::uint64_t>(ns, log_head(ns, 2), log_head(ns, 2));
      break;
    case Damage::kFarLink:
      poke_pod<std::uint64_t>(ns, log_head(ns, 2), kFar);
      break;
    case Damage::kFarPage:
      poke_pod<std::uint64_t>(ns, entry_at(ns, 2, 0) + 16, kFar);
      break;
    case Damage::kFarHead:
      poke_pod<std::uint64_t>(ns, 4096 + 2 * 64 + 8, kFar);
      break;
  }

  // After each mount: fsck accepts the image and every undamaged file
  // reads back.
  auto verify = [&](NovaFs& fs) {
    const Status st = fs.fsck(t);
    EXPECT_TRUE(st.ok()) << st.message();
    for (const auto& [name, data] : model) {
      if (name == lost) continue;
      const int f = fs.open(t, name);
      ASSERT_GE(f, 0) << name;
      std::vector<std::uint8_t> out(data.size());
      EXPECT_EQ(fs.read(t, f, 0, out), data.size()) << name;
      EXPECT_EQ(out, data) << name;
    }
  };
  {
    NovaFs fs(ns, o);
    ASSERT_TRUE(fs.mount(t));
    const auto& truncated = fs.recovery().logs_truncated;
    EXPECT_NE(std::find(truncated.begin(), truncated.end(), victim),
              truncated.end())
        << fs.recovery().detail;
    verify(fs);
  }
  platform.crash();
  NovaFs fs(ns, o);
  ASSERT_TRUE(fs.mount(t));
  EXPECT_FALSE(fs.recovery().damaged()) << fs.recovery().detail;
  verify(fs);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NovaMalformedLog,
    ::testing::Values(
        MalformedParam{Damage::kUnknownType, false, "unknown_type"},
        MalformedParam{Damage::kZeroLength, false, "zero_length"},
        MalformedParam{Damage::kDirentOverrun, false, "dirent_overrun"},
        MalformedParam{Damage::kSelfLink, false, "self_link"},
        MalformedParam{Damage::kUnknownType, true, "unknown_type_crc"},
        MalformedParam{Damage::kZeroLength, true, "zero_length_crc"},
        MalformedParam{Damage::kDirentOverrun, true, "dirent_overrun_crc"},
        MalformedParam{Damage::kSelfLink, true, "self_link_crc"},
        MalformedParam{Damage::kFarLink, false, "far_link"},
        MalformedParam{Damage::kFarPage, false, "far_page"},
        MalformedParam{Damage::kFarHead, false, "far_head"},
        MalformedParam{Damage::kFarLink, true, "far_link_crc"},
        MalformedParam{Damage::kFarPage, true, "far_page_crc"},
        MalformedParam{Damage::kFarHead, true, "far_head_crc"},
        MalformedParam{Damage::kUnknownType, false, "unknown_type_ow", true},
        MalformedParam{Damage::kZeroLength, false, "zero_length_ow", true},
        MalformedParam{Damage::kDirentOverrun, false, "dirent_overrun_ow",
                       true},
        MalformedParam{Damage::kSelfLink, false, "self_link_ow", true},
        MalformedParam{Damage::kUnknownType, true, "unknown_type_crc_ow",
                       true},
        MalformedParam{Damage::kZeroLength, true, "zero_length_crc_ow", true},
        MalformedParam{Damage::kDirentOverrun, true, "dirent_overrun_crc_ow",
                       true},
        MalformedParam{Damage::kSelfLink, true, "self_link_crc_ow", true},
        MalformedParam{Damage::kFarLink, false, "far_link_ow", true},
        MalformedParam{Damage::kFarPage, false, "far_page_ow", true},
        MalformedParam{Damage::kFarHead, false, "far_head_ow", true},
        MalformedParam{Damage::kFarLink, true, "far_link_crc_ow", true},
        MalformedParam{Damage::kFarPage, true, "far_page_crc_ow", true},
        MalformedParam{Damage::kFarHead, true, "far_head_crc_ow", true}),
    [](const auto& i) { return std::string(i.param.name); });

}  // namespace
}  // namespace xp::nova
