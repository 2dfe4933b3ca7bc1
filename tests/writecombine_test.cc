// The shared write-combining layer (pmem::LineBatcher) and its store
// deployments: lsmkv WAL group commit and novafs batched log appends.
// Includes the EWR regression gate: the
// per-record flex WAL measures heavy write amplification on small
// records, the group-commit path must bring it to ~1.0 (§5.1/§5.2).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "lsmkv/db.h"
#include "novafs/novafs.h"
#include "pmemlib/linebatch.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

// ------------------------------------------------------------ batcher ---

TEST(LineBatcher, StagesAndWritesContiguously) {
  Platform platform;
  auto& ns = platform.optane(16 << 20);
  ThreadCtx t = make_thread();

  pmem::LineBatcher b;
  b.reset(4096);
  EXPECT_TRUE(b.empty());
  std::vector<std::uint8_t> rec1(300, 0x11), rec2(45, 0x22);
  EXPECT_EQ(b.append(rec1), 0u);
  EXPECT_EQ(b.append(rec2), 300u);
  const std::uint32_t word = 0xabcd1234;
  EXPECT_EQ(b.append_pod(word), 345u);
  EXPECT_EQ(b.append_zeros(7), 349u);
  EXPECT_EQ(b.size(), 356u);
  EXPECT_EQ(b.cursor(), 4096u + 356u);
  b.commit(t, ns, /*hold=*/4);
  ns.sfence(t);

  std::vector<std::uint8_t> got(356);
  ns.load(t, 4096, got);
  EXPECT_EQ(std::memcmp(got.data(), rec1.data(), 300), 0);
  EXPECT_EQ(std::memcmp(got.data() + 300, rec2.data(), 45), 0);
  std::uint32_t w = 0;
  std::memcpy(&w, got.data() + 345, 4);
  EXPECT_EQ(w, word);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(got[349 + i], 0u);
}

TEST(LineBatcher, ResetReusesCapacityAndRebases) {
  Platform platform;
  auto& ns = platform.optane(16 << 20);
  ThreadCtx t = make_thread();

  pmem::LineBatcher b;
  b.reset(0);
  b.append_zeros(1000);
  b.flush(t, ns);
  ns.sfence(t);
  b.reset(8192);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.base(), 8192u);
  const std::uint64_t v = 42;
  b.append_pod(v);
  b.commit(t, ns);
  ns.sfence(t);
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, 8192), 42u);
}

// ------------------------------------------------------- lsmkv groups ---

kv::DbOptions group_opts(bool group) {
  kv::DbOptions o;
  o.wal = kv::WalMode::kFlex;
  o.wal_group_commit = group;
  o.wal_group_size = 8;
  return o;
}

TEST(WalGroupCommit, GroupReplaysLikePerRecordAppends) {
  Platform platform;
  auto& ns = platform.optane(64 << 20);
  kv::DbOptions opts;
  ThreadCtx t = make_thread();

  kv::Wal wal(ns, 0, 1 << 20, kv::WalMode::kFlex, opts);
  wal.truncate(t);
  std::vector<kv::WalRecord> recs = {
      {"alpha", "1", false},
      {"beta", std::string_view(std::string(300, 'b')), false},
      {"alpha", "", true},
  };
  std::string big(300, 'b');
  recs[1].value = big;
  wal.append_group(t, recs);
  wal.append_group(t, std::vector<kv::WalRecord>{{"gamma", "3", false}});

  std::vector<std::tuple<std::string, std::string, bool>> got;
  kv::Wal replayer(ns, 0, 1 << 20, kv::WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view k, std::string_view v, bool tomb) {
    got.emplace_back(std::string(k), std::string(v), tomb);
  });
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], std::make_tuple(std::string("alpha"), std::string("1"),
                                    false));
  EXPECT_EQ(got[1], std::make_tuple(std::string("beta"), big, false));
  EXPECT_EQ(got[2],
            std::make_tuple(std::string("alpha"), std::string(""), true));
  EXPECT_EQ(got[3], std::make_tuple(std::string("gamma"), std::string("3"),
                                    false));
}

TEST(WalGroupCommit, PutBatchSurvivesCrash) {
  Platform platform;
  auto& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    kv::Db db(ns, group_opts(true));
    db.create(t);
    std::vector<kv::WalRecord> batch;
    std::vector<std::string> keys, vals;
    for (int i = 0; i < 20; ++i) {
      keys.push_back("bk" + std::to_string(i));
      vals.push_back("bv" + std::to_string(i));
    }
    for (int i = 0; i < 20; ++i)
      batch.push_back({keys[i], vals[i], false});
    db.put_batch(t, batch);
    platform.crash();
  }
  kv::Db db(ns, group_opts(true));
  ASSERT_TRUE(db.open(t));
  for (int i = 0; i < 20; ++i) {
    std::string v;
    ASSERT_TRUE(db.get(t, "bk" + std::to_string(i), &v)) << i;
    EXPECT_EQ(v, "bv" + std::to_string(i));
  }
}

TEST(WalGroupCommit, LeaderCommitsWhenGroupFills) {
  Platform platform;
  auto& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  kv::Db db(ns, group_opts(true));
  db.create(t);
  for (int i = 0; i < 7; ++i)
    db.put(t, "k" + std::to_string(i), "v");
  EXPECT_EQ(db.pending_records(), 7u);  // buffered, group not yet full
  db.put(t, "k7", "v");                 // the leader: fills the group
  EXPECT_EQ(db.pending_records(), 0u);

  db.put(t, "tail", "v");
  EXPECT_EQ(db.pending_records(), 1u);
  db.commit_pending(t);  // explicit durability point
  EXPECT_EQ(db.pending_records(), 0u);
}

TEST(WalGroupCommit, CommittedGroupsSurviveCrashUnackedDoNot) {
  Platform platform;
  auto& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    kv::Db db(ns, group_opts(true));
    db.create(t);
    for (int i = 0; i < 8; ++i)
      db.put(t, "g" + std::to_string(i), "v");  // full group: committed
    db.put(t, "pending", "v");  // buffered, never acknowledged
    EXPECT_EQ(db.pending_records(), 1u);
    platform.crash();
  }
  kv::Db db(ns, group_opts(true));
  ASSERT_TRUE(db.open(t));
  std::string v;
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(db.get(t, "g" + std::to_string(i), &v)) << i;
  // A record that was never acknowledged may legitimately be gone — and
  // after a crash before any group commit it must be gone.
  EXPECT_FALSE(db.get(t, "pending", &v));
}

// The regression gate from the paper's §5.1/§5.2: dribbling small
// records with a fence each defeats the XP combining buffer (EWR well
// above 1), one coalesced burst per group restores EWR ~ 1.0.
TEST(WalGroupCommit, GroupCommitFixesWriteAmplification) {
  auto measure = [](bool group) {
    Platform platform;
    auto& ns = platform.optane(256 << 20);
    ThreadCtx t = make_thread();
    kv::DbOptions opts;
    kv::Wal wal(ns, 0, 8 << 20, kv::WalMode::kFlex, opts);
    wal.truncate(t);
    platform.reset_timing();
    const auto s0 = telemetry::Snapshot::capture(platform);
    const std::string value(24, 'v');
    char key[16];
    if (group) {
      std::vector<std::string> keys(32);
      std::vector<kv::WalRecord> recs(32);
      for (int g = 0; g < 2000 / 32; ++g) {
        for (int i = 0; i < 32; ++i) {
          std::snprintf(key, sizeof key, "k%06d", g * 32 + i);
          keys[i] = key;
          recs[i] = {keys[i], value, false};
        }
        wal.append_group(t, recs);
      }
    } else {
      for (int i = 0; i < 2000; ++i) {
        std::snprintf(key, sizeof key, "k%06d", i);
        wal.append(t, key, value, false);
      }
    }
    t.drain();
    platform.flush_xp_buffers(t.now());
    const auto d = telemetry::Snapshot::capture(platform) - s0;
    return d.xp_total().ewr();
  };

  const double per_record = measure(false);
  const double grouped = measure(true);
  EXPECT_GE(per_record, 2.0) << "per-record path lost its amplification";
  EXPECT_LE(grouped, 1.1) << "group commit failed to restore EWR ~ 1.0";
}

// Flags-off runs must be bit-identical run to run (the byte-identical-
// tables guarantee rests on this determinism).
TEST(WalGroupCommit, FlagsOffTelemetryDeterministic) {
  auto run = [] {
    Platform platform;
    auto& ns = platform.optane(256 << 20);
    ThreadCtx t = make_thread();
    kv::Db db(ns, kv::DbOptions{});  // all defaults: combining off
    db.create(t);
    for (int i = 0; i < 200; ++i)
      db.put(t, "k" + std::to_string(i), std::string(40, 'v'));
    t.drain();
    platform.flush_xp_buffers(t.now());
    const auto s = telemetry::Snapshot::capture(platform);
    const auto total = s.xp_total();
    return std::make_tuple(total.imc_write_bytes, total.media_write_bytes,
                           total.imc_read_bytes, t.now());
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------ novafs batches ---

TEST(NovafsBatch, BatchedWritesReadBackIdentical) {
  auto build = [](bool batched, std::vector<std::uint8_t>* content) {
    Platform platform;
    auto& ns = platform.optane(128 << 20);
    ThreadCtx t = make_thread();
    nova::NovaOptions o;
    o.datalog = true;
    o.batch_log_appends = batched;
    nova::NovaFs fs(ns, o);
    fs.format(t);
    const int ino = fs.create(t, "f");
    std::vector<std::uint8_t> buf(3072);
    for (int i = 0; i < 40; ++i) {
      for (std::size_t j = 0; j < buf.size(); ++j)
        buf[j] = static_cast<std::uint8_t>(i * 7 + j);
      // Straddles a page boundary: two embedded sub-page entries per op.
      fs.write(t, ino, 2560 + static_cast<std::uint64_t>(i) * 4096, buf);
    }
    EXPECT_EQ(fs.fsck(t).ok(), true);
    content->resize(fs.size(t, ino));
    fs.read(t, ino, 0, *content);
    return fs.size(t, ino);
  };
  std::vector<std::uint8_t> stock, combined;
  const auto size_stock = build(false, &stock);
  const auto size_batched = build(true, &combined);
  EXPECT_EQ(size_stock, size_batched);
  EXPECT_EQ(stock, combined);
}

TEST(NovafsBatch, BatchedWritesSurviveCrashAndRemount) {
  Platform platform;
  auto& ns = platform.optane(128 << 20);
  ThreadCtx t = make_thread();
  nova::NovaOptions o;
  o.datalog = true;
  o.batch_log_appends = true;
  std::vector<std::uint8_t> buf(3072, 0x5a);
  {
    nova::NovaFs fs(ns, o);
    fs.format(t);
    const int ino = fs.create(t, "f");
    for (int i = 0; i < 10; ++i)
      fs.write(t, ino, 2560 + static_cast<std::uint64_t>(i) * 4096, buf);
    fs.fsync(t, ino);
    platform.crash();
  }
  nova::NovaFs fs(ns, o);
  ASSERT_TRUE(fs.mount(t));
  EXPECT_TRUE(fs.fsck(t).ok());
  const int ino = fs.open(t, "f");
  ASSERT_GE(ino, 0);
  std::vector<std::uint8_t> got(3072);
  for (int i = 0; i < 10; ++i) {
    fs.read(t, ino, 2560 + static_cast<std::uint64_t>(i) * 4096, got);
    EXPECT_EQ(got, buf) << "write " << i;
  }
}

TEST(NovafsBatch, RenameBatchSurvivesRemount) {
  Platform platform;
  auto& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  nova::NovaOptions o;
  o.batch_log_appends = true;
  {
    nova::NovaFs fs(ns, o);
    fs.format(t);
    fs.create(t, "old-name");
    ASSERT_TRUE(fs.rename(t, "old-name", "new-name"));
    platform.crash();
  }
  nova::NovaFs fs(ns, o);
  ASSERT_TRUE(fs.mount(t));
  EXPECT_LT(fs.open(t, "old-name"), 0);
  EXPECT_GE(fs.open(t, "new-name"), 0);
}

}  // namespace
}  // namespace xp
