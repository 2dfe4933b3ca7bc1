// Tests for the mini-RocksDB: WAL, SSTable, persistent skiplist, and the
// full DB across all three persistence strategies, including crash
// recovery and the Fig 8 strategy-inversion shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "lsmkv/bloom.h"
#include "lsmkv/db.h"
#include "sim/rng.h"
#include "telemetry/registry.h"
#include "xpsim/platform.h"

namespace xp::kv {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

std::string key_of(int i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%012d", i);
  return buf;
}
std::string value_of(int i) {
  std::string v(100, 'v');
  std::snprintf(v.data(), 16, "val-%d", i);
  return v;
}

// ---------------------------------------------------------------- WAL ---
struct WalFixture : ::testing::Test {
  WalFixture()
      : ns(platform.optane(64 << 20)),
        wal(ns, 0, 1 << 20, WalMode::kFlex, opts) {}
  Platform platform;
  PmemNamespace& ns;
  DbOptions opts;
  Wal wal;
};

TEST_F(WalFixture, AppendReplayRoundTrip) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "alpha", "1", false);
  wal.append(t, "beta", "2", false);
  wal.append(t, "alpha", "", true);

  std::vector<std::tuple<std::string, std::string, bool>> got;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view k, std::string_view v, bool tomb) {
    got.emplace_back(std::string(k), std::string(v), tomb);
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_tuple(std::string("alpha"), std::string("1"),
                                    false));
  EXPECT_EQ(got[2], std::make_tuple(std::string("alpha"), std::string(""),
                                    true));
}

TEST_F(WalFixture, TruncateHidesOldRecords) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "old", "x", false);
  wal.truncate(t);
  wal.append(t, "new", "y", false);

  int count = 0;
  std::string first;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view k, std::string_view, bool) {
    if (count++ == 0) first = std::string(k);
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(first, "new");
}

TEST_F(WalFixture, SyncedRecordsSurviveCrash) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "durable", "yes", false);
  platform.crash();
  int count = 0;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view, std::string_view, bool) {
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST_F(WalFixture, PosixModeCostsMoreTime) {
  ThreadCtx t1 = make_thread(1);
  Wal posix(ns, 8 << 20, 1 << 20, WalMode::kPosix, opts);
  posix.truncate(t1);
  const sim::Time p0 = t1.now();
  for (int i = 0; i < 100; ++i)
    posix.append(t1, key_of(i), value_of(i), false);
  const sim::Time posix_time = t1.now() - p0;

  ThreadCtx t2 = make_thread(2);
  Wal flex(ns, 16 << 20, 1 << 20, WalMode::kFlex, opts);
  flex.truncate(t2);
  const sim::Time f0 = t2.now();
  for (int i = 0; i < 100; ++i)
    flex.append(t2, key_of(i), value_of(i), false);
  const sim::Time flex_time = t2.now() - f0;

  EXPECT_GT(posix_time, flex_time);
}

// ------------------------------------------------------------- SSTable --
TEST(SsTableTest, BuildAndGet) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 100; ++i)
    entries.push_back({key_of(i), value_of(i), false});
  const std::uint64_t size = SsTable::build(t, ns, 4096, entries);
  EXPECT_EQ(size, SsTable::encoded_size(entries));
  EXPECT_EQ(SsTable::count(t, ns, 4096), 100u);

  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(50), &v), FindResult::kFound);
  EXPECT_EQ(v, value_of(50));
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(0), &v), FindResult::kFound);
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(99), &v), FindResult::kFound);
  EXPECT_EQ(SsTable::get(t, ns, 4096, "missing", &v),
            FindResult::kNotFound);
}

TEST(SsTableTest, TombstonesReported) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries{{key_of(1), "", true},
                                      {key_of(2), "live", false}};
  SsTable::build(t, ns, 0, entries);
  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(1), &v), FindResult::kTombstone);
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(2), &v), FindResult::kFound);
}

TEST(SsTableTest, CursorSeeksToLowerBound) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  // Even keys only, so every odd key falls between two entries.
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 40; i += 2)
    entries.push_back({key_of(i), i % 6 == 0 ? "" : value_of(i), i % 6 == 0});
  SsTable::build(t, ns, 0, entries);

  auto first_key = [&](std::string_view start) {
    SsTable::Cursor c(t, ns, 0, start);
    return c.valid() ? std::string(c.key()) : std::string("<end>");
  };
  EXPECT_EQ(first_key("a"), key_of(0));         // before the first key
  EXPECT_EQ(first_key(key_of(10)), key_of(10));  // equal to a key
  EXPECT_EQ(first_key(key_of(11)), key_of(12));  // between two keys
  EXPECT_EQ(first_key(key_of(38)), key_of(38));  // the last key
  EXPECT_EQ(first_key(key_of(39)), "<end>");     // past the last key
  EXPECT_EQ(first_key(""), key_of(0));

  // A seeked cursor walks the rest of the table, tombstones included.
  SsTable::Cursor c(t, ns, 0, key_of(11));
  for (int i = 12; i < 40; i += 2) {
    ASSERT_TRUE(c.valid()) << i;
    EXPECT_EQ(c.key(), key_of(i));
    EXPECT_EQ(c.tombstone(), i % 6 == 0);
    EXPECT_EQ(c.value(), i % 6 == 0 ? "" : value_of(i));
    c.next(t);
  }
  EXPECT_FALSE(c.valid());

  // A cursor walked from "" yields exactly the built rows, in order.
  using Row = std::tuple<std::string, std::string, bool>;
  std::vector<Row> built, walked;
  for (const SsTable::Entry& e : entries)
    built.emplace_back(e.key, e.value, e.tombstone);
  for (SsTable::Cursor w(t, ns, 0, ""); w.valid(); w.next(t))
    walked.emplace_back(w.key(), w.value(), w.tombstone());
  EXPECT_EQ(walked, built);
}

// The offset of entry i of the table at `off`, read with untimed peeks
// (header: u64 magic, u32 count, u32 total_bytes, u32 filter_len, u32 crc).
std::uint64_t entry_off(const PmemNamespace& ns, std::uint64_t off,
                        std::uint32_t i) {
  const auto count = ns.peek_pod<std::uint32_t>(off + 8);
  const auto filter_len = ns.peek_pod<std::uint32_t>(off + 16);
  const std::uint64_t offsets_at = off + 24 + filter_len;
  return offsets_at + std::uint64_t{count} * 4 +
         ns.peek_pod<std::uint32_t>(offsets_at + std::uint64_t{i} * 4);
}

void poke_u32(PmemNamespace& ns, std::uint64_t off, std::uint32_t v) {
  std::uint8_t b[4];
  std::memcpy(b, &v, 4);
  ns.poke(off, b);
}

// A walk loads each XPLine under its entries once. Entries with values
// of 100-178 B straddle line boundaries and the last one ends inside a
// line; the walk still returns exactly the built rows, tombstones
// included, in fewer cache-line accesses per entry than five loads per
// entry (offset word, two lengths, key, value) take.
TEST(SsTableTest, CursorStreamsWholeXpLines) {
  hw::Timing tm;
  tm.llc_lines = 512;
  Platform platform(tm, /*seed=*/1);
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 2000; ++i) {
    const bool tomb = i % 7 == 3;
    entries.push_back(
        {key_of(i),
         tomb ? "" : std::string(100 + i % 79, static_cast<char>('a' + i % 26)),
         tomb});
  }
  const std::uint64_t size = SsTable::build(t, ns, 0, entries);
  ASSERT_NE(size % Platform::kXpLineBytes, 0u);

  using Row = std::tuple<std::string, std::string, bool>;
  std::vector<Row> built, walked;
  for (const SsTable::Entry& e : entries)
    built.emplace_back(e.key, e.value, e.tombstone);
  const hw::CacheCounters before = platform.cache_counters(0);
  for (SsTable::Cursor c(t, ns, 0, ""); c.valid(); c.next(t))
    walked.emplace_back(c.key(), c.value(), c.tombstone());
  const hw::CacheCounters& after = platform.cache_counters(0);
  EXPECT_EQ(walked, built);
  // The entries average 143 B, about 2.2 cache lines; five loads per
  // entry took 7.0 accesses per entry on this table.
  const std::uint64_t accesses = after.load_hits + after.load_misses -
                                 before.load_hits - before.load_misses;
  EXPECT_LT(accesses, 3 * entries.size());
}

// Every reader holds an entry's lengths to its table. Entry 7's key
// length poked to 0 or 300 stays inside the table, and the walk reads
// the next "entry" from the middle of another; 70000 and 0x7fffffff run
// past the table. Each ends in hw::MediaError, never in a wrong key, a
// read past the table or an abort: a walk from "" and one seeked to
// key 2 (whose search does not probe entry 7) throw, and so do both
// point lookups where the length runs past the table. A walk that ends
// short of total_bytes after `count` entries throws as well.
TEST(SsTableTest, DamagedEntryLengthsThrowMediaError) {
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 40; ++i)
    entries.push_back({key_of(i), value_of(i), false});
  auto walk = [](ThreadCtx& t, PmemNamespace& ns, std::string_view start) {
    std::size_t rows = 0;
    for (SsTable::Cursor c(t, ns, 0, start); c.valid(); c.next(t)) ++rows;
    return rows;
  };
  for (const std::uint32_t klen : {0u, 300u, 70000u, 0x7fffffffu}) {
    SCOPED_TRACE(klen);
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    SsTable::Residency res;
    SsTable::build(t, ns, 0, entries, nullptr, &res);
    poke_u32(ns, entry_off(ns, 0, 7), klen);
    EXPECT_THROW(walk(t, ns, ""), hw::MediaError);
    EXPECT_THROW(walk(t, ns, key_of(2)), hw::MediaError);
    if (klen >= 70000) {
      std::string v;
      EXPECT_THROW(SsTable::get(t, ns, 0, key_of(7), &v), hw::MediaError);
      pmem::LineReader reader;
      EXPECT_THROW(SsTable::get_ex(t, ns, 0, key_of(7), &v, res, reader),
                   hw::MediaError);
    }
  }

  // The last entry's value one byte short: every length stays inside the
  // table, and the walk of 40 entries ends one byte before its end.
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  SsTable::build(t, ns, 0, entries);
  const std::uint64_t last = entry_off(ns, 0, 39);
  poke_u32(ns, last + 4, ns.peek_pod<std::uint32_t>(last + 4) - 1);
  EXPECT_THROW(walk(t, ns, ""), hw::MediaError);
}

TEST(SsTableTest, SurvivesCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries{{key_of(7), value_of(7), false}};
  SsTable::build(t, ns, 0, entries);
  platform.crash();
  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(7), &v), FindResult::kFound);
  EXPECT_EQ(v, value_of(7));
}


// ------------------------------------------------------------- bloom ----
TEST(Bloom, NoFalseNegatives) {
  BloomBuilder b(1000);
  for (int i = 0; i < 1000; ++i) b.add(key_of(i));
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(BloomBuilder::may_contain(b.bits().data(), b.bits().size(),
                                          key_of(i)))
        << i;
}

TEST(Bloom, LowFalsePositiveRate) {
  BloomBuilder b(1000);
  for (int i = 0; i < 1000; ++i) b.add(key_of(i));
  int fp = 0;
  for (int i = 1000; i < 11000; ++i)
    fp += BloomBuilder::may_contain(b.bits().data(), b.bits().size(),
                                    key_of(i));
  EXPECT_LT(fp, 300);  // < 3% at 10 bits/key
}

TEST(Bloom, EmptyFilterCannotExclude) {
  EXPECT_TRUE(BloomBuilder::may_contain(nullptr, 0, "anything"));
}

TEST(SsTableTest, BloomSkipsAbsentKeyProbes) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 2000; ++i)
    entries.push_back({key_of(i), value_of(i), false});
  SsTable::build(t, ns, 0, entries);

  // Absent-key lookups should cost far less simulated time than present-
  // key lookups: the bloom filter (cache-resident after warmup) replaces
  // the ~11-probe binary search.
  std::string v;
  for (int i = 0; i < 50; ++i)  // warm the filter into the CPU cache
    SsTable::get(t, ns, 0, key_of(100000 + i), &v);
  const sim::Time a0 = t.now();
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(SsTable::get(t, ns, 0, key_of(200000 + i), &v),
              FindResult::kNotFound);
  const sim::Time absent = t.now() - a0;
  const sim::Time p0 = t.now();
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(SsTable::get(t, ns, 0, key_of(i * 7 % 2000), &v),
              FindResult::kFound);
  const sim::Time present = t.now() - p0;
  EXPECT_LT(absent * 3, present);
}

// ---------------------------------------------------- persistent skiplist
struct PSkipFixture : ::testing::Test {
  PSkipFixture() : ns(platform.optane(256 << 20)), pool(ns) {
    ThreadCtx t = make_thread();
    pool.create(t, 64);
    list = std::make_unique<PSkiplist>(pool, pool.root(t));
    list->create(t);
  }
  Platform platform;
  PmemNamespace& ns;
  pmem::Pool pool;
  std::unique_ptr<PSkiplist> list;
};

TEST_F(PSkipFixture, PutGet) {
  ThreadCtx t = make_thread();
  list->put(t, "k1", "v1", false);
  list->put(t, "k2", "v2", false);
  std::string v;
  EXPECT_EQ(list->get(t, "k1", &v), FindResult::kFound);
  EXPECT_EQ(v, "v1");
  EXPECT_EQ(list->get(t, "nope", &v), FindResult::kNotFound);
}

TEST_F(PSkipFixture, NewestVersionWins) {
  ThreadCtx t = make_thread();
  list->put(t, "k", "old", false);
  list->put(t, "k", "new", false);
  std::string v;
  EXPECT_EQ(list->get(t, "k", &v), FindResult::kFound);
  EXPECT_EQ(v, "new");
}

TEST_F(PSkipFixture, TombstoneShadows) {
  ThreadCtx t = make_thread();
  list->put(t, "k", "v", false);
  list->put(t, "k", "", true);
  std::string v;
  EXPECT_EQ(list->get(t, "k", &v), FindResult::kTombstone);
}

TEST_F(PSkipFixture, SortedDedupedIteration) {
  ThreadCtx t = make_thread();
  for (int i = 9; i >= 0; --i) list->put(t, key_of(i), value_of(i), false);
  list->put(t, key_of(5), "updated", false);
  std::vector<std::string> keys;
  std::string v5;
  list->for_each_from(t, "",
                      [&](std::string_view k, std::string_view v, bool) {
                        keys.emplace_back(k);
                        if (k == key_of(5)) v5 = std::string(v);
                        return true;
                      });
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(v5, "updated");
}

// for_each_from descends the towers to a nonempty start instead of
// walking level 0 from the head, lands on the newest version, and stops
// when fn returns false.
TEST_F(PSkipFixture, ForEachFromSeeksAndStops) {
  ThreadCtx t = make_thread();
  for (int i = 0; i < 2000; ++i) list->put(t, key_of(i), value_of(i), false);
  list->put(t, key_of(1001), "newer", false);
  // Every node is durable; the crash only empties the CPU caches the puts
  // left the nodes in, so both walks below read from the DIMMs.
  platform.crash();

  std::vector<std::pair<std::string, std::string>> rows;
  const auto s0 = telemetry::Snapshot::capture(platform).xp_total();
  list->for_each_from(t, key_of(1000) + "+",  // between two keys
                      [&](std::string_view k, std::string_view v, bool) {
                        rows.emplace_back(k, v);
                        return rows.size() < 3;
                      });
  t.drain();
  const auto s1 = telemetry::Snapshot::capture(platform).xp_total();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], std::make_pair(key_of(1001), std::string("newer")));
  EXPECT_EQ(rows[1], std::make_pair(key_of(1002), value_of(1002)));
  EXPECT_EQ(rows[2], std::make_pair(key_of(1003), value_of(1003)));

  std::size_t walked = 0;
  list->for_each_from(t, "", [&](std::string_view, std::string_view, bool) {
    ++walked;
    return true;
  });
  t.drain();
  const auto s2 = telemetry::Snapshot::capture(platform).xp_total();
  EXPECT_EQ(walked, 2000u);
  EXPECT_LT((s1.imc_read_bytes - s0.imc_read_bytes) * 10,
            s2.imc_read_bytes - s1.imc_read_bytes);
}

TEST_F(PSkipFixture, InsertsSurviveCrashWithoutLog) {
  ThreadCtx t = make_thread();
  for (int i = 0; i < 50; ++i) list->put(t, key_of(i), value_of(i), false);
  platform.crash();

  pmem::Pool reopened(ns);
  ASSERT_TRUE(reopened.open(t));
  PSkiplist recovered(reopened, reopened.root(t));
  recovered.open(t);
  std::string v;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(recovered.get(t, key_of(i), &v), FindResult::kFound) << i;
    EXPECT_EQ(v, value_of(i));
  }
}

TEST_F(PSkipFixture, FootprintCountsEntries) {
  ThreadCtx t = make_thread();
  for (int i = 0; i < 10; ++i) list->put(t, key_of(i), value_of(i), false);
  const auto fp = list->footprint(t);
  EXPECT_EQ(fp.entries, 10u);
  EXPECT_EQ(fp.bytes, 10 * (key_of(0).size() + 100));
}

// -------------------------------------------------------------- full DB --
// gtest byte-dumps the param into each registered test name. The name is
// held inline rather than as a pointer, so the dump holds no
// (ASLR-randomized) address and the names are the same on every run.
struct DbParam {
  WalMode wal;
  MemtableMode memtable;
  char name[8];
};
static_assert(sizeof(DbParam) == 16, "no padding bytes in the dump");

class DbModes : public ::testing::TestWithParam<DbParam> {
 protected:
  DbOptions make_opts() const {
    DbOptions o;
    o.wal = GetParam().wal;
    o.memtable = GetParam().memtable;
    o.memtable_bytes = 16 << 10;  // small so flush/compaction paths run
    return o;
  }
};

TEST_P(DbModes, PutGetAcrossFlushesAndCompactions) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  const int n = 1000;
  for (int i = 0; i < n; ++i) db.put(t, key_of(i), value_of(i));
  EXPECT_GT(db.stats().memtable_flushes, 2u);
  std::string v;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db.get(t, key_of(i), &v)) << i;
    EXPECT_EQ(v, value_of(i));
  }
  EXPECT_FALSE(db.get(t, "absent", &v));
}

TEST_P(DbModes, OverwriteReturnsLatest) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 300; ++i)
      db.put(t, key_of(i), value_of(i + round * 1000));
  std::string v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.get(t, key_of(i), &v));
    EXPECT_EQ(v, value_of(i + 2000));
  }
}

TEST_P(DbModes, DeleteShadowsOlderVersions) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int i = 0; i < 400; ++i) db.put(t, key_of(i), value_of(i));
  for (int i = 0; i < 400; i += 2) db.del(t, key_of(i));
  std::string v;
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(db.get(t, key_of(i), &v), i % 2 == 1) << i;
  }
}

TEST_P(DbModes, CrashRecoveryKeepsSyncedWrites) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    Db db(ns, make_opts());
    db.create(t);
    for (int i = 0; i < 500; ++i) db.put(t, key_of(i), value_of(i));
    platform.crash();
  }
  Db db2(ns, make_opts());
  ASSERT_TRUE(db2.open(t));
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db2.get(t, key_of(i), &v)) << i;
    EXPECT_EQ(v, value_of(i));
  }
}


// ------------------------------------------------------------------ scan
TEST_P(DbModes, ScanMergesAllLevels) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int i = 0; i < 500; ++i) db.put(t, key_of(i), value_of(i));
  db.put(t, key_of(100), "fresh");  // newer version in the memtable
  db.del(t, key_of(101));

  const auto rows = db.scan(t, key_of(99), 5);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].first, key_of(99));
  EXPECT_EQ(rows[1].first, key_of(100));
  EXPECT_EQ(rows[1].second, "fresh");
  EXPECT_EQ(rows[2].first, key_of(102));  // 101 deleted
  EXPECT_EQ(rows[3].first, key_of(103));
}

TEST_P(DbModes, ScanFromBeyondEndIsEmpty) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  db.put(t, key_of(1), value_of(1));
  EXPECT_TRUE(db.scan(t, "zzzz", 10).empty());
}

// A bounded scan reads about what it returns, not the whole store. The
// same store is built on two platforms, because the LLC would hold what
// a first scan read.
TEST_P(DbModes, ScanReadsOnlyWhatItReturns) {
  auto scan_read_bytes = [&](std::string_view start, std::size_t n,
                             std::size_t want_rows) {
    Platform platform;
    PmemNamespace& ns = platform.optane(256 << 20);
    ThreadCtx t = make_thread();
    DbOptions o = make_opts();
    o.memtable_bytes = 8 << 10;
    o.l0_compaction_trigger = 8;  // 28 flushes: three merges, four L0 runs
    Db db(ns, o);
    db.create(t);
    for (int i = 0; i < 2000; ++i) db.put(t, key_of(i), value_of(i));
    // Sources at every level: an L1 run, L0 runs and the memtable.
    EXPECT_GT(db.stats().compactions, 0u);
    EXPECT_NE(db.stats().memtable_flushes % o.l0_compaction_trigger, 0u);
    const auto before = telemetry::Snapshot::capture(platform).xp_total();
    const auto rows = db.scan(t, start, n);
    t.drain();
    const auto after = telemetry::Snapshot::capture(platform).xp_total();
    EXPECT_EQ(rows.size(), want_rows);
    return after.imc_read_bytes - before.imc_read_bytes;
  };
  const std::uint64_t bounded = scan_read_bytes(key_of(1000), 5, 5);
  const std::uint64_t whole =
      scan_read_bytes("", static_cast<std::size_t>(-1), 2000);
  EXPECT_GT(bounded, 0u);
  EXPECT_LT(bounded * 10, whole) << bounded << " vs " << whole;
}

// Randomized puts, deletes and forced flushes against a std::map model:
// versions and tombstones sit in the memtable, in L0 and in L1, and every
// scan (present, absent and out-of-range starts; n of 0, 1, a few and
// more than the store holds) must return exactly the model's rows.
TEST_P(DbModes, ScanMatchesModel) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  DbOptions o = make_opts();
  o.memtable_bytes = 1 << 10;
  Db db(ns, o);
  db.create(t);
  std::map<std::string, std::string> model;

  // Even keys only: key_of(odd) starts a scan between two keys.
  constexpr int kKeys = 60;
  auto check_scans = [&](std::string_view start) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, model.size() + 5}) {
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = model.lower_bound(std::string(start));
           it != model.end() && want.size() < n; ++it)
        want.emplace_back(it->first, it->second);
      ASSERT_EQ(db.scan(t, start, n), want) << "start " << start << " n " << n;
    }
  };
  auto check_all = [&](int present) {
    check_scans(key_of(present));       // a key (live, deleted or never put)
    check_scans(key_of(present + 1));   // between two keys
    check_scans("");                    // before the first key
    check_scans("a");
    check_scans("zz");                  // past the last key
  };

  // Every key in the L1 run, then newer tombstones for some of them: in
  // an L0 run and in the memtable. A scan must hide those keys and must
  // not count them toward n.
  for (int i = 0; i < kKeys; ++i) {
    db.put(t, key_of(2 * i), value_of(i));
    model[key_of(2 * i)] = value_of(i);
    if (i % (kKeys / 4) == kKeys / 4 - 1) db.flush(t);
  }
  ASSERT_GT(db.stats().compactions, 0u);
  for (int i = 0; i < kKeys; i += 3) {
    db.del(t, key_of(2 * i));
    model.erase(key_of(2 * i));
    if (i == kKeys / 2) db.flush(t);
  }
  for (int i = 0; i < kKeys; i += 3) check_all(2 * i);

  sim::Rng rng(42);
  for (int step = 0; step < 400; ++step) {
    const int k = 2 * static_cast<int>(rng.uniform(kKeys));
    const std::uint64_t op = rng.uniform(10);
    if (op < 6) {
      std::string v(rng.uniform(48), static_cast<char>('a' + step % 26));
      db.put(t, key_of(k), v);
      model[key_of(k)] = v;
    } else if (op < 9) {
      db.del(t, key_of(k));
      model.erase(key_of(k));
    } else {
      db.flush(t);
    }
    check_all(k);
  }
  EXPECT_GT(db.stats().compactions, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DbModes,
    ::testing::Values(
        DbParam{WalMode::kPosix, MemtableMode::kVolatile, "posix"},
        DbParam{WalMode::kFlex, MemtableMode::kVolatile, "flex"},
        DbParam{WalMode::kNone, MemtableMode::kPersistent, "pskip"}),
    [](const auto& info) { return info.param.name; });

// open() must not read SSTables. A table whose header line an ARS scrub
// zeroed (the heal for a poisoned line) is still in the manifest: open()
// succeeds, check() reports it, and repair() quarantines just that table.
// Also on the read path (read_combine), where a recovered table loads its
// residency at its first probe.
TEST(DbRepair, ZeroedTableHeaderOpensAndRepairQuarantinesIt) {
  for (const bool read_combine : {false, true}) {
    SCOPED_TRACE(read_combine ? "read_combine" : "stock");
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    DbOptions o;
    o.memtable_bytes = 4 << 10;
    o.l0_compaction_trigger = 8;  // no merge: each flush stays its own table
    o.wal_capacity = 1 << 20;
    o.read_combine = read_combine;
    const int n = 200;
    {
      Db db(ns, o);
      db.create(t);
      for (int i = 0; i < n; ++i) db.put(t, key_of(i), value_of(i));
      db.flush(t);
    }

    std::vector<std::uint8_t> image(4 << 20);
    ns.peek(0, image);
    std::uint64_t header = 0;
    for (std::uint64_t off = 0; off + 8 <= image.size(); off += 8) {
      std::uint64_t word;
      std::memcpy(&word, image.data() + off, 8);
      if (word == SsTable::kMagic) {
        header = off;
        break;
      }
    }
    ASSERT_NE(header, 0u);
    const std::uint64_t line =
        header / Platform::kXpLineBytes * Platform::kXpLineBytes;
    ns.poke(line, std::vector<std::uint8_t>(Platform::kXpLineBytes, 0));

    Db db(ns, o);
    ASSERT_TRUE(db.open(t));
    EXPECT_FALSE(db.check(t).ok());
    db.repair(t);
    EXPECT_EQ(db.recovery().tables_quarantined.size(), 1u);
    EXPECT_TRUE(db.check(t).ok());
    int found = 0;
    std::string v;
    for (int i = 0; i < n; ++i) {
      if (!db.get(t, key_of(i), &v)) continue;
      EXPECT_EQ(v, value_of(i));
      ++found;
    }
    EXPECT_GT(found, 0);
    EXPECT_LT(found, n);
  }
}

// A poisoned primary manifest line is reported by check() even when
// lookups read the DRAM mirror (read_combine), and repair() rewrites the
// primary from a committed copy before the namespace scrub would zero
// it: after a crash every table is still reachable.
TEST(DbRepair, PoisonedManifestIsReportedAndRewrittenByRepair) {
  for (const bool read_combine : {false, true}) {
    SCOPED_TRACE(read_combine ? "read_combine" : "stock");
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    DbOptions o;
    o.memtable_bytes = 4 << 10;
    o.l0_compaction_trigger = 8;
    o.wal_capacity = 1 << 20;
    o.read_combine = read_combine;
    const int n = 200;
    {
      Db db(ns, o);
      db.create(t);
      for (int i = 0; i < n; ++i) db.put(t, key_of(i), value_of(i));
      db.flush(t);
      ASSERT_TRUE(db.check(t).ok());

      platform.poison_line(ns, db.pool().root(t));
      EXPECT_EQ(db.check(t).code(), ErrorCode::kMediaError);
      db.repair(t);
      EXPECT_TRUE(db.recovery().manifest_restored);
      EXPECT_TRUE(db.recovery().tables_quarantined.empty());
      EXPECT_TRUE(db.check(t).ok());
    }
    platform.crash();

    Db db(ns, o);
    ASSERT_TRUE(db.open(t));
    EXPECT_FALSE(db.recovery().damaged());
    EXPECT_TRUE(db.check(t).ok());
    std::string v;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db.get(t, key_of(i), &v)) << i;
      EXPECT_EQ(v, value_of(i));
    }
  }
}

// open() judges the primary manifest by check()'s rules: one that is
// unreadable (a poisoned line) or invalid (the zeroed line a scrub
// leaves) falls back to the backup copy and is rewritten, in both
// memtable modes, so every table and logged record stays reachable and
// the next open finds no damage.
TEST(DbRepair, OpenFallsBackToBackupManifest) {
  // One case per memtable mode and kind of damage; an ASSERT ends only
  // its own case.
  auto run = [](bool persistent, bool poison) {
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    const DbOptions o{
        .wal = persistent ? WalMode::kNone : WalMode::kFlex,
        .memtable = persistent ? MemtableMode::kPersistent
                               : MemtableMode::kVolatile,
        .memtable_bytes = 4 << 10,
        .l0_compaction_trigger = 8,
        .wal_capacity = 1 << 20};
    const int n = 100;
    std::uint64_t root = 0;
    {
      Db db(ns, o);
      db.create(t);
      // Tables in L0 and a tail still in the memtable (and its WAL).
      for (int i = 0; i < n; ++i) db.put(t, key_of(i), value_of(i));
      ASSERT_GT(db.stats().memtable_flushes, 0u);
      root = db.pool().root(t);
    }
    if (poison)
      platform.poison_line(ns, root);
    else
      ns.poke(root, std::vector<std::uint8_t>(Platform::kXpLineBytes, 0));
    for (const bool first : {true, false}) {
      platform.crash();
      Db db(ns, o);
      ASSERT_TRUE(db.open(t));
      EXPECT_EQ(db.recovery().manifest_restored, first);
      EXPECT_EQ(db.recovery().damaged(), first);
      EXPECT_TRUE(db.check(t).ok());
      std::string v;
      for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(db.get(t, key_of(i), &v)) << i;
        EXPECT_EQ(v, value_of(i));
      }
    }
  };
  for (const bool persistent : {false, true})
    for (const bool poison : {true, false}) {
      SCOPED_TRACE(std::string(persistent ? "persistent" : "volatile") +
                   (poison ? ", poisoned" : ", zeroed"));
      run(persistent, poison);
    }
}

// store_manifest() mirrors a manifest into the backup slot before its
// transaction commits, so a crash inside the commit leaves the mirror one
// manifest ahead of the primary that pool recovery rolls back. open()
// re-mirrors the manifest it recovers: crash at every persist event of
// one flush (and, with two runs already in L0, of the compaction it
// triggers), reopen, zero the primary's line as a salvage heal would, and
// reopen again. Every key must read back and check() must pass.
TEST(DbRepair, BackupManifestSurvivesCrashInFlush) {
  const DbOptions o{.wal = WalMode::kFlex,
                    .memtable = MemtableMode::kVolatile,
                    .memtable_bytes = 1 << 20,
                    .l0_compaction_trigger = 3,
                    .wal_capacity = 1 << 20};
  const int per_run = 20;
  for (const int prior_runs : {0, 2}) {
    SCOPED_TRACE(std::to_string(prior_runs) + " runs in L0");
    const int n = (prior_runs + 1) * per_run;
    // Fill the store up to the flush under test; every key is acked.
    auto fill = [&](ThreadCtx& t, Db& db) {
      db.create(t);
      for (int i = 0; i < n; ++i) {
        db.put(t, key_of(i), value_of(i));
        if (i % per_run == per_run - 1 && i + 1 < n) db.flush(t);
      }
    };
    std::uint64_t events = 0;
    {
      Platform platform;
      PmemNamespace& ns = platform.optane(64 << 20);
      ThreadCtx t = make_thread();
      Db db(ns, o);
      fill(t, db);
      const std::uint64_t before = platform.persist_events();
      db.flush(t);
      events = platform.persist_events() - before;
      EXPECT_EQ(db.stats().compactions, prior_runs == 2 ? 1u : 0u);
    }
    ASSERT_GT(events, 0u);
    // One crash point per call; an ASSERT ends only its own point.
    auto crash_at = [&](std::uint64_t k) {
      Platform platform;
      PmemNamespace& ns = platform.optane(64 << 20);
      ThreadCtx t = make_thread();
      {
        Db db(ns, o);
        fill(t, db);
        platform.crash_after(k);
        try {
          db.flush(t);
        } catch (const hw::CrashPointHit&) {
        }
        ASSERT_TRUE(platform.crash_fired());
      }
      platform.clear_crash_trigger();
      std::uint64_t root = 0;
      {
        Db db(ns, o);
        ASSERT_TRUE(db.open(t));
        root = db.pool().root(t);
      }
      platform.crash();
      ns.poke(root, std::vector<std::uint8_t>(Platform::kXpLineBytes, 0));
      Db db(ns, o);
      ASSERT_TRUE(db.open(t));
      EXPECT_TRUE(db.recovery().manifest_restored);
      EXPECT_TRUE(db.check(t).ok());
      std::string v;
      for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(db.get(t, key_of(i), &v)) << i;
        EXPECT_EQ(v, value_of(i));
      }
    };
    for (std::uint64_t k = 1; k <= events; ++k) {
      SCOPED_TRACE("crash at persist event " + std::to_string(k) + " of " +
                   std::to_string(events));
      crash_at(k);
    }
  }
}

// ---- size-tiered compaction ---------------------------------------------
// The absorb rule on synthetic sizes (L1 oldest first, as in the
// manifest).
TEST(DbCompaction, PlanAbsorbsRunsUpToTheTierRatio) {
  // How many of the oldest runs the merge keeps; it drops tombstones
  // only when that is none.
  auto keep = [](std::vector<std::uint64_t> l1, std::uint64_t l0) {
    return Db::plan_compaction(l1, l0);
  };
  static_assert(Db::kTierRatio == 2);
  // No L1 run: the merge reaches the (empty) bottom.
  EXPECT_EQ(keep({}, 100), 0u);
  // Exactly twice the gathered bytes is absorbed; one byte more stays.
  EXPECT_EQ(keep({200}, 100), 0u);
  EXPECT_EQ(keep({201}, 100), 1u);
  // Each absorbed run adds to the bytes gathered: 100 <= 2 * 50, then
  // 300 <= 2 * 150, then 1000 > 2 * 450 stays, and so do the runs
  // older than it.
  EXPECT_EQ(keep({100, 1000, 300, 100}, 50), 2u);
  // Absorbing every run reaches the oldest.
  EXPECT_EQ(keep({400, 150, 100}, 50), 0u);
  // A merge that would leave kMaxL1 runs absorbs one more.
  const std::vector<std::uint64_t> full(Db::kMaxL1 - 1, 1 << 20);
  EXPECT_EQ(keep(full, 1), Db::kMaxL1 - 2);
  const std::vector<std::uint64_t> fewer(Db::kMaxL1 - 2, 1 << 20);
  EXPECT_EQ(keep(fewer, 1), Db::kMaxL1 - 2);
}

// The store's rows in key order, as an SSTable would hold them.
std::vector<SsTable::Entry> rows_of(
    const std::map<std::string, std::string>& model) {
  std::vector<SsTable::Entry> rows;
  for (const auto& [k, v] : model) rows.push_back({k, v});
  return rows;
}

// A tombstone for a key that only an older, kept L1 run holds survives
// the partial merge (written into its output), stays hidden from get and
// scan, and drops at the next merge that reaches the oldest run. Each
// merge's output is checked byte for byte through the write counter.
TEST(DbCompaction, TombstoneSurvivesUntilTheMergeReachesTheOldestRun) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  const DbOptions o{.memtable_bytes = 1 << 20,
                    .l0_compaction_trigger = 2,
                    .wal_capacity = 1 << 20};
  Db db(ns, o);
  db.create(t);
  std::map<std::string, std::string> model;
  auto put = [&](int i) {
    db.put(t, key_of(i), value_of(i));
    model[key_of(i)] = value_of(i);
  };
  auto expect_model = [&] {
    std::string v;
    EXPECT_FALSE(db.get(t, key_of(0), &v));
    for (const auto& [k, want] : model) {
      ASSERT_TRUE(db.get(t, k, &v)) << k;
      EXPECT_EQ(v, want);
    }
    const std::vector<std::pair<std::string, std::string>> rows(
        model.begin(), model.end());
    EXPECT_EQ(db.scan(t, "", static_cast<std::size_t>(-1)), rows);
    EXPECT_TRUE(db.check(t).ok());
  };

  // Two flushes, one full merge: the L1 run every later merge sits on.
  for (int i = 0; i < 60; ++i) {
    put(i);
    if (i == 29) db.flush(t);
  }
  db.flush(t);
  ASSERT_EQ(db.stats().compactions, 1u);
  const std::uint64_t oldest = db.stats().compaction_write_bytes;
  EXPECT_EQ(oldest, SsTable::encoded_size(rows_of(model)));

  // Delete a key only that run holds; two small flushes merge alone.
  db.del(t, key_of(0));
  model.erase(key_of(0));
  put(100);
  db.flush(t);
  put(101);
  DbStats before = db.stats();
  db.flush(t);
  ASSERT_EQ(db.stats().compactions, 2u);
  EXPECT_LT(db.stats().compaction_read_bytes - before.compaction_read_bytes,
            oldest);
  EXPECT_EQ(db.stats().compaction_write_bytes - before.compaction_write_bytes,
            SsTable::encoded_size({{key_of(0), "", true},
                                   {key_of(100), value_of(100)},
                                   {key_of(101), value_of(101)}}));
  expect_model();

  // L0 runs as large as the oldest run: the merge absorbs both L1 runs,
  // and its output holds no tombstone.
  for (int i = 200; i < 260; ++i) {
    put(i);
    if (i == 229) db.flush(t);
  }
  before = db.stats();
  db.flush(t);
  ASSERT_EQ(db.stats().compactions, 3u);
  EXPECT_GT(db.stats().compaction_read_bytes - before.compaction_read_bytes,
            oldest);
  EXPECT_EQ(db.stats().compaction_write_bytes - before.compaction_write_bytes,
            SsTable::encoded_size(rows_of(model)));
  expect_model();
}

// A partial merge keeps the older L1 run and writes the tombstone of a
// key only that run holds. Crash at every persist event of the flush that
// triggers it and reopen: check() passes, the key stays deleted through
// get and scan, and every other key reads its last committed value.
TEST(DbCompaction, CrashInPartialMergeKeepsTheTombstone) {
  const DbOptions o{.memtable_bytes = 1 << 20,
                    .l0_compaction_trigger = 2,
                    .wal_capacity = 1 << 20};
  std::map<std::string, std::string> want;
  for (int i = 1; i < 60; ++i) want[key_of(i)] = value_of(i);
  want[key_of(100)] = value_of(100);
  want[key_of(101)] = value_of(101);
  // L1 = one merged run of keys 0..59, then L0 = {del 0, put 100} and the
  // memtable {put 101}; the flush under test merges the two L0 runs.
  auto fill = [](ThreadCtx& t, Db& db) {
    db.create(t);
    for (int i = 0; i < 60; ++i) {
      db.put(t, key_of(i), value_of(i));
      if (i == 29 || i == 59) db.flush(t);
    }
    db.del(t, key_of(0));
    db.put(t, key_of(100), value_of(100));
    db.flush(t);
    db.put(t, key_of(101), value_of(101));
  };
  std::uint64_t events = 0;
  {
    Platform platform;
    ThreadCtx t = make_thread();
    Db db(platform.optane(64 << 20), o);
    fill(t, db);
    const DbStats before = db.stats();
    const std::uint64_t events_before = platform.persist_events();
    db.flush(t);
    events = platform.persist_events() - events_before;
    // The merge leaves the older run in place: it reads and writes fewer
    // bytes than that run (the first merge's output) holds.
    ASSERT_EQ(db.stats().compactions, before.compactions + 1);
    const std::uint64_t older = before.compaction_write_bytes;
    EXPECT_LT(db.stats().compaction_read_bytes - before.compaction_read_bytes,
              older);
    EXPECT_LT(
        db.stats().compaction_write_bytes - before.compaction_write_bytes,
        older);
  }
  ASSERT_GT(events, 0u);
  const std::vector<std::pair<std::string, std::string>> rows(want.begin(),
                                                              want.end());
  // One crash point per call; an ASSERT ends only its own point.
  auto crash_at = [&](std::uint64_t k) {
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    {
      Db db(ns, o);
      fill(t, db);
      platform.crash_after(k);
      try {
        db.flush(t);
      } catch (const hw::CrashPointHit&) {
      }
      ASSERT_TRUE(platform.crash_fired());
    }
    platform.clear_crash_trigger();
    Db db(ns, o);
    ASSERT_TRUE(db.open(t));
    EXPECT_TRUE(db.check(t).ok());
    std::string v;
    EXPECT_FALSE(db.get(t, key_of(0), &v));
    for (const auto& [k, value] : want) {
      ASSERT_TRUE(db.get(t, k, &v)) << k;
      EXPECT_EQ(v, value);
    }
    EXPECT_EQ(db.scan(t, "", static_cast<std::size_t>(-1)), rows);
  };
  for (std::uint64_t k = 1; k <= events; ++k) {
    SCOPED_TRACE("crash at persist event " + std::to_string(k) + " of " +
                 std::to_string(events));
    crash_at(k);
  }
}

// A merge that absorbs the L1 run writes an output the same size as
// that run. The merged runs join the free list only at commit, so the
// output cannot be written over the run the rolled-back manifest still
// names: crash at every persist event of the flush that triggers the
// merge, and every key reads its last value and check() passes.
TEST(DbCompaction, CrashWhileWritingTheOutputKeepsTheMergedRuns) {
  const DbOptions o{.memtable_bytes = 1 << 20,
                    .l0_compaction_trigger = 2,
                    .wal_capacity = 1 << 20};
  // L1 = one merged run of keys 0..59, L0 = {keys 0..24 rewritten} and
  // the memtable {keys 25..49 rewritten}: the flush under test merges
  // both L0 runs with the L1 run into a run of the same 60 keys.
  auto fill = [](ThreadCtx& t, Db& db) {
    db.create(t);
    for (int i = 0; i < 60; ++i) {
      db.put(t, key_of(i), value_of(i));
      if (i == 29 || i == 59) db.flush(t);
    }
    for (int i = 0; i < 50; ++i) {
      db.put(t, key_of(i), value_of(1000 + i));
      if (i == 24) db.flush(t);
    }
  };
  std::map<std::string, std::string> want;
  for (int i = 0; i < 60; ++i)
    want[key_of(i)] = value_of(i < 50 ? 1000 + i : i);
  std::uint64_t events = 0;
  {
    Platform platform;
    ThreadCtx t = make_thread();
    Db db(platform.optane(64 << 20), o);
    fill(t, db);
    const DbStats before = db.stats();
    const std::uint64_t events_before = platform.persist_events();
    db.flush(t);
    events = platform.persist_events() - events_before;
    // The merge reached the L1 run and rewrote it whole.
    ASSERT_EQ(db.stats().compactions, before.compactions + 1);
    EXPECT_EQ(db.stats().compaction_write_bytes - before.compaction_write_bytes,
              before.compaction_write_bytes);
  }
  ASSERT_GT(events, 0u);
  for (std::uint64_t k = 1; k <= events; ++k) {
    SCOPED_TRACE("crash at persist event " + std::to_string(k) + " of " +
                 std::to_string(events));
    Platform platform;
    PmemNamespace& ns = platform.optane(64 << 20);
    ThreadCtx t = make_thread();
    {
      Db db(ns, o);
      fill(t, db);
      platform.crash_after(k);
      try {
        db.flush(t);
      } catch (const hw::CrashPointHit&) {
      }
      ASSERT_TRUE(platform.crash_fired());
    }
    platform.clear_crash_trigger();
    Db db(ns, o);
    ASSERT_TRUE(db.open(t));
    const Status st = db.check(t);
    EXPECT_TRUE(st.ok()) << st.to_string();
    std::string v;
    for (const auto& [key, value] : want) {
      ASSERT_TRUE(db.get(t, key, &v)) << key;
      EXPECT_EQ(v, value) << key;
    }
  }
}

// Steady overwrites of a fixed key set must not grow the heap: every
// merge frees runs that later outputs reuse, so heap_top levels off once
// the run sizes have settled. Size-tiered outputs rarely fit one freed
// run, so this holds only while adjacent free chunks coalesce.
TEST(DbCompaction, SteadyOverwritesKeepTheHeapBounded) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  const DbOptions o{.memtable_bytes = 16 << 10,
                    .l0_compaction_trigger = 4,
                    .wal_capacity = 1 << 20};
  Db db(ns, o);
  db.create(t);
  const std::uint64_t base = db.pool().heap_top(t);
  // heap_top's peak over rounds 0-19, then over rounds 20-59, of 4000
  // overwrites of keys 0-3999 each.
  std::uint64_t early = 0, late = 0;
  for (int r = 0; r < 60; ++r) {
    for (int i = 0; i < 4000; ++i) db.put(t, key_of(i), value_of(r));
    std::uint64_t& peak = r < 20 ? early : late;
    peak = std::max(peak, db.pool().heap_top(t) - base);
  }
  EXPECT_GT(db.stats().compactions, 100u);
  EXPECT_LE(late, early * 5 / 4)
      << "heap peaked at " << early << " bytes over rounds 0-19 and at "
      << late << " over rounds 20-59";
}

// ---- Fig 8 anchor -------------------------------------------------------
double set_throughput(hw::Device device, WalMode wal, MemtableMode mem) {
  Platform platform;
  PmemNamespace& ns = device == hw::Device::kXp
                          ? platform.optane(512 << 20)
                          : platform.dram(512 << 20);
  ThreadCtx t = make_thread();
  DbOptions o;
  o.wal = wal;
  o.memtable = mem;
  Db db(ns, o);
  db.create(t);
  const int n = 3000;
  const sim::Time t0 = t.now();
  for (int i = 0; i < n; ++i) db.put(t, key_of(i * 7919 % 100000),
                                     value_of(i));
  return n / sim::to_s(t.now() - t0);
}

TEST(Fig8Shape, StrategyInversionBetweenDramAndOptane) {
  const double dram_flex = set_throughput(
      hw::Device::kDram, WalMode::kFlex, MemtableMode::kVolatile);
  const double dram_pskip = set_throughput(
      hw::Device::kDram, WalMode::kNone, MemtableMode::kPersistent);
  const double xp_flex = set_throughput(
      hw::Device::kXp, WalMode::kFlex, MemtableMode::kVolatile);
  const double xp_pskip = set_throughput(
      hw::Device::kXp, WalMode::kNone, MemtableMode::kPersistent);

  // Paper Fig 8: on DRAM the persistent memtable wins; on real Optane the
  // conclusion inverts and FLEX wins.
  EXPECT_GT(dram_pskip, dram_flex);
  EXPECT_GT(xp_flex, xp_pskip);
}

}  // namespace
}  // namespace xp::kv
