// Unit + property tests for the platform model: data correctness across
// all store kinds, persistence/crash semantics, interleaving, EWR
// mechanics, queue backpressure, and NUMA paths.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"
#include "xpsim/cache.h"
#include "xpsim/interleave.h"
#include "xpsim/platform.h"

namespace xp::hw {
namespace {

using sim::ThreadCtx;
using sim::Time;

ThreadCtx make_thread(unsigned id = 0, unsigned socket = 0,
                      unsigned mlp = 1) {
  return ThreadCtx({.id = id, .socket = socket, .mlp = mlp, .seed = id + 1});
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, unsigned seed = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 37 + seed * 11 + 1);
  return v;
}

// ------------------------------------------------------------- interleave
TEST(Interleave, FourKbChunksRotateChannels) {
  InterleaveDecoder dec(6, 4096);
  EXPECT_EQ(dec.decode(0).channel, 0u);
  EXPECT_EQ(dec.decode(4096).channel, 1u);
  EXPECT_EQ(dec.decode(5 * 4096).channel, 5u);
  EXPECT_EQ(dec.decode(6 * 4096).channel, 0u);  // stripe wraps
  EXPECT_EQ(dec.stripe(), 24u * 1024);
}

TEST(Interleave, WithinChunkStaysOnOneDimm) {
  InterleaveDecoder dec(6, 4096);
  const unsigned ch = dec.decode(8192).channel;
  for (std::uint64_t o = 0; o < 4096; o += 64)
    EXPECT_EQ(dec.decode(8192 + o).channel, ch);
}

TEST(Interleave, RoundTripBijection) {
  InterleaveDecoder dec(6, 4096);
  for (std::uint64_t off = 0; off < 1 << 20; off += 4093) {
    const DimmAddr da = dec.decode(off);
    EXPECT_EQ(dec.encode(da), off);
  }
}

TEST(Interleave, DimmLocalAddressesAreDense) {
  InterleaveDecoder dec(6, 4096);
  // Consecutive stripes map to consecutive DIMM-local chunks.
  EXPECT_EQ(dec.decode(0).addr, 0u);
  EXPECT_EQ(dec.decode(6 * 4096).addr, 4096u);
  EXPECT_EQ(dec.decode(12 * 4096 + 100).addr, 2u * 4096 + 100);
}

// ------------------------------------------------------------- cache unit
TEST(CacheModel, InsertFindErase) {
  CacheModel cache(16, 1);
  CacheCounters cc;
  CacheModel::LineData d{};
  d[0] = 42;
  EXPECT_FALSE(cache.insert(64, d, true, cc).has_value());
  ASSERT_NE(cache.lookup(64), nullptr);
  EXPECT_EQ(cache.lookup(64)->data[0], 42);
  EXPECT_TRUE(cache.lookup(64)->dirty);
  auto victim = cache.erase(64);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(victim->dirty);
  EXPECT_EQ(cache.lookup(64), nullptr);
}

TEST(CacheModel, EraseCleanReturnsNothing) {
  CacheModel cache(16, 1);
  CacheCounters cc;
  cache.insert(0, {}, false, cc);
  EXPECT_FALSE(cache.erase(0).has_value());
}

TEST(CacheModel, CapacityEviction) {
  CacheModel cache(4, 1);
  CacheCounters cc;
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_FALSE(cache.insert(i * 64, {}, true, cc).has_value());
  auto victim = cache.insert(5 * 64, {}, true, cc);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cc.natural_evictions, 1u);
}

TEST(CacheModel, ReinsertDoesNotEvict) {
  CacheModel cache(2, 1);
  CacheCounters cc;
  cache.insert(0, {}, false, cc);
  cache.insert(64, {}, false, cc);
  EXPECT_FALSE(cache.insert(64, {}, true, cc).has_value());
  EXPECT_TRUE(cache.lookup(64)->dirty);
}

TEST(CacheModel, DropAllCountsDirty) {
  CacheModel cache(8, 1);
  CacheCounters cc;
  cache.insert(0, {}, true, cc);
  cache.insert(64, {}, false, cc);
  cache.insert(128, {}, true, cc);
  std::size_t dirty = 0;
  EXPECT_EQ(cache.drop_all(&dirty), 3u);
  EXPECT_EQ(dirty, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

// The LLC as it was before its slab: a node map plus an address vector,
// a random victim over vector positions, and swap-remove. The flat
// CacheModel must make every choice this model makes.
class RefCache {
 public:
  RefCache(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  std::optional<CacheModel::Victim> insert(std::uint64_t addr,
                                           const CacheModel::LineData& data,
                                           bool dirty) {
    std::optional<CacheModel::Victim> victim;
    if (map_.size() >= capacity_ && map_.count(addr) == 0) {
      const std::size_t idx =
          static_cast<std::size_t>(rng_.uniform(order_.size()));
      auto it = map_.find(order_[idx]);
      victim = CacheModel::Victim{it->first, it->second.dirty,
                                  it->second.data};
      remove_from_order(idx);
      map_.erase(it);
    }
    auto [it, inserted] = map_.try_emplace(addr);
    it->second.data = data;
    it->second.dirty = it->second.dirty || dirty;
    if (inserted) {
      it->second.pos = order_.size();
      order_.push_back(addr);
    }
    return victim;
  }

  std::optional<CacheModel::Victim> erase(std::uint64_t addr) {
    auto it = map_.find(addr);
    if (it == map_.end()) return std::nullopt;
    const CacheModel::Victim v{addr, it->second.dirty, it->second.data};
    remove_from_order(it->second.pos);
    map_.erase(it);
    if (!v.dirty) return std::nullopt;
    return v;
  }

  std::size_t drop_all(std::size_t* dirty_lost) {
    *dirty_lost = 0;
    for (const auto& [addr, line] : map_)
      if (line.dirty) ++*dirty_lost;
    const std::size_t n = map_.size();
    map_.clear();
    order_.clear();
    return n;
  }

  struct Line {
    CacheModel::LineData data{};
    bool dirty = false;
    std::size_t pos = 0;
  };
  std::unordered_map<std::uint64_t, Line> map_;

 private:
  void remove_from_order(std::size_t idx) {
    const std::uint64_t moved = order_.back();
    order_[idx] = moved;
    order_.pop_back();
    if (idx < order_.size()) map_.find(moved)->second.pos = idx;
  }

  std::size_t capacity_;
  sim::Rng rng_;
  std::vector<std::uint64_t> order_;
};

void expect_same_victim(const std::optional<CacheModel::Victim>& got,
                        const std::optional<CacheModel::Victim>& want,
                        int step) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
  if (!want) return;
  EXPECT_EQ(got->line_addr, want->line_addr) << "step " << step;
  EXPECT_EQ(got->dirty, want->dirty) << "step " << step;
  EXPECT_EQ(got->data, want->data) << "step " << step;
}

TEST(CacheModel, MatchesMapAndOrderReference) {
  for (const std::size_t capacity : {4u, 512u, 4096u}) {
    SCOPED_TRACE(capacity);
    CacheModel cache(capacity, 77);
    RefCache ref(capacity, 77);
    CacheCounters cc;
    sim::Rng rng(capacity);
    std::uint64_t evictions = 0;
    for (int step = 0; step < 120000; ++step) {
      // Twice the capacity in distinct lines: hits, misses and evictions.
      const std::uint64_t addr = rng.uniform(2 * capacity + 3) * 64;
      const std::uint64_t op = rng.uniform(1000);
      if (step % 30000 == 29999) {
        std::size_t dirty_lost = 0, want_dirty = 0;
        const std::size_t want = ref.drop_all(&want_dirty);
        EXPECT_EQ(cache.drop_all(&dirty_lost), want) << "step " << step;
        EXPECT_EQ(dirty_lost, want_dirty) << "step " << step;
      } else if (op < 500) {
        CacheModel::LineData d;
        d.fill(static_cast<std::uint8_t>(step));
        const bool dirty = rng.uniform(2) == 0;
        const auto want = ref.insert(addr, d, dirty);
        expect_same_victim(cache.insert(addr, d, dirty, cc), want, step);
        if (want) ++evictions;
      } else if (op < 700) {
        const auto it = ref.map_.find(addr);
        const CacheModel::Line* line = cache.lookup(addr);
        ASSERT_EQ(line != nullptr, it != ref.map_.end()) << "step " << step;
        if (line != nullptr) {
          EXPECT_EQ(line->dirty, it->second.dirty) << "step " << step;
          EXPECT_EQ(line->data, it->second.data) << "step " << step;
        }
      } else if (op < 850) {
        const bool dirty = rng.uniform(2) == 0;
        if (CacheModel::Line* line = cache.lookup(addr)) line->dirty = dirty;
        if (auto it = ref.map_.find(addr); it != ref.map_.end())
          it->second.dirty = dirty;
      } else {
        expect_same_victim(cache.erase(addr), ref.erase(addr), step);
      }
      ASSERT_EQ(cache.size(), ref.map_.size()) << "step " << step;
    }
    EXPECT_EQ(cc.natural_evictions, evictions);
    EXPECT_GT(evictions, 1000u);
  }
}

// --------------------------------------------------- read-your-write (P)
struct RywParam {
  const char* mode;  // "store", "ntstore", "store_flush"
  std::size_t size;
  std::uint64_t offset;
};

// gtest's default printer byte-dumps the struct, including the address
// in `mode`, so the registered test names would change with every
// (ASLR-randomized) run; print a label instead.
void PrintTo(const RywParam& p, std::ostream* os) {
  *os << p.mode << '-' << p.size << "B-at-" << p.offset;
}

class ReadYourWrite : public ::testing::TestWithParam<RywParam> {};

TEST_P(ReadYourWrite, DataRoundTrips) {
  const RywParam p = GetParam();
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread(0, 0, 8);

  const auto data = pattern_bytes(p.size, 3);
  if (std::strcmp(p.mode, "store") == 0) {
    ns.store(t, p.offset, data);
  } else if (std::strcmp(p.mode, "ntstore") == 0) {
    ns.ntstore(t, p.offset, data);
    ns.sfence(t);
  } else {
    ns.store_persist(t, p.offset, data);
  }
  std::vector<std::uint8_t> out(p.size);
  ns.load(t, p.offset, out);
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlignments, ReadYourWrite,
    ::testing::Values(
        RywParam{"store", 1, 0}, RywParam{"store", 8, 4},
        RywParam{"store", 64, 0}, RywParam{"store", 64, 32},
        RywParam{"store", 100, 20}, RywParam{"store", 256, 0},
        RywParam{"store", 4096, 64}, RywParam{"store", 5000, 123},
        RywParam{"ntstore", 64, 0}, RywParam{"ntstore", 256, 0},
        RywParam{"ntstore", 17, 3}, RywParam{"ntstore", 4096, 0},
        RywParam{"ntstore", 1000, 200}, RywParam{"store_flush", 64, 0},
        RywParam{"store_flush", 300, 60}, RywParam{"store_flush", 8192, 0}));

TEST(ReadYourWriteMore, OverwriteMixedModes) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto a = pattern_bytes(512, 1);
  const auto b = pattern_bytes(512, 2);
  ns.store_persist(t, 1000, a);
  ns.ntstore(t, 1000, b);  // ntstore over dirty cached data
  ns.sfence(t);
  std::vector<std::uint8_t> out(512);
  ns.load(t, 1000, out);
  EXPECT_EQ(out, b);
}

TEST(ReadYourWriteMore, NtstorePreservesNeighborBytes) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto base = pattern_bytes(64, 1);
  ns.store_persist(t, 0, base);
  // Overwrite bytes 16..31 with ntstore; the rest of the line must keep
  // the earlier (cached, dirty at the time) contents.
  const auto mid = pattern_bytes(16, 9);
  ns.ntstore(t, 16, mid);
  ns.sfence(t);
  std::vector<std::uint8_t> out(64);
  ns.load(t, 0, out);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], base[i]) << i;
  for (int i = 16; i < 32; ++i) EXPECT_EQ(out[i], mid[i - 16]) << i;
  for (int i = 32; i < 64; ++i) EXPECT_EQ(out[i], base[i]) << i;
}

// ------------------------------------------------------------ persistence
TEST(Persistence, UnflushedStoreLostOnCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(64, 5);
  ns.store(t, 0, data);  // dirty in cache only
  EXPECT_GT(platform.crash(), 0u);
  std::vector<std::uint8_t> out(64);
  ns.peek(0, out);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 0);
}

TEST(Persistence, FlushedStoreSurvivesCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(64, 6);
  ns.store_persist(t, 0, data);
  platform.crash();
  std::vector<std::uint8_t> out(64);
  ns.peek(0, out);
  EXPECT_EQ(out, data);
}

TEST(Persistence, NtstoreSurvivesCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(128, 7);
  ns.ntstore(t, 256, data);
  ns.sfence(t);
  platform.crash();
  std::vector<std::uint8_t> out(128);
  ns.peek(256, out);
  EXPECT_EQ(out, data);
}

TEST(Persistence, ClflushoptAlsoPersists) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(64, 8);
  ns.store(t, 512, data);
  ns.clflushopt(t, 512, 64);
  ns.sfence(t);
  platform.crash();
  std::vector<std::uint8_t> out(64);
  ns.peek(512, out);
  EXPECT_EQ(out, data);
}

TEST(Persistence, PartialFlushPartialSurvival) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(128, 9);
  ns.store(t, 0, data);
  ns.persist(t, 0, 64);  // flush only the first line
  platform.crash();
  std::vector<std::uint8_t> out(128);
  ns.peek(0, out);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], data[i]) << i;
  for (int i = 64; i < 128; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(Persistence, LoadAfterCrashSeesDurableImage) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(64, 10);
  ns.store(t, 0, data);  // cached dirty
  platform.crash();
  std::vector<std::uint8_t> out(64);
  ThreadCtx t2 = make_thread(1);
  ns.load(t2, 0, out);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 0);
}

// -------------------------------------------------------------- EWR basic
TEST(Ewr, SequentialNtStoresNearUnity) {
  Platform platform;
  PmemNamespace& ns = platform.optane_ni(16 << 20);
  ThreadCtx t = make_thread(0, 0, 8);
  const auto data = pattern_bytes(256, 1);
  for (std::uint64_t off = 0; off + 256 <= (4 << 20); off += 256)
    ns.ntstore(t, off, data);
  ns.sfence(t);
  const XpCounters c = ns.xp_counters();
  EXPECT_GT(c.ewr(), 0.9);
  EXPECT_LT(c.ewr(), 1.1);
}

TEST(Ewr, Random64ByteNtStoresQuarter) {
  Platform platform;
  PmemNamespace& ns = platform.optane_ni(256 << 20);
  ThreadCtx t = make_thread(0, 0, 8);
  const auto data = pattern_bytes(64, 1);
  sim::Rng rng(17);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t off = rng.uniform((256 << 20) / 64) * 64;
    ns.ntstore(t, off, data);
  }
  ns.sfence(t);
  const XpCounters c = ns.xp_counters();
  EXPECT_NEAR(c.ewr(), 0.25, 0.05);
}

TEST(Ewr, Random256ByteNtStoresNearUnity) {
  Platform platform;
  PmemNamespace& ns = platform.optane_ni(256 << 20);
  ThreadCtx t = make_thread(0, 0, 8);
  const auto data = pattern_bytes(256, 1);
  sim::Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t off = rng.uniform((256 << 20) / 256) * 256;
    ns.ntstore(t, off, data);
  }
  ns.sfence(t);
  EXPECT_GT(ns.xp_counters().ewr(), 0.9);
}

TEST(Ewr, PlainStoreStreamLosesSequentiality) {
  // Store-only streaming through the cache shuffles write-back order and
  // destroys XPBuffer locality (paper §5.2: EWR 0.26 vs 0.98).
  Platform platform;
  PmemNamespace& ns = platform.optane_ni(256 << 20);
  ThreadCtx t = make_thread(0, 0, 8);
  const auto data = pattern_bytes(256, 1);
  // Stream 160 MB: enough to overflow the 32 MB cache and reach steady
  // state of natural evictions.
  for (std::uint64_t off = 0; off + 256 <= (160ull << 20); off += 256)
    ns.store(t, off, data);
  const XpCounters c = ns.xp_counters();
  EXPECT_LT(c.ewr(), 0.45);
}

// --------------------------------------------------------------- counters
TEST(Counters, ImcWriteBytesMatchFlushedLines) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(256, 1);
  ns.ntstore(t, 0, data);
  ns.sfence(t);
  const XpCounters c = ns.xp_counters();
  EXPECT_EQ(c.imc_write_bytes, 256u);
}

TEST(Counters, ReadsCountImcBytes) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  std::vector<std::uint8_t> out(1024);
  ns.load(t, 0, out);
  EXPECT_EQ(ns.xp_counters().imc_read_bytes, 1024u);
  // Second load hits the CPU cache: no more DIMM traffic.
  ns.load(t, 0, out);
  EXPECT_EQ(ns.xp_counters().imc_read_bytes, 1024u);
}

// ----------------------------------------------------------------- timing
TEST(TimingSanity, CacheHitFasterThanMiss) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  std::vector<std::uint8_t> out(64);
  const Time t0 = t.now();
  ns.load(t, 0, out);
  t.drain();
  const Time miss = t.now() - t0;
  const Time t1 = t.now();
  ns.load(t, 0, out);
  t.drain();
  const Time hit = t.now() - t1;
  EXPECT_LT(hit * 5, miss);
}

TEST(TimingSanity, RemoteLoadSlowerThanLocal) {
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20, /*socket=*/0);
  ThreadCtx local = make_thread(0, 0);
  ThreadCtx remote = make_thread(1, 1);
  std::vector<std::uint8_t> out(64);

  const Time l0 = local.now();
  ns.load(local, 0, out);
  local.drain();
  const Time local_lat = local.now() - l0;

  const Time r0 = remote.now();
  ns.load(remote, 64 * 1024, out);
  remote.drain();
  const Time remote_lat = remote.now() - r0;

  EXPECT_GT(remote_lat, local_lat + sim::ns(40));
}

TEST(TimingSanity, DramFasterThanOptane) {
  Platform platform;
  PmemNamespace& xpns = platform.optane(16 << 20);
  PmemNamespace& dramns = platform.dram(16 << 20);
  ThreadCtx t = make_thread();
  std::vector<std::uint8_t> out(64);

  const Time t0 = t.now();
  dramns.load(t, 1 << 20, out);
  t.drain();
  const Time dram_lat = t.now() - t0;

  const Time t1 = t.now();
  xpns.load(t, 1 << 20, out);
  t.drain();
  const Time xp_lat = t.now() - t1;

  EXPECT_GT(xp_lat, dram_lat * 2);
}

TEST(TimingSanity, PmepAddsLoadLatency) {
  Platform platform;
  PmemNamespace& dramns = platform.dram(16 << 20);
  PmemNamespace& pmepns = platform.pmep(16 << 20);
  ThreadCtx t = make_thread();
  std::vector<std::uint8_t> out(64);

  const Time t0 = t.now();
  dramns.load(t, 0, out);
  t.drain();
  const Time dram_lat = t.now() - t0;

  const Time t1 = t.now();
  pmepns.load(t, 0, out);
  t.drain();
  const Time pmep_lat = t.now() - t1;

  EXPECT_NEAR(sim::to_ns(pmep_lat), sim::to_ns(dram_lat) + 300.0, 30.0);
}

// -------------------------------------------------------- wear / tail lat
TEST(Wear, MigrationTriggersAtThreshold) {
  Timing timing;
  timing.wear_threshold = 64;  // small threshold to hit quickly
  Platform platform(timing);
  PmemNamespace& ns = platform.optane_ni(1 << 20);
  ThreadCtx t = make_thread(0, 0, 8);
  const auto data = pattern_bytes(256, 1);
  // Hammer a single XPLine; every write evicts (buffer recycles quickly
  // due to repeated overwrites + eventual aging).
  for (int i = 0; i < 64 * 300; ++i) {
    ns.ntstore(t, 0, data);
    ns.sfence(t);
    // Touch another line so the hot line eventually drains.
    ns.ntstore(t, 4096 + (i % 64) * 256, data);
    ns.sfence(t);
  }
  EXPECT_GT(ns.xp_counters().wear_migrations, 0u);
}

// --------------------------------------------------------- namespaces etc
TEST(Namespace, PeekPokeBypassTiming) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  const auto data = pattern_bytes(100, 4);
  ns.poke(50, data);
  std::vector<std::uint8_t> out(100);
  ns.peek(50, out);
  EXPECT_EQ(out, data);
}

TEST(Namespace, SeparateNamespacesDontAlias) {
  Platform platform;
  PmemNamespace& a = platform.optane(1 << 20);
  PmemNamespace& b = platform.optane_ni(1 << 20);
  ThreadCtx t = make_thread();
  const auto da = pattern_bytes(64, 1);
  const auto db = pattern_bytes(64, 2);
  a.store_persist(t, 0, da);
  b.store_persist(t, 0, db);
  std::vector<std::uint8_t> out(64);
  a.load(t, 0, out);
  EXPECT_EQ(out, da);
  b.load(t, 0, out);
  EXPECT_EQ(out, db);
}

TEST(Namespace, PodHelpers) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  ns.store_pod<std::uint64_t>(t, 128, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(ns.load_pod<std::uint64_t>(t, 128), 0xdeadbeefcafef00dULL);
}

TEST(Namespace, CrossSocketCoherence) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t0 = make_thread(0, 0);
  ThreadCtx t1 = make_thread(1, 1);
  const auto data = pattern_bytes(64, 3);
  ns.store(t0, 0, data);  // dirty in socket-0 cache
  std::vector<std::uint8_t> out(64);
  ns.load(t1, 0, out);    // socket 1 must see socket 0's dirty data
  EXPECT_EQ(out, data);
}

TEST(Namespace, WritebackAllCachesMakesDurable) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = make_thread();
  const auto data = pattern_bytes(64, 12);
  ns.store(t, 0, data);
  platform.writeback_all_caches();
  platform.crash();
  std::vector<std::uint8_t> out(64);
  ns.peek(0, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace xp::hw
