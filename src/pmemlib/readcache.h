// A small sharded DRAM cache of 256 B XPLines (paper §5.1, read side).
//
// The XP media transfers whole 256 B XPLines no matter how few bytes the
// CPU asked for, so a pointer-chasing read path pays a full media line
// per 8-byte hop. Keeping recently fetched XPLines in DRAM turns repeat
// reads of hot metadata (bloom filters, bucket chains, index leaves) into
// DRAM-latency hits with zero DIMM traffic. The cache registers itself as
// the namespace's StoreObserver, so every write through any path (store,
// ntstore, poke, media-fault clobber) drops the covered lines — a cached
// line is therefore always bytewise identical to what a timed load would
// return.
//
// Eviction is per-shard clock (second chance): a lookup sets the entry's
// referenced bit; the rotating hand clears it once before reclaiming the
// slot. Sharding by line index keeps the hand's sweep short and mirrors
// how a per-core software cache would partition: kShards shards share
// the capacity equally, or one shard holds a capacity below kShards
// lines.
//
// Timing model: a hit is one DRAM-latency access (`kHitCost`) issued
// through the calling thread's MLP window — it pipelines like any other
// memory access but touches no simulated device, since the payload lives
// in host DRAM, not behind the DDR-T interface. Misses charge nothing —
// the PM fetch that follows pays the real cost. The cache is volatile
// state: recovery paths construct a fresh one, exactly as a DRAM cache
// empties on restart.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/flat_index.h"
#include "sim/scheduler.h"
#include "sim/simtime.h"
#include "xpsim/platform.h"

namespace xp::pmem {

class ReadCache final : public hw::StoreObserver {
 public:
  static constexpr std::uint64_t kLine = hw::Platform::kXpLineBytes;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      // clock reclaimed a valid slot
    std::uint64_t invalidations = 0;  // a write dropped a cached line
  };

  // `capacity_lines` 256 B lines in total (4096 = 1 MiB).
  ReadCache(hw::PmemNamespace& ns, std::size_t capacity_lines) : ns_(ns) {
    const std::size_t n = capacity_lines < kShards ? 1 : kShards;
    shards_.resize(n);
    const std::size_t per = capacity_lines / n;
    for (auto& s : shards_) {
      s.entries.resize(per == 0 ? 1 : per);
      s.data.resize(s.entries.size() * kLine);
    }
    ns_.set_store_observer(this);
  }

  ~ReadCache() override {
    if (ns_.store_observer() == this) ns_.set_store_observer(nullptr);
  }

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  // Copy the cached line at 256 B-aligned `line_off` into `out` (256
  // bytes) and charge one DRAM access; false on miss (charges nothing).
  bool lookup(sim::ThreadCtx& ctx, std::uint64_t line_off,
              std::uint8_t* out) {
    Shard& s = shard_of(line_off);
    const std::uint32_t slot = s.find(line_off);
    if (slot == sim::FlatIndex::kNone) {
      ++stats_.misses;
      return false;
    }
    s.entries[slot].referenced = true;
    std::memcpy(out, s.data.data() + slot * kLine, kLine);
    ++stats_.hits;
    // A hit is a host-memory access: CPU-cache latency if the line is in
    // the shard's recent set, DRAM latency otherwise — and it pipelines
    // through the core's MLP window like any other memory access (a
    // serial stall here would make cached reads slower than mlp-deep
    // pipelined device reads, inverting the real ordering).
    const sim::Time cost =
        touch_recent(s, line_off) ? kHotHitCost : kHitCost;
    const sim::Time t0 =
        ctx.begin_access(ns_.platform().timing().issue_gap);
    ctx.complete_access(t0 + cost);
    if (hw::TelemetrySink* sink = ns_.platform().telemetry())
      sink->read_path(hw::ReadPathEventKind::kCacheHitLine, ctx.now(), kLine);
    return true;
  }

  // Install the content of the line at `line_off` (just fetched from PM).
  void insert(sim::ThreadCtx& ctx, std::uint64_t line_off,
              const std::uint8_t* data) {
    Shard& s = shard_of(line_off);
    std::uint32_t slot = s.find(line_off);  // hit: refresh in place
    if (slot == sim::FlatIndex::kNone) {
      slot = reclaim(s);
      Entry& victim = s.entries[slot];
      if (victim.valid) {
        s.index.erase(victim.line_off, slot);
        ++stats_.evictions;
      }
      victim.valid = true;
      victim.line_off = line_off;
      s.index.insert(line_off, slot);
    }
    Entry& e = s.entries[slot];
    e.referenced = true;
    std::memcpy(s.data.data() + slot * kLine, data, kLine);
    ++stats_.insertions;
    if (hw::TelemetrySink* sink = ns_.platform().telemetry())
      sink->read_path(hw::ReadPathEventKind::kCacheFillLine, ctx.now(), kLine);
  }

  // StoreObserver: drop every cached line overlapping [off, off+len).
  void on_store(std::uint64_t off, std::size_t len) override {
    if (len == 0) return;
    const std::uint64_t first = off / kLine * kLine;
    const std::uint64_t last = (off + len - 1) / kLine * kLine;
    for (std::uint64_t line = first;; line += kLine) {
      Shard& s = shard_of(line);
      if (const std::uint32_t slot = s.find(line);
          slot != sim::FlatIndex::kNone) {
        s.entries[slot].valid = false;
        s.entries[slot].referenced = false;
        s.index.erase(line, slot);
        forget_recent(s, line);
        ++stats_.invalidations;
        if (hw::TelemetrySink* sink = ns_.platform().telemetry())
          sink->read_path(hw::ReadPathEventKind::kCacheInvalidate, 0, kLine);
      }
      if (line == last) break;
    }
  }

  void clear() {
    for (auto& s : shards_) {
      for (auto& e : s.entries) e = Entry{};
      s.index.clear();
      s.hand = 0;
      s.recent.clear();
      s.recent_pos = 0;
    }
  }

  const Stats& stats() const { return stats_; }
  hw::PmemNamespace& ns() { return ns_; }

 private:
  static constexpr std::size_t kShards = 8;  // a power of two
  // Simulated cost of serving one lookup hit from DRAM.
  static constexpr sim::Time kHitCost = sim::ns(60);
  // The cache's payload is ordinary cacheable host memory, so recently
  // served lines are still CPU-cache resident: a re-hit within the last
  // kHotLinesPerShard distinct lines of a shard costs kHotHitCost (an
  // LLC-latency access) instead of the full DRAM round trip.
  static constexpr std::size_t kHotLinesPerShard = 64;
  static constexpr sim::Time kHotHitCost = sim::ns(5);

  struct Entry {
    std::uint64_t line_off = 0;
    bool valid = false;
    bool referenced = false;
  };
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  struct Shard {
    std::vector<Entry> entries;
    std::vector<std::uint8_t> data;  // entries.size() * kLine payload bytes
    sim::FlatIndex index;  // line_off of each valid entry -> slot
    std::size_t hand = 0;
    // Ring of the last kHotLinesPerShard distinct lines served — the
    // approximation of which payload lines are still CPU-cache resident.
    std::vector<std::uint64_t> recent;
    std::size_t recent_pos = 0;

    // Slot of the valid entry caching `line_off`, or sim::FlatIndex::kNone.
    std::uint32_t find(std::uint64_t line_off) const {
      return index.find(line_off, entries, &Entry::line_off);
    }
  };

  // True if `line_off` is in the shard's recent set; records it otherwise.
  bool touch_recent(Shard& s, std::uint64_t line_off) {
    if (s.recent.empty()) s.recent.assign(kHotLinesPerShard, kNoLine);
    for (std::uint64_t l : s.recent)
      if (l == line_off) return true;
    s.recent[s.recent_pos] = line_off;
    s.recent_pos = (s.recent_pos + 1) % s.recent.size();
    return false;
  }

  void forget_recent(Shard& s, std::uint64_t line_off) {
    for (auto& l : s.recent)
      if (l == line_off) l = kNoLine;
  }

  Shard& shard_of(std::uint64_t line_off) {
    return shards_[(line_off / kLine) & (shards_.size() - 1)];
  }

  // Clock sweep: prefer an invalid slot, give referenced entries one
  // second chance, otherwise reclaim.
  std::uint32_t reclaim(Shard& s) {
    for (;;) {
      Entry& e = s.entries[s.hand];
      const auto slot = static_cast<std::uint32_t>(s.hand);
      s.hand = (s.hand + 1) % s.entries.size();
      if (!e.valid) return slot;
      if (e.referenced) {
        e.referenced = false;
        continue;
      }
      return slot;
    }
  }

  hw::PmemNamespace& ns_;
  std::vector<Shard> shards_;
  Stats stats_;
};

}  // namespace xp::pmem
