// Persistent skiplist memtable: the "fine-grained persistence" design
// from paper §4.2 / Fig 8. Every insert allocates a node in persistent
// memory, persists it, and links it with an atomic 8-byte pointer update
// — eliminating the WAL entirely. The cost, on a real XP DIMM, is many
// small stores with poor locality (the paper measured EWR 0.434), which
// is why this design loses to a sequential WAL on Optane while winning on
// DRAM.
//
// Crash consistency: a node is fully persistent before it is linked; the
// level-0 link is a single atomic 64-bit persist. Crashes leak at most
// one unlinked node (reclaimed by the next flush's rebuild) and may leave
// upper-level links unset, which only affects search speed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "lsmkv/common.h"
#include "lsmkv/memtable.h"  // FindResult
#include "pmemlib/pool.h"
#include "sim/rng.h"

namespace xp::kv {

class PSkiplist {
 public:
  static constexpr int kMaxLevel = 8;

  // Root object (lives at a fixed pool offset): {u64 head_off}.
  PSkiplist(pmem::Pool& pool, std::uint64_t root_off)
      : pool_(pool), root_off_(root_off), rng_(0x5eed) {}

  // Allocate and install a fresh head tower (idempotent per root slot).
  void create(sim::ThreadCtx& ctx);

  // Attach to an existing skiplist (reads the head pointer).
  void open(sim::ThreadCtx& ctx);

  void put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value,
           bool tombstone);

  FindResult get(sim::ThreadCtx& ctx, std::string_view key,
                 std::string* value);

  // Sorted, deduplicated iteration (newest version of each key) from the
  // first key >= start (a tower descent; "" walks from the head with
  // none): fn(key, value, tombstone) until it returns false.
  void for_each_from(sim::ThreadCtx& ctx, std::string_view start,
                     const std::function<bool(std::string_view,
                                              std::string_view, bool)>& fn);

  // Recompute entry count and byte footprint by walking level 0 (used
  // after recovery, when the in-DRAM accounting is gone).
  struct Footprint {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };
  Footprint footprint(sim::ThreadCtx& ctx);

  std::uint64_t head() const { return head_; }

 private:
  struct NodeHeader {
    std::uint32_t klen;
    std::uint32_t vlen;  // top bit: tombstone
    std::uint32_t level;
    std::uint32_t pad;
    std::uint64_t next[kMaxLevel];
  };
  static constexpr std::uint32_t kTombstoneBit = 0x80000000u;

  std::string read_key(sim::ThreadCtx& ctx, std::uint64_t node,
                       const NodeHeader& h);
  // Tower descent: the first node whose key is >= key (0 if none).
  std::uint64_t seek(sim::ThreadCtx& ctx, std::string_view key);
  int random_level();

  pmem::Pool& pool_;
  std::uint64_t root_off_;
  std::uint64_t head_ = 0;
  sim::Rng rng_;
};

}  // namespace xp::kv
