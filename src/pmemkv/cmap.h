// Mini-PMemKV "cmap" engine: a persistent chained hash map (paper §5.4.1).
//
// Mirrors PMemKV's concurrent hash map: a fixed bucket array of head
// pointers in persistent memory, per-bucket chains of nodes, in-place
// value updates when sizes match (the common case for the `overwrite`
// benchmark of Fig 19), and atomic 8-byte pointer swaps for inserts.
// Simulated-thread concurrency is modeled with a per-bucket lock cost.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pmemlib/pool.h"
#include "sim/status.h"

namespace xp::pmemkv {

// Where the engine's pool should live relative to the serving threads
// (paper §5.4: NUMA-remote pmem access collapses under load).
enum class Placement {
  kFixed,      // pool socket chosen independently of the servers
  kNumaLocal,  // pool socket = the socket serving the requests
};

inline unsigned placement_socket(Placement p, unsigned server_socket,
                                 unsigned fixed_socket = 0) {
  return p == Placement::kNumaLocal ? server_socket : fixed_socket;
}

// No options: the type selects the cmap family in StoreDesc/make_store.
struct CMapOptions {};

class CMap {
 public:
  static constexpr std::uint32_t kBuckets = 1 << 16;

  explicit CMap(pmem::Pool& pool) : pool_(pool) {}

  // Allocate the bucket array (root object must hold >= 8 bytes; the
  // bucket table is referenced from it).
  void create(sim::ThreadCtx& ctx);
  void open(sim::ThreadCtx& ctx);

  void put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value);
  bool get(sim::ThreadCtx& ctx, std::string_view key, std::string* value);
  bool remove(sim::ThreadCtx& ctx, std::string_view key);

  std::uint64_t count(sim::ThreadCtx& ctx);

  // Recovery invariants (crashmc checker entry point). Call after open():
  // validates the bucket table and every chain against the durable image
  // (untimed peeks — the 64K-bucket scan would swamp simulated time):
  // node offsets aligned and inside the allocated heap, chains acyclic,
  // keys hashing to their bucket, no duplicate key within a chain.
  Status check(sim::ThreadCtx& ctx);

  // Excise media damage from the map, then scrub it: a node whose payload
  // is on a bad line is spliced out of its chain, a node whose header is
  // unreadable cuts the chain there (the tail leaks, reported), and a bad
  // bucket-table line zeroes its buckets (their chains leak). Reads after
  // repair() never raise MediaError and never return garbage.
  void repair(sim::ThreadCtx& ctx);

  struct RecoveryInfo {
    unsigned chains_cut = 0;      // unreadable node header: tail dropped
    unsigned nodes_spliced = 0;   // unreadable payload: node dropped
    unsigned buckets_zeroed = 0;  // bucket-table line lost
    bool damaged() const {
      return chains_cut != 0 || nodes_spliced != 0 || buckets_zeroed != 0;
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

 private:
  struct NodeHeader {
    std::uint64_t next;
    std::uint32_t klen;
    std::uint32_t vlen;
  };

  static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    return h;
  }

  std::uint64_t bucket_off(std::uint64_t h) const {
    return table_ + (h & (kBuckets - 1)) * 8;
  }

  // Find the node for `key` in its chain; returns {node_off, pred_link_off}
  // where pred_link_off is the address of the pointer that references it.
  struct Located {
    std::uint64_t node = 0;
    std::uint64_t pred_link = 0;
    NodeHeader header{};
  };
  Located locate(sim::ThreadCtx& ctx, std::string_view key);
  std::string check_impl(sim::ThreadCtx& ctx);

  pmem::Pool& pool_;
  std::uint64_t table_ = 0;
  RecoveryInfo recovery_;
};

}  // namespace xp::pmemkv
