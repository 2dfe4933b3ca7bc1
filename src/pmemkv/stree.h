// Mini-PMemKV "stree" engine: a persistent B+-tree in the FPTree style
// (Oukid et al., SIGMOD'16 — cited by the paper's related work [45]).
//
// Hybrid SCM-DRAM design: only the *leaves* are persistent — a singly
// linked list of fixed-capacity nodes with unsorted slots and a validity
// bitmap — while the inner search structure lives in DRAM and is rebuilt
// by walking the leaf chain on open. This shape is exactly what the
// paper's guidelines favor on real Optane:
//
//  * the common-case insert is slot write + persist + one atomic 4-byte
//    bitmap persist (no shifting, minimal small random writes);
//  * value updates are out-of-place blob writes committed by one atomic
//    8-byte pointer persist;
//  * leaf splits, the only multi-word structural change, run inside a
//    pmemlib undo-log transaction.
//
// Keys up to 31 bytes inline; values are pool-allocated blobs. Freed
// blobs and crash-orphaned allocations are leaked (a real engine adds
// epoch GC); tests bound the churn.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pmemlib/linereader.h"
#include "pmemlib/pool.h"
#include "sim/status.h"

namespace xp::pmemkv {

struct STreeOptions {
  // DRAM read-cache capacity in 256 B lines (0 = no cache; 4096 = 1 MiB)
  // behind the leaf-staging LineReader, so hot leaves are re-served from
  // DRAM with no DIMM traffic.
  std::size_t read_cache_lines = 0;
};

class STree {
 public:
  static constexpr std::size_t kMaxKey = 31;
  static constexpr unsigned kLeafSlots = 32;

  explicit STree(pmem::Pool& pool, STreeOptions opts = {})
      : pool_(pool), opts_(opts) {}

  // Root slot layout: {u64 first_leaf}.
  void create(sim::ThreadCtx& ctx);
  void open(sim::ThreadCtx& ctx);  // rebuilds the DRAM index

  // Returns false (and does nothing) if the key exceeds kMaxKey.
  bool put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value);
  bool get(sim::ThreadCtx& ctx, std::string_view key, std::string* value);
  bool remove(sim::ThreadCtx& ctx, std::string_view key);

  // In-order scan: up to max_results pairs with key >= start_key.
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start_key,
      std::size_t max_results);

  std::uint64_t count(sim::ThreadCtx& ctx);

  // Recovery invariants (crashmc checker entry point). Call after open():
  // validates the leaf chain against the durable image (untimed peeks):
  // leaves in-bounds and acyclic, valid slots with key_len <= kMaxKey and
  // value blobs inside the allocated heap, keys globally unique, and the
  // chain key-ordered (every key in a leaf below every key in the next).
  Status check(sim::ThreadCtx& ctx);

  // Excise media damage from the tree, then scrub it: a leaf with a bad
  // header or slot line truncates the chain there (everything after is
  // dropped, reported); a slot whose value blob sits on a bad line has
  // its bitmap bit cleared. The DRAM index is rebuilt afterwards. Reads
  // after repair() never raise MediaError and never return garbage.
  void repair(sim::ThreadCtx& ctx);

  struct RecoveryInfo {
    unsigned leaves_dropped = 0;  // unreadable leaf: chain truncated
    unsigned slots_dropped = 0;   // value blob on a bad line
    bool root_reset = false;      // first leaf unreadable: tree emptied
    bool damaged() const {
      return leaves_dropped != 0 || slots_dropped != 0 || root_reset;
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

 private:
  struct Slot {  // 40 bytes
    std::uint8_t key_len;
    char key[kMaxKey];
    std::uint64_t val_off;  // -> {u32 len, bytes}
  };
  struct LeafHeader {  // 16 bytes; slots follow
    std::uint64_t next;
    std::uint32_t bitmap;  // bit i: slot i valid
    std::uint32_t pad;
  };
  static constexpr std::uint64_t kLeafSize =
      sizeof(LeafHeader) + kLeafSlots * sizeof(Slot);

  static std::uint64_t slot_off(std::uint64_t leaf, unsigned i) {
    return leaf + sizeof(LeafHeader) + i * sizeof(Slot);
  }

  LeafHeader read_header(sim::ThreadCtx& ctx, std::uint64_t leaf);
  Slot read_slot(sim::ThreadCtx& ctx, std::uint64_t leaf, unsigned i);
  std::string read_value(sim::ThreadCtx& ctx, std::uint64_t val_off);
  std::uint64_t write_value_blob(sim::ThreadCtx& ctx, std::string_view v);

  // Leaf that may contain `key` (via the DRAM index).
  std::uint64_t find_leaf(std::string_view key) const;
  // Slot index of `key` within the leaf, or -1.
  int find_slot(sim::ThreadCtx& ctx, std::uint64_t leaf,
                const LeafHeader& h, std::string_view key,
                Slot* out = nullptr);

  // Split `leaf` (full) into two; returns the leaf that should receive
  // `key` afterward. Transactional.
  std::uint64_t split_leaf(sim::ThreadCtx& ctx, std::uint64_t leaf,
                           std::string_view key);

  void index_leaf(sim::ThreadCtx& ctx, std::uint64_t leaf);
  std::string check_impl(sim::ThreadCtx& ctx);
  // Per-create/open read-path state (pmem::reset_read_path).
  void init_read_path();

  pmem::Pool& pool_;
  STreeOptions opts_;
  std::uint64_t first_leaf_ = 0;
  // DRAM inner index: smallest key in leaf -> leaf offset.
  std::map<std::string, std::uint64_t> index_;
  RecoveryInfo recovery_;
  // ---- read-path state ---------------------------------------------------
  // The first touch of a leaf stages the whole node as one line-aligned
  // burst (§5.1), so slot scans and value reads slice DRAM instead of
  // issuing a 40 B load per slot.
  std::unique_ptr<pmem::ReadCache> rcache_;
  pmem::LineReader reader_;
};

}  // namespace xp::pmemkv
