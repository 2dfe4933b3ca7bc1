// Persistent pool: a crash-consistent heap on a PmemNamespace.
//
// Mini-PMDK (libpmemobj) equivalent: a pool has a header, a fixed array of
// per-thread transaction lanes (undo logs), and a heap managed by a
// logged first-fit allocator over an address-ordered, coalescing free
// list. All mutations of pool metadata go through transactions, so a
// crash at any instruction boundary recovers to a consistent state (tests
// verify this property at random crash points).
//
// Layout:
//   [0, 4K)                 header
//   [4K, 4K + L*lane_size)  transaction lanes (undo logs)
//   [heap_base, size)       heap
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pmemlib/pmem_ops.h"
#include "sim/status.h"
#include "xpsim/platform.h"

namespace xp::pmem {

class Tx;

class Pool {
 public:
  static constexpr std::uint64_t kMagic = 0x58504d454d504f4cULL;
  static constexpr unsigned kLanes = 8;
  static constexpr std::uint64_t kLaneSize = 256 * 1024;
  static constexpr std::uint64_t kHeaderSize = 4096;

  explicit Pool(hw::PmemNamespace& ns) : ns_(ns) {}

  // Format a new pool with a zeroed root object of `root_size` bytes.
  void create(ThreadCtx& ctx, std::uint64_t root_size);

  // Open an existing pool; replays/rolls back interrupted transactions.
  // Returns false if the namespace does not hold a valid pool (neither
  // header copy readable and passing header_error()).
  //
  // Media-error tolerant: a primary header that is poisoned or fails
  // header_error() falls back to the backup copy (identity restored,
  // allocator state sealed), a lane whose undo log is unreadable is
  // scrubbed and forced idle (its unacknowledged transaction is neither
  // rolled back nor completed — every logged store is individually
  // ordered, so the pool stays structurally consistent), and a poisoned
  // rollback *target* line is scrubbed and then restored from its
  // snapshot. Everything done is reported in recovery().
  bool open(ThreadCtx& ctx);

  // What the last open()/repair() had to do to get here. Empty vectors /
  // false flags mean a clean, damage-free recovery.
  struct RecoveryInfo {
    bool header_restored = false;  // primary header rebuilt from backup
    bool heap_sealed = false;      // allocator state lost: no more allocs
    unsigned lanes_forced_idle = 0;
    bool free_list_truncated = false;
    // Every 256 B line that was zeroed because its media failed. Data on
    // these lines is gone; owners must treat it as lost, not as zeros.
    std::vector<std::uint64_t> scrubbed_lines;
    bool damaged() const {
      return header_restored || lanes_forced_idle != 0 ||
             free_list_truncated || !scrubbed_lines.empty();
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  // Zero the 256 B XPLine containing `line_off` with a full-line ntstore
  // (which clears its poison) and record it in recovery().scrubbed_lines.
  void scrub_line(ThreadCtx& ctx, std::uint64_t line_off);

  // Scrub every poisoned line the ARS reports over the whole namespace,
  // then repair the free list if anything was scrubbed. Store-level
  // callers that keep structure on the heap (cmap/stree) must excise
  // damaged nodes *before* calling this, because scrubbing turns poison
  // into zeros.
  void repair(ThreadCtx& ctx);

  // Recovery invariants (crashmc checker entry point). Call after open():
  // verifies the header, that every lane is durably idle, and that the
  // allocator metadata is sane — heap_top within bounds and every free
  // chunk passing chunk_error() (so the list is address-ordered and
  // coalesced).
  Status check(ThreadCtx& ctx);

  // Test-only fault injection for crashmc's negative tests: deliberately
  // weakens the persistence protocol so the harness can demonstrate it
  // catches real bugs. Never set outside tests.
  enum class TestFault {
    kNone,
    // Tx::commit() retires the lane with a plain store (no clwb): the
    // commit record can be lost on power failure, so recovery may roll
    // back an acknowledged transaction.
    kSkipCommitFlush,
  };
  void set_test_fault(TestFault f) { test_fault_ = f; }

  std::uint64_t root(ThreadCtx& ctx);
  std::uint64_t root_size(ThreadCtx& ctx);

  // Transactional allocation (PMDK pmemobj_tx_alloc/_free equivalents).
  // Returned offsets are 64-byte aligned. Allocation metadata updates are
  // undo-logged in `tx`, so an aborted or crashed transaction leaks
  // nothing and frees nothing. A freed chunk joins the free list only
  // when `tx` commits, as in PMDK: nothing the same transaction allocates
  // lands on it, so a caller may free an object and write its replacement
  // (with raw, unlogged stores) in one transaction.
  std::uint64_t tx_alloc(Tx& tx, std::uint64_t size);
  void tx_free(Tx& tx, std::uint64_t off, std::uint64_t size);

  // Non-transactional allocation for initial data-structure setup.
  std::uint64_t alloc_raw(ThreadCtx& ctx, std::uint64_t size);

  hw::PmemNamespace& ns() { return ns_; }

  // Introspection for tests.
  std::uint64_t heap_top(ThreadCtx& ctx);

  // Heap bounds, for structural checkers validating that object offsets
  // written by higher-level stores point into allocated pool memory.
  static constexpr std::uint64_t heap_base() { return kHeapBase; }

 private:
  friend class Tx;

  struct Header {
    std::uint64_t magic;
    std::uint64_t pool_size;
    std::uint64_t root_off;
    std::uint64_t root_size;
    std::uint64_t heap_top;
    std::uint64_t free_head;  // 0 = empty free list
    // CRC32C over the four identity fields above (magic..root_size),
    // written at create() and never updated — the mutable allocator
    // fields stay out so the hot-path field writes are unchanged.
    std::uint32_t identity_crc;
    std::uint32_t reserved;
  };
  // Redundant copy of the header (critical metadata), inside the header
  // page, written at create(): if the primary's XPLine goes bad, open()
  // restores identity from here.
  static constexpr std::uint64_t kBackupHeaderOff = 2048;
  // Free chunks carry {next, size} in their first 16 bytes.
  struct FreeChunk {
    std::uint64_t next;
    std::uint64_t size;
  };

  static constexpr std::uint64_t kHeapBase =
      kHeaderSize + kLanes * kLaneSize;

  Header read_header(ThreadCtx& ctx) {
    return ns_.load_pod<Header>(ctx, 0);
  }
  void write_header_field(ThreadCtx& ctx, std::uint64_t field_off,
                          std::uint64_t value) {
    store_persist_pod(ctx, ns_, field_off, value);
  }

  std::uint64_t lane_off(unsigned lane) const {
    return kHeaderSize + lane * kLaneSize;
  }

  void recover_lane(ThreadCtx& ctx, unsigned lane);

  static std::uint32_t header_crc(const Header& h);
  // The one header rule, for open() (on both copies) and check(): the
  // identity (magic, size, CRC) and the allocator fields' bounds. Returns
  // why `h` is not this namespace's pool header, or null.
  const char* header_error(const Header& h) const;
  // The one free-chunk rule, for repair_free_list() and check(): `cur`
  // aligned inside `h`'s allocated heap and past `prev_end` (the end of
  // the chunk before it, 0 for the first), then (loaded into `chunk`) a
  // size that is a positive multiple of 64 ending below heap_top. So the
  // list is address-ordered and coalesced: no two chunks touch, and none
  // reaches heap_top. Returns why `cur` cannot be a free chunk, or "".
  std::string chunk_error(ThreadCtx& ctx, const Header& h,
                          std::uint64_t prev_end, std::uint64_t cur,
                          FreeChunk& chunk);
  std::string check_impl(ThreadCtx& ctx);
  // Drop the unreachable/damaged suffix of the free list at the first
  // chunk that is unreadable or breaks chunk_error().
  void repair_free_list(ThreadCtx& ctx);

  // Point `prev` (a free chunk, or the header's free_head when 0) at
  // `next`, undo-logged in `tx`.
  void relink(Tx& tx, std::uint64_t prev, std::uint64_t next);
  // Tx::commit's half of tx_free: insert [off, off+size) into the
  // address-ordered list, joining the chunks on either side that it
  // touches; a chunk that reaches heap_top lowers heap_top instead. Every
  // step is undo-logged and each prefix of its stores leaves a valid
  // list (at worst one that leaks the chunk).
  void link_free(Tx& tx, std::uint64_t off, std::uint64_t size);

  hw::PmemNamespace& ns_;
  TestFault test_fault_ = TestFault::kNone;
  RecoveryInfo recovery_;
};

// Undo-log transaction. Usage:
//   Tx tx(pool, ctx);            // picks a lane from the thread id
//   tx.add(off, len);            // snapshot before modifying
//   pool.ns().store_flush(...);  // or tx.store(...)
//   tx.commit();                 // durable; ~Tx() without commit aborts
class Tx {
 public:
  Tx(Pool& pool, ThreadCtx& ctx);
  ~Tx();

  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  // Snapshot [off, off+len) into the undo log (PMDK TX_ADD).
  void add(std::uint64_t off, std::uint32_t len);

  // add() + store + flush (fence deferred to commit).
  void store(std::uint64_t off, std::span<const std::uint8_t> data);

  void commit();
  void abort();

  // Crash-test support: drop the handle without rolling back or
  // committing, as if the process died here. The lane stays active in the
  // pool; the next open() rolls it back.
  void release() { active_ = false; }

  bool active() const { return active_; }
  unsigned lane() const { return lane_; }

 private:
  struct LaneHeader {
    std::uint32_t state;  // 0 idle, 1 active
    std::uint32_t nentries;
    std::uint64_t blob_top;  // next free byte in the blob area
  };
  struct Entry {
    std::uint64_t off;
    std::uint32_t len;
    std::uint32_t blob_off;  // within the lane's blob area
  };
  static constexpr std::uint32_t kMaxEntries = 1024;
  static constexpr std::uint64_t kEntriesOff = 64;
  static constexpr std::uint64_t kBlobOff =
      kEntriesOff + kMaxEntries * sizeof(Entry);

  friend class Pool;
  static void recover(Pool& pool, ThreadCtx& ctx, std::uint64_t lane_base);

  Pool& pool_;
  ThreadCtx& ctx_;
  unsigned lane_;
  std::uint64_t base_;  // namespace offset of the lane
  LaneHeader hdr_{};
  bool active_ = false;
  // tx_free's chunks {off, size}, linked into the free list at commit.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> frees_;
};

}  // namespace xp::pmem
