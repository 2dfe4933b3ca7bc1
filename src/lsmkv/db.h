// Mini-RocksDB: a two-level LSM tree on persistent memory.
//
// Supports the three persistence strategies the paper compares (Fig 8):
//   * WAL-POSIX + volatile memtable (stock RocksDB on a DAX file),
//   * WAL-FLEX + volatile memtable (sequential user-space pmem log),
//   * persistent skiplist memtable, no WAL (fine-grained persistence).
//
// Writes go to the memtable (+WAL); when the memtable exceeds the
// threshold it is flushed to an L0 SSTable; when L0 fills up, the L0 runs
// are merge-compacted with the newest L1 runs of comparable size into one
// new L1 run (size-tiered: older, larger runs are not rewritten). The
// manifest lives in the pool root and is updated transactionally, so
// crash-recovery resumes from a consistent table set plus WAL replay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lsmkv/common.h"
#include "lsmkv/memtable.h"
#include "lsmkv/pskiplist.h"
#include "lsmkv/sstable.h"
#include "lsmkv/wal.h"
#include "pmemlib/pool.h"
#include "sim/status.h"

namespace xp::kv {

class Db {
 public:
  static constexpr unsigned kMaxL0 = 16;
  static constexpr unsigned kMaxL1 = 16;
  // Size-tiered compaction absorbs the next-older L1 run while it holds
  // at most this many times the bytes the merge has gathered so far.
  static constexpr std::uint64_t kTierRatio = 2;

  // How many of the oldest L1 runs a compaction of `l0_bytes` of L0 runs
  // leaves in place, given the L1 run sizes oldest first (the manifest's
  // order); it merges the rest. Walking back from the newest run, each
  // next-older run is absorbed while it is at most kTierRatio times the
  // bytes gathered so far; and a merge that would leave kMaxL1 runs
  // absorbs one more. Tombstones drop only when it keeps none, as nothing
  // older is then left for them to hide.
  static std::size_t plan_compaction(std::span<const std::uint64_t> l1_sizes,
                                     std::uint64_t l0_bytes);

  Db(hw::PmemNamespace& ns, DbOptions opts)
      : opts_(opts), pool_(ns) {}

  // Format a fresh database.
  void create(sim::ThreadCtx& ctx);

  // Open after a restart/crash: recovers the pool, reloads the manifest,
  // replays the WAL (or re-adopts the persistent memtable). Returns false
  // if the namespace holds no database.
  //
  // Media-error tolerant: a primary manifest that is unreadable or fails
  // check()'s manifest rules (a scrub zeroes a poisoned line) is restored
  // from its mirrored backup copy. A WAL that stops replaying (poison or
  // checksum failure) is truncated at the damage point — records before
  // it are flushed to an SSTable (unless the pool's heap is sealed),
  // records after it are reported lost via recovery(), never silently
  // dropped.
  bool open(sim::ThreadCtx& ctx);

  // What open()/repair() had to do about damaged media.
  struct RecoveryInfo {
    bool manifest_restored = false;  // primary manifest rebuilt from backup
    bool wal_damaged = false;
    std::uint64_t wal_damage_off = 0;     // WAL-relative damage point
    std::uint64_t wal_records_replayed = 0;
    bool wal_flush_skipped = false;  // heap sealed: replayed records are
                                     // served but not yet re-persisted
    std::vector<std::string> tables_quarantined;  // e.g. "l0[2]"
    std::string detail;
    bool damaged() const {
      return manifest_restored || wal_damaged || !tables_quarantined.empty();
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  // Rewrite a poisoned primary manifest from a committed copy, verify
  // every referenced SSTable's content checksum; quarantine (drop from
  // the manifest, transactionally) any that fail, then scrub all
  // remaining poison in the namespace. Quarantined data is gone — the
  // point is that reads after repair() never return garbage for it.
  void repair(sim::ThreadCtx& ctx);

  void put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value);
  void del(sim::ThreadCtx& ctx, std::string_view key);
  bool get(sim::ThreadCtx& ctx, std::string_view key, std::string* value);

  // Write a batch of records as one WAL group commit (one terminator +
  // fence + sync for the whole batch, §5.1/§5.2). The batch is
  // crash-atomic: recovery sees all of it or none of it. Falls back to
  // per-record writes when the store has no WAL (persistent memtable).
  void put_batch(sim::ThreadCtx& ctx, std::span<const WalRecord> recs);

  // With DbOptions::wal_group_commit, individual put()/del() calls buffer
  // their WAL records; the thread whose write fills the group (the
  // leader) commits the burst for everyone. Callers needing durability at
  // a specific point force the pending group out with this.
  void commit_pending(sim::ThreadCtx& ctx);
  std::size_t pending_records() const { return pending_.size(); }

  // Force a memtable flush (normally automatic at memtable_bytes).
  void flush(sim::ThreadCtx& ctx);

  // One deferred-compaction turn (DbOptions::background_compaction): runs
  // the scheduled merge if one is pending. Returns true if work was done.
  // Safe to call from any simulated thread, but like every Db entry point
  // it must be externally serialized against concurrent ops.
  bool background_work(sim::ThreadCtx& ctx);
  bool compaction_pending() const { return compaction_pending_; }

  // Recovery invariants (crashmc checker entry point). Call after open():
  // validates pool metadata, the primary manifest on PM (equal to the
  // DRAM mirror under read_combine, and passing the manifest rules open()
  // also applies) and that every referenced SSTable passes its content
  // checksum and walks with strictly increasing keys.
  Status check(sim::ThreadCtx& ctx);

  // Range scan: up to `max_results` live key/value pairs with
  // key >= start_key, in key order, newest version winning and
  // tombstones hidden. Every source seeks to start_key (the memtable by
  // lower bound, each run through an SsTable::Cursor) and the merge stops
  // at the max_results-th live row, so a scan reads about what it
  // returns, not the whole store.
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start_key,
      std::size_t max_results);

  // The committed manifest's L1 run count (one timed manifest load), for
  // tests and benches that pin the layout they measure.
  std::uint32_t l1_runs(sim::ThreadCtx& ctx) {
    return load_manifest(ctx).n_l1;
  }

  const DbStats& stats() const { return stats_; }
  const DbOptions& options() const { return opts_; }
  pmem::Pool& pool() { return pool_; }

 private:
  struct TableRef {
    std::uint64_t off = 0;
    std::uint64_t size = 0;
  };
  struct Manifest {
    std::uint32_t wal_mode;
    std::uint32_t memtable_mode;
    std::uint32_t flags;  // bit 0: WAL records carry checksums
    std::uint32_t reserved;
    std::uint64_t wal_base;
    std::uint64_t wal_capacity;
    std::uint64_t pskiplist_root;  // pool offset of the head pointer slot
    std::uint32_t n_l0;
    std::uint32_t n_l1;
    TableRef l0[kMaxL0];  // oldest first
    TableRef l1[kMaxL1];
  };
  // Redundant manifest copy in the pool's reserved region (between the
  // backup pool header at 2048+56 and the lanes at 4096); the manifest is
  // the only route to every table, so its primary line going bad must not
  // take the database with it. Mirrored on every manifest store, and by
  // open() from the manifest it recovers: a crash inside a commit leaves
  // the mirror one manifest ahead of the primary the pool rolls back.
  static constexpr std::uint64_t kManifestBackupOff = 2560;
  static_assert(sizeof(Manifest) <= 4096 - kManifestBackupOff);

  void write_record(sim::ThreadCtx& ctx, std::string_view key,
                    std::string_view value, bool tombstone);
  std::string check_impl(sim::ThreadCtx& ctx);
  void maybe_flush(sim::ThreadCtx& ctx);
  void compact(sim::ThreadCtx& ctx, Manifest m);
  // The memtable's rows from the first key >= start, in key order, one
  // per key with tombstones, up to and including its max_live-th live
  // row.
  std::vector<SsTable::Entry> memtable_rows(sim::ThreadCtx& ctx,
                                            std::string_view start,
                                            std::size_t max_live);
  // The k-way merge scan and compaction share. `mem` (memtable rows, the
  // newest source) and one SsTable::Cursor per run of `m` from its newest
  // down to L1 run `l1_from` (every L0 run; a scan passes 0, a compaction
  // the runs it keeps), each seeked to `start`, meet in a linear pick:
  // the smallest key comes next, the newest source holding it wins, and
  // every source at that key steps past it. emit(key, value, tombstone)
  // sees each key once, in order, and returns false to stop.
  using MergeFn =
      std::function<bool(std::string_view, std::string_view, bool)>;
  void merge(sim::ThreadCtx& ctx, const Manifest& m, std::uint32_t l1_from,
             std::string_view start, const std::vector<SsTable::Entry>& mem,
             const MergeFn& emit);
  // Allocate and build one run of sorted `entries` inside `tx` (and keep
  // its residency under read_combine).
  TableRef write_table(sim::ThreadCtx& ctx, pmem::Tx& tx,
                       const std::vector<SsTable::Entry>& entries);
  Manifest load_manifest(sim::ThreadCtx& ctx);
  void store_manifest(sim::ThreadCtx& ctx, pmem::Tx& tx, const Manifest& m);
  Manifest backup_manifest();
  // Copy `m` into the backup slot: an untimed management-path write, as
  // the mirror models firmware-level redundancy, not a data-path store.
  void mirror_manifest(const Manifest& m);
  // Why `m` cannot be this pool's manifest, or "" if it can: its modes
  // and run counts are in range, and its WAL region and every table ref
  // lie inside the allocated heap. check() and open() judge by it.
  std::string manifest_error(sim::ThreadCtx& ctx, const Manifest& m);
  // Scrub the primary manifest's poisoned lines `bad` (its ARS result),
  // then store the committed copy `m` over it.
  void restore_manifest(sim::ThreadCtx& ctx, const Manifest& m,
                        const std::vector<std::uint64_t>& bad);

  // ---- read path (DbOptions::read_combine) ------------------------------
  // Construct the per-open read-path state: the DRAM read cache (if
  // configured), the manifest mirror `m` and an empty residency map.
  // No-op with read_combine off.
  void init_read_path(const Manifest& m);
  // Drop residency entries for tables no longer in `m` (post-compaction /
  // repair) and the reader's staged span.
  void prune_residency(const Manifest& m);
  // Point lookup in one SSTable: the stock timed probe, or the combined
  // probe over the table's DRAM residency under read_combine.
  FindResult get_table(sim::ThreadCtx& ctx, std::uint64_t table_off,
                       std::string_view key, std::string* value);

  DbOptions opts_;
  pmem::Pool pool_;
  Memtable memtable_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<PSkiplist> pskip_;
  std::uint64_t root_off_ = 0;
  std::uint64_t pskip_bytes_ = 0;  // approximate, rebuilt on open
  DbStats stats_;
  RecoveryInfo recovery_;
  // Pending WAL group (wal_group_commit): records buffered since the
  // last group commit. They are already in the memtable (readable) but
  // not yet acknowledged durable.
  struct PendingRec {
    std::string key;
    std::string value;
    bool tombstone;
  };
  std::vector<PendingRec> pending_;
  std::vector<std::uint8_t> sst_scratch_;  // reused SSTable build buffer
  // A compaction scheduled by flush() but not yet run (only ever set with
  // background_compaction on). Volatile by design: open() re-derives it
  // from the recovered manifest.
  bool compaction_pending_ = false;

  // ---- read-path state (all empty/null with read_combine off) ------------
  std::optional<Manifest> manifest_cache_;  // DRAM mirror (read_combine)
  std::unordered_map<std::uint64_t, SsTable::Residency>
      residency_;  // by table offset
  std::unique_ptr<pmem::ReadCache> rcache_;
  pmem::LineReader reader_;
  std::string key_scratch_;  // reused binary-search probe key
};

}  // namespace xp::kv
