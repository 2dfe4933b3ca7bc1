// Shared types for the mini-RocksDB LSM key-value store (paper §4.2).
#pragma once

#include <cstdint>
#include <string>

#include "sim/simtime.h"

namespace xp::kv {

// Which write-ahead-log strategy the store uses — the three candidates
// compared in the paper's Fig 8 (from Xu et al. [59]):
enum class WalMode {
  kPosix,  // WAL appended through a POSIX file (syscall + fsync costs)
  kFlex,   // FLEX: WAL appended to mapped pmem with ntstore, no syscalls
  kNone,   // no WAL: the memtable itself is persistent
};

enum class MemtableMode {
  kVolatile,    // DRAM skiplist, rebuilt from the WAL on recovery
  kPersistent,  // fine-grained persistent skiplist in pmem
};

struct DbOptions {
  WalMode wal = WalMode::kFlex;
  MemtableMode memtable = MemtableMode::kVolatile;
  std::size_t memtable_bytes = 4 << 20; // flush threshold
  unsigned l0_compaction_trigger = 4;   // L0 tables before compaction
  std::uint64_t wal_capacity = 64 << 20;

  // Checksum every WAL record (CRC32C over tag+vlen+key+value, stored in
  // the record header). Catches media garbage that still parses; off by
  // default so the Fig 8 record format and timing are unchanged.
  bool wal_checksum = false;

  // Group commit (§5.1/§5.2): coalesce WAL records into one contiguous
  // XPLine-friendly burst with a single terminator + fence (+ sync) per
  // group instead of per record. Records are acknowledged durable only at
  // the group boundary; a crash mid-group rolls back to the previous
  // group (the batch appears atomically or not at all). Off by default so
  // the Fig 8 record-at-a-time path and timing are unchanged.
  bool wal_group_commit = false;
  // Puts buffered before the filling thread commits the pending group
  // (the leader/follower pattern; Db::put_batch commits its records as
  // one explicit group regardless of this threshold).
  std::size_t wal_group_size = 8;

  // ---- Read path (§5.1), off by default so the seed read behavior and
  // ---- timing are unchanged ---------------------------------------------
  // XPLine-granular read combining: binary-search probes and value reads
  // fetch whole 256 B lines through a pmem::LineReader instead of
  // dribbling dependent 4-64 B loads. It also keeps the read-path
  // metadata resident in DRAM: the manifest plus every live SSTable's
  // bloom filter and offset array (built from bytes already in hand at
  // flush/compaction, loaded at a recovered table's first probe), so
  // point gets stop re-loading ~10 KB of filter per table per lookup.
  bool read_combine = false;
  // DRAM read-cache capacity in 256 B lines (0 = no cache; 4096 = 1 MiB).
  // The cache backs the LineReader, so it only takes effect together with
  // read_combine.
  std::size_t read_cache_lines = 0;

  // ---- Background compaction (§5 under mixed traffic), off by default
  // ---- so the inline-compaction put path and timing are unchanged ------
  // When set, reaching l0_compaction_trigger only *schedules* the merge;
  // it runs when some thread donates a turn via Db::background_work()
  // (the workload engine runs one such thread per store). Writes keep
  // flowing against the growing L0 while the debt is pending; if L0
  // reaches l0_stall_trigger before a background turn arrives, the next
  // write pays the merge inline — the classic write-stall admission gate,
  // which also keeps the manifest's fixed L0 array from overflowing.
  bool background_compaction = false;
  unsigned l0_stall_trigger = 12;  // must stay < Db::kMaxL0
};

// CPU-side costs (simulated time) for work that doesn't touch the memory
// system model: DRAM-structure operations and syscalls.
inline constexpr sim::Time kCpuMemtableOp = sim::ns(250);
inline constexpr sim::Time kSyscall = sim::ns(450);
inline constexpr sim::Time kFsyncSyscall = sim::ns(700);

struct DbStats {
  std::uint64_t memtable_flushes = 0;
  std::uint64_t compactions = 0;
  // Of `compactions`: how many ran on a donated background turn, and how
  // many times a writer hit the stall gate and paid the merge inline.
  std::uint64_t background_compactions = 0;
  std::uint64_t write_stalls = 0;
  // Table bytes compaction merged (the runs it freed) and wrote (its
  // output run). Host-side counters: they cost no simulated time.
  std::uint64_t compaction_read_bytes = 0;
  std::uint64_t compaction_write_bytes = 0;
};

}  // namespace xp::kv
