// Concurrent schedmc workloads for every store configuration.
//
// Each factory builds a Target (schedmc/explorer.h) that runs a small
// multi-threaded workload against one store, records every operation
// into a History, and knows how to rebuild the store from the durable
// image after a crash. The workloads are deterministic functions of
// (workload_seed, thread id), which is what lets the explorer replay a
// recorded schedule exactly.
//
// lsmkv, cmap, stree and the sharded frontend run through one generic
// target that drives the store only through StoreIface's typed try_*
// calls, configured by a small descriptor: how to build the store over
// its namespaces (workload::StoreDesc), its key universe and value
// lengths, and its op mix (put/get/delete/batch/counter-RMW weights).
// Group-commit windows come from workload::unacked_writes(): while the
// store holds unacknowledged writes, each write and read joins the open
// window, and when none are left the whole window becomes durable. Only
// pmemlib (transaction lanes) and novafs (rename) stay bespoke.
//
// Locking model: the logical threads are strictly serialized by the
// interleaver, but the stores themselves are single-threaded code, so
// each target takes the SchedLocks a real concurrent implementation
// would take (a per-slot lock for pmemlib's counters, one fs-wide lock
// for the NOVA directory log, one lock per physical store in the generic
// target — for a bare lsmkv store, one lock over memtable and WAL). The
// explored interleavings then reorder whole critical sections and
// everything outside them.
//
// TestFault::kElideRmwLock deliberately breaks the read-modify-write
// critical section — the lock is dropped between the read and the
// write — so two racing increments can both observe the same old value.
// The resulting lost update is invisible to the store's own checkers
// (every individual write is well-formed); only the linearizability
// oracle can catch it, which is exactly what the negative tests assert.
#pragma once

#include <memory>
#include <vector>

#include "schedmc/explorer.h"

namespace xp::schedmc {

enum class TestFault {
  kNone,
  // Drop the lock between an increment's read and its write.
  kElideRmwLock,
};

struct TargetOptions {
  std::uint64_t workload_seed = 7;
  unsigned threads = 3;
  unsigned ops_per_thread = 5;
  TestFault fault = TestFault::kNone;
};

// pmemlib: per-slot locked counter increments through undo-log
// transactions (distinct tx lanes per thread).
std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts = {});

// lsmkv: puts/gets/deletes plus a counter RMW under one db lock, with
// group commit of 3 — durability is acknowledged per WAL group, recorded
// as all-or-nothing history groups.
std::unique_ptr<Target> make_lsmkv_target(const TargetOptions& opts = {});

// novafs: create/write/unlink/rename over a small set of names with
// batched log appends (atomic rename).
std::unique_ptr<Target> make_novafs_target(const TargetOptions& opts = {});

// pmemkv cmap: put/get/remove, mixing in-place and transactional value
// sizes.
std::unique_ptr<Target> make_cmap_target(const TargetOptions& opts = {});

// pmemkv stree: put/get/remove over enough keys to split leaves.
std::unique_ptr<Target> make_stree_target(const TargetOptions& opts = {});

// Sharded frontend (K=1 ShardedStore over two per-DIMM lsmkv shards,
// deferred background compaction): puts/gets/deletes, cross-shard
// batches, a counter RMW, and a background-compaction donor thread over
// pre-populated merge debt.
std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts = {});

// All six, in the order above.
std::vector<std::unique_ptr<Target>> all_targets(const TargetOptions& opts = {});

}  // namespace xp::schedmc
