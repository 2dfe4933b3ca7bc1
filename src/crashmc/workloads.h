// Crash-point exploration targets for every persistent store in the
// repo, shared by tests/crashmc_test.cc, tests/faultmc_test.cc and
// bench/crashmc_sweep.cc.
//
// Every key-value configuration — lsmkv, cmap, stree, and the sharded
// and replicated frontends — runs through one generic target that drives
// the store only through StoreIface's typed try_* calls. A small
// descriptor configures it: how to build the store over its namespaces
// (workload::StoreDesc: bare adapter or ShardedStore, key universe,
// value lengths) and its op mix (ops, delete and batch rates, mid-run
// poison). Its model is written once:
//
//  * Each atomic domain — shard_of(key) behind a frontend, whose
//    cross-shard batches commit shard by shard, else the whole store —
//    has a pre-op and a post-op state. A batch advances every domain it
//    touches; a write answered kUnavailable was applied nowhere and
//    leaves the model unchanged. The model also keeps every value each
//    key was ever written.
//  * Crash recovery builds a fresh store from the descriptor and runs
//    open -> background_turn until no turn does work (this drives a
//    replicated rebuild) -> check -> try_get on every key, twice (a
//    recovered image must recover to itself). Each domain must read
//    back as its pre- or post-op state, and any read status other than
//    Ok or NotFound is a violation.
//  * Media repair (explore_faults) adds repair_media after open, also
//    after an open that threw (stree salvages the half-open tree; lsmkv
//    and cmap answer MediaFault). A store that no longer opens, or whose
//    half-open image cannot be salvaged, is a typed, reported total loss.
//    A diverged state is accepted only after repair_media returned
//    DataLoss, and only if every surviving value was once written.
//
// Two targets stay bespoke, because StoreIface cannot express their
// atomic units:
//
//  * pmemlib — two threads in distinct undo-log lanes bump versioned
//              slots transactionally (plus allocator churn). A slot must
//              recover to its last acknowledged or last attempted
//              version, never anything else, and Pool::check() validates
//              lane/allocator metadata.
//  * novafs  — single-page writes, page-aligned truncates and
//              create/unlink are each one atomic log append (with batched
//              appends, renames and page-straddling writes too); the
//              recovered file set must byte-match the pre- or post-op
//              state, and NovaFs::fsck() validates logs and page
//              ownership.
#pragma once

#include <memory>
#include <vector>

#include "crashmc/explorer.h"
#include "lsmkv/common.h"

namespace xp::crashmc {

// `inject_commit_fault` deliberately skips the clwb of the undo-log
// lane-retire store in Tx::commit (Pool::TestFault::kSkipCommitFlush) so
// negative tests can prove the harness catches a real protocol bug.
std::unique_ptr<Target> make_pmemlib_target(bool inject_commit_fault = false);
// lsmkv with a 512 B memtable and an L0 trigger of 2, so flushes and
// compactions fall inside the crash window. `wal_checksum` turns on
// per-record WAL CRCs (the fault campaign's configuration).
// `group_commit` runs the workload as put_batch groups: the acknowledged
// unit becomes the batch, and a crash inside a group must roll back to
// the previous group boundary.
std::unique_ptr<Target> make_lsmkv_target(
    kv::WalMode mode = kv::WalMode::kFlex, bool wal_checksum = false,
    bool group_commit = false);
// `log_checksum` appends per-entry CRC footers to the inode logs.
// `batch_appends` coalesces multi-entry operations into atomic log
// bursts and adds the operations only that mode makes atomic (renames,
// page-straddling embedded writes) to the workload.
std::unique_ptr<Target> make_novafs_target(bool log_checksum = false,
                                           bool batch_appends = false);
// cmap values of 8 or 24 bytes: the in-place single-line update path and
// the transactional replace path.
std::unique_ptr<Target> make_cmap_target();
// stree over enough keys to split leaves transactionally.
std::unique_ptr<Target> make_stree_target();
// ShardedStore (K=1) over two per-DIMM lsmkv shards with deferred
// background compaction: singles, cross-shard batches, donated merges.
std::unique_ptr<Target> make_sharded_target();
// Self-healing replicated ShardedStore (K=2) over two lsmkv shards:
// store 0 takes at-rest poison mid-run, so crash points land inside the
// online rebuild's heal ntstores and re-silver WAL bursts, and recovery
// drives the rebuild to completion before judging the state.
std::unique_ptr<Target> make_resilient_target();

// The standard panel: pmemlib, lsmkv (FLEX WAL, per-record and group
// commit), novafs (per-entry and batched log appends), cmap, stree, and
// the sharded and replicated frontends. `checksums` enables the WAL/log
// CRC options on the stores that have them (the fault campaign's
// configuration).
std::vector<std::unique_ptr<Target>> all_targets(bool checksums = false);

}  // namespace xp::crashmc
