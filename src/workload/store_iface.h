// Uniform KV adapter over the four store families, so one workload
// engine (workload/engine.h), one sharded frontend (workload/shard.h)
// and one differential oracle (tests/differential_test.cc) can drive
// any of them interchangeably.
//
// Adapters are thin: each owns its store (and pool, where the store
// needs one) over a caller-provided PmemNamespace, translates the
// paper-rule tuning knobs (StoreTuning) into the store's own options,
// and leaves the store's timing untouched — driving a store through its
// adapter is telemetry-identical to driving it directly (asserted by
// tests/workload_test.cc).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/status.h"
#include "xpsim/platform.h"

namespace xp::kv {
struct DbOptions;
}
namespace xp::pmemkv {
struct CMapOptions;
struct STreeOptions;
}  // namespace xp::pmemkv
namespace xp::nova {
struct NovaOptions;
}

namespace xp::workload {

enum class StoreKind : unsigned char { kLsmkv, kCmap, kStree, kNova };
const char* store_kind_name(StoreKind k);

// The §5 fast-path knobs, mapped per family by make_store. All default
// off: a default-tuned adapter drives the stock store byte-for-byte.
struct StoreTuning {
  // §5.1/§5.2 write combining: lsmkv WAL group commit / novafs batched
  // log appends. No-op for cmap/stree (their writes are line-local).
  bool write_combine = false;
  std::size_t wal_group_size = 8;
  // §5.1 read path: DRAM residency + line-granular read combining + a
  // DRAM read cache of `read_cache_lines` 256 B lines.
  bool read_path = false;
  std::size_t read_cache_lines = 2048;
  // Deferred compaction with a write-stall admission gate (lsmkv only).
  bool background_compaction = false;
  // §5.3 writer-lane cap (cmap only; the sharded frontend handles lane
  // identity for the other families).
  unsigned writers_per_dimm = 0;
  // lsmkv memtable flush threshold: small enough that mixed workloads
  // actually exercise flush + compaction, unlike the 4 MiB default.
  std::size_t memtable_bytes = 64 << 10;
};

// One element of a batched dispatch (shard.h groups these per shard and
// lsmkv commits each group as one crash-atomic WAL burst).
struct BatchOp {
  std::string key;
  std::string value;
  bool del = false;
};

// Typed per-operation outcome for the resilient request path. The
// legacy bool/void methods throw hw::MediaError out of the store on a
// poisoned-line read; the try_* methods translate that into a status so
// callers above the frontend never see an exception or silent garbage.
enum class OpStatus : unsigned char {
  kOk,          // operation applied / value returned
  kNotFound,    // clean miss (get/del of an absent key)
  kMediaError,  // a poisoned XPLine was hit and contained (typed §2.1 MCE)
  kUnavailable, // no copy could serve within the retry/deadline budget
  kDataLoss,    // every copy of this key's data was lost (replicated mode)
};
const char* op_status_name(OpStatus s);

struct OpResult {
  OpStatus status = OpStatus::kOk;
  unsigned retries = 0;  // deterministic backoff rounds consumed
  bool failover = false; // a replica copy served this read
  bool ok() const { return status == OpStatus::kOk; }
};

class StoreIface {
 public:
  virtual ~StoreIface() = default;

  virtual const char* name() const = 0;
  virtual StoreKind kind() const = 0;

  virtual void create(sim::ThreadCtx& ctx) = 0;
  virtual bool open(sim::ThreadCtx& ctx) = 0;

  virtual void put(sim::ThreadCtx& ctx, std::string_view key,
                   std::string_view value) = 0;
  virtual bool get(sim::ThreadCtx& ctx, std::string_view key,
                   std::string* value) = 0;
  // Returns whether the key existed — but only where the store reports
  // it (del_reports_found); lsmkv tombstones blindly and returns true.
  virtual bool del(sim::ThreadCtx& ctx, std::string_view key) = 0;
  virtual bool del_reports_found() const { return true; }

  // Ordered range scan; cmap is hash-ordered and reports no scan
  // support (the engine degrades scans to point reads there).
  virtual bool supports_scan() const { return true; }
  virtual std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) = 0;

  // Apply a batch of mutations. Default: one call per op, then
  // flush_pending. lsmkv overrides this with Db::put_batch (one
  // crash-atomic group-committed WAL burst).
  virtual void apply_batch(sim::ThreadCtx& ctx,
                           std::span<const BatchOp> ops);

  // Durability barrier for buffered group commits (no-op elsewhere).
  virtual void flush_pending(sim::ThreadCtx& ctx) { (void)ctx; }

  // Donate one background turn (deferred lsmkv compaction). Returns
  // true if the turn did work.
  virtual bool background_turn(sim::ThreadCtx& ctx) {
    (void)ctx;
    return false;
  }

  virtual Status check(sim::ThreadCtx& ctx) = 0;

  // --- Typed request path -----------------------------------------------
  // Default implementations wrap the legacy methods and translate a
  // thrown hw::MediaError into OpStatus::kMediaError. A MediaError while
  // the platform is frozen (an armed read-fault campaign: the machine
  // check killed the "process") is rethrown — containment there would
  // fake surviving a crash. crashmc::CrashPointHit always propagates.
  // The sharded frontend overrides these with replication, health
  // tracking, bounded retry and deadline budgets.
  virtual OpResult try_put(sim::ThreadCtx& ctx, std::string_view key,
                           std::string_view value);
  virtual OpResult try_get(sim::ThreadCtx& ctx, std::string_view key,
                           std::string* value);
  virtual OpResult try_del(sim::ThreadCtx& ctx, std::string_view key,
                           bool* found = nullptr);
  virtual OpResult try_scan(sim::ThreadCtx& ctx, std::string_view start,
                            std::size_t n,
                            std::vector<std::pair<std::string, std::string>>* out);
  virtual OpResult try_apply_batch(sim::ThreadCtx& ctx,
                                   std::span<const BatchOp> ops);

  // The platform backing this store's namespace(s); used by the typed
  // path to distinguish contained media errors from frozen-platform
  // machine checks. Adapters over a single namespace return its platform.
  virtual hw::Platform* platform_of() const { return nullptr; }

  // Family-specific media repair after open(): quarantine or scrub
  // damaged structures, re-derive consistency from redundant metadata
  // where the family keeps any (lsmkv RecoveryInfo, pool backups), then
  // re-verify. Status::DataLoss means the store is consistent again but
  // the repair (or the open before it) dropped damaged data. The stree,
  // lsmkv and cmap adapters also accept a call after an open() that threw
  // hw::MediaError: stree salvages the half-open image, lsmkv and cmap
  // return MediaFault (a reported total loss).
  virtual Status repair_media(sim::ThreadCtx& ctx) { return check(ctx); }
};

// One adapter per family, configured by the family's own options (a
// verification harness pins WAL mode, memtable size or checksums here).
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const kv::DbOptions& opts);
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const pmemkv::CMapOptions& opts);
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const pmemkv::STreeOptions& opts);
std::unique_ptr<StoreIface> make_store(hw::PmemNamespace& ns,
                                       const nova::NovaOptions& opts);

// The StoreTuning knobs translated onto the family overloads above.
std::unique_ptr<StoreIface> make_store(StoreKind kind, hw::PmemNamespace& ns,
                                       const StoreTuning& tuning = {});

}  // namespace xp::workload
