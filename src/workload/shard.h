// Sharded concurrent frontend: a hash-partitioned router mapping N
// logical shards onto per-DIMM store instances.
//
// Why sharding helps on this hardware (paper §5.3 + §5.4): one XP DIMM
// tracks only 4 write streams and its XPBuffer thrashes under many
// interleaved writers, so a single interleaved store serializes mixed
// traffic on the device. Placing each shard on its *own* non-interleaved
// DIMM (Platform::optane_ni, round-robin over the socket's channels)
// gives every shard a private XPBuffer and stream tracker, and the
// per-shard writer lane (ThreadCtx::set_write_stream) makes all threads
// routed to a shard look like one writer to that DIMM.
//
// ShardedStore is itself a StoreIface, so the workload engine, the
// differential oracle and the schedmc/crashmc targets drive it exactly
// like a single store. Cross-shard batched dispatch (apply_batch)
// partitions a batch by the router and commits each shard's group as
// one burst through the store's write-combining path (LineBatcher);
// each per-shard group is crash-atomic, the cross-shard batch as a
// whole is not — exactly the window the crashmc target explores.
//
// Self-healing (paper §2.1 media model, per-DIMM failure domains): each
// physical store carries a health state machine
//
//   healthy -> degraded -> quarantined -> rebuilding -> healthy
//
// driven by typed MediaError outcomes. With ShardOptions::replicas == K
// > 1, every logical shard s is mirrored onto the K physical stores
// (s + r) % N — each on a different simulated DIMM — so reads fail over
// when the primary's DIMM throws and acknowledged writes survive any
// single-shard loss. A quarantined store is rebuilt online, on donated
// background_turn calls: ARS enumerates the namespace's poisoned lines,
// full-XPLine ntstores heal them, the store is reformatted and
// re-silvered key by key from a healthy copy, verified, and returned to
// service without stopping traffic (a store holding the last serving
// copy of everything it hosts is salvaged in place, like K=1, rather
// than reformatted empty). With replicas == 1 (the default)
// every replication/health structure stays empty and the frontend is
// byte-and-timing-identical to the pre-resilience frontend; a
// quarantined store is instead salvaged in place through the family's
// repair-at-open path (lsmkv RecoveryInfo), accepting bounded data loss
// but never serving garbage.
//
// The typed try_* request path adds bounded retry with deterministic
// simulated-time backoff under a per-op deadline budget: kUnavailable
// (no copy can serve *right now*) is retried, each retry first donating
// one rebuild step; kMediaError/kDataLoss are final for the op. Callers
// never see an escaped MediaError while the platform is live — an armed
// read-fault (frozen platform: the machine check killed the process) is
// rethrown, because containing it would fake surviving a crash.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "workload/store_iface.h"
#include "workload/ycsb.h"

namespace xp::workload {

// FNV-1a router: stable across runs and shard-thread counts, so the
// partition of a keyspace is a pure function of (key, nshards).
inline unsigned shard_of(std::string_view key, unsigned nshards) {
  return nshards <= 1
             ? 0
             : static_cast<unsigned>(fnv1a64(key) % nshards);
}

struct ShardOptions {
  StoreKind kind = StoreKind::kLsmkv;
  StoreTuning tuning{};
  // Present each shard's stores to its DIMM under one per-shard lane id
  // instead of the issuing thread's id (§5.3).
  bool writer_lanes = true;

  // ---- Resilience (all off-path at defaults) ---------------------------
  // K-way replication: mirror logical shard s onto physical stores
  // (s + r) % nshards for r in [0, K). 1 = off (byte-identical frontend).
  unsigned replicas = 1;
  // Contained *read* media errors a shard may take before it is pulled
  // from service; a write-path media error quarantines immediately (the
  // copy may be half-applied).
  unsigned quarantine_after = 2;
  // Bounded retry for kUnavailable outcomes: deterministic simulated
  // backoff doubling from retry_backoff, capped by max_retries and by
  // the per-op deadline budget (0 = no deadline).
  unsigned max_retries = 3;
  sim::Time retry_backoff = sim::us(5);
  sim::Time op_deadline = sim::us(200);
  // Online-rebuild chunking per donated background turn.
  unsigned heal_lines_per_turn = 8;
  unsigned resilver_keys_per_turn = 4;
};

enum class ShardHealth : unsigned char {
  kHealthy,
  kDegraded,
  kQuarantined,
  kRebuilding,
};
const char* shard_health_name(ShardHealth h);

// Host-side resilience counters (DRAM bookkeeping, no simulated cost);
// mirrors the telemetry "resilience" section for direct test access.
struct ResilienceStats {
  std::uint64_t media_errors = 0;    // MediaErrors contained (all paths)
  std::uint64_t degraded = 0;        // healthy -> degraded transitions
  std::uint64_t quarantined = 0;     // -> quarantined transitions
  std::uint64_t rebuilding = 0;      // -> rebuilding transitions
  std::uint64_t recovered = 0;       // -> healthy transitions
  std::uint64_t failover_reads = 0;  // reads served by a replica copy
  std::uint64_t retries = 0;         // backoff rounds consumed
  std::uint64_t unavailable = 0;     // ops that exhausted their budget
  std::uint64_t lines_healed = 0;    // poisoned XPLines zero-healed
  std::uint64_t keys_resilvered = 0; // keys copied back into a rebuild
  std::uint64_t keys_lost = 0;       // keys with no surviving copy
  std::uint64_t verify_mismatches = 0;  // rebuilt keys re-copied by verify
  // Typed error outcomes discarded by the legacy void/bool API (the
  // untyped wrappers have no channel to report them; see below).
  std::uint64_t legacy_dropped = 0;
};

class ShardedStore final : public StoreIface {
 public:
  // One non-interleaved per-DIMM namespace per shard, round-robin over
  // the socket's channels.
  static std::vector<hw::PmemNamespace*> make_namespaces(
      hw::Platform& platform, unsigned shards, std::uint64_t bytes_per_shard,
      unsigned socket = 0);

  // Builds one store instance per namespace. The namespaces outlive the
  // frontend (the Platform owns them), so a second ShardedStore over
  // the same span is how recovery-after-crash reattaches.
  ShardedStore(std::span<hw::PmemNamespace* const> shard_ns,
               const ShardOptions& opts);

  const char* name() const override { return name_.c_str(); }
  StoreKind kind() const override { return opts_.kind; }
  void create(sim::ThreadCtx& ctx) override;
  // With replicas > 1, a shard that fails to open (or whose namespace
  // ARS reports poisoned lines — health re-derived from media state, so
  // quarantine survives process restarts) is quarantined for online
  // rebuild and open() still succeeds; with replicas == 1 it fails.
  bool open(sim::ThreadCtx& ctx) override;
  // The untyped StoreIface surface (put/get/del/scan/apply_batch) is
  // fire-and-forget under faults: a typed error outcome (kUnavailable,
  // kMediaError, kDataLoss) is counted in resilience().legacy_dropped
  // but otherwise indistinguishable from a no-op or a miss. Code that
  // must observe fault outcomes uses the try_* surface below.
  void put(sim::ThreadCtx& ctx, std::string_view key,
           std::string_view value) override;
  bool get(sim::ThreadCtx& ctx, std::string_view key,
           std::string* value) override;
  bool del(sim::ThreadCtx& ctx, std::string_view key) override;
  bool del_reports_found() const override {
    return shards_[0]->del_reports_found();
  }
  bool supports_scan() const override { return shards_[0]->supports_scan(); }
  // Merges the per-shard ordered scans into one global key order.
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override;
  // Batched cross-shard dispatch: partition by router (preserving each
  // shard's op order), then commit shard groups in shard order.
  void apply_batch(sim::ThreadCtx& ctx,
                   std::span<const BatchOp> ops) override;
  void flush_pending(sim::ThreadCtx& ctx) override;
  // One rebuild step if any shard is under repair, else round-robin one
  // deferred-compaction turn over the serving shards.
  bool background_turn(sim::ThreadCtx& ctx) override;
  // Verifies the serving shards; shards under repair are skipped (their
  // state is transitional by construction).
  Status check(sim::ThreadCtx& ctx) override;
  // Runs the family repair on every serving shard: the first hard
  // failure, else DataLoss if any shard dropped data, else Ok.
  Status repair_media(sim::ThreadCtx& ctx) override;

  // Typed request path: replication-aware routing, health tracking,
  // bounded retry + deadline budget (see file comment).
  OpResult try_put(sim::ThreadCtx& ctx, std::string_view key,
                   std::string_view value) override;
  OpResult try_get(sim::ThreadCtx& ctx, std::string_view key,
                   std::string* value) override;
  OpResult try_del(sim::ThreadCtx& ctx, std::string_view key,
                   bool* found = nullptr) override;
  OpResult try_scan(sim::ThreadCtx& ctx, std::string_view start,
                    std::size_t n,
                    std::vector<std::pair<std::string, std::string>>* out)
      override;
  OpResult try_apply_batch(sim::ThreadCtx& ctx,
                           std::span<const BatchOp> ops) override;

  hw::Platform* platform_of() const override {
    return &ns_[0]->platform();
  }

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
  StoreIface& shard(unsigned i) { return *shards_[i]; }
  unsigned replicas() const { return replicas_; }

  ShardHealth health(unsigned i) const { return health_[i]; }
  bool all_healthy() const;
  const ResilienceStats& resilience() const { return stats_; }

  // Operator-initiated quarantine (predictive-failure drain, admin
  // maintenance): pulls the store from service and schedules the same
  // online rebuild a media error would.
  void quarantine_shard(sim::ThreadCtx& ctx, unsigned i);

 private:
  // Writer-lane scope: while alive, the thread's stores carry the
  // shard's lane id, so the DIMM sees one stream per shard.
  class LaneGuard {
   public:
    LaneGuard(sim::ThreadCtx& ctx, bool on, unsigned shard) : ctx_(ctx),
                                                              on_(on) {
      if (on_) ctx_.set_write_stream(kLaneBase + shard);
    }
    ~LaneGuard() {
      if (on_) ctx_.clear_write_stream();
    }

   private:
    static constexpr unsigned kLaneBase = 0x5a00;
    sim::ThreadCtx& ctx_;
    bool on_;
  };

  // One online repair in flight for physical store `store`.
  struct RebuildJob {
    enum class Phase : unsigned char {
      kScrub,     // ARS the namespace for poisoned lines
      kHeal,      // full-XPLine ntstore zeros over each bad line
      kReformat,  // K>1: fresh store instance + create
      kResilver,  // K>1: copy hosted keys back from a healthy copy
      kVerify,    // K>1: byte-compare rebuilt keys against the source
      kSalvage,   // K==1 or last copy: reopen in place + repair_media
    };
    unsigned store = 0;
    Phase phase = Phase::kScrub;
    std::vector<std::uint64_t> bad_lines;
    std::size_t cursor = 0;            // progress inside the phase
    std::deque<std::string> queue;     // keys still to resilver
    std::vector<std::string> vqueue;   // keys still to verify
  };

  // Serving copies of logical shard s are physical stores
  // (s + r) % shards() for r in [0, replicas_).
  unsigned copy_store(unsigned logical, unsigned r) const {
    return (logical + r) % shards();
  }
  bool serving(unsigned store) const {
    return health_[store] == ShardHealth::kHealthy ||
           health_[store] == ShardHealth::kDegraded;
  }

  void emit(sim::Time t, hw::ResilienceEventKind kind, unsigned store) const;
  // Health transitions on a contained media error; quarantines on the
  // write path or once the read-error budget is spent. A store already
  // under repair restarts its job from kScrub (fresh damage).
  void note_media_error(sim::ThreadCtx& ctx, unsigned store, bool is_write);
  void start_quarantine(sim::ThreadCtx& ctx, unsigned store);

  // One bounded chunk of the front rebuild job; true if work was done.
  bool rebuild_step(sim::ThreadCtx& ctx);
  void enter_resilver(sim::ThreadCtx& ctx, RebuildJob& job);
  void enter_verify(sim::ThreadCtx& ctx, RebuildJob& job);
  // All keys physically hosted by `store`, recovered from healthy
  // copies' scans (survives restarts; registry-only for scanless cmap),
  // merged with the in-run registry and the store's pending set.
  std::vector<std::string> hosted_keys(sim::ThreadCtx& ctx, unsigned store);
  // First serving copy of `logical` other than `except`, or -1.
  int live_source(unsigned logical, unsigned except) const;
  // No logical shard hosted by `store` has another serving copy.
  bool last_copy(unsigned store) const;
  // Up to n rows of logical shard `s` from physical store `p`, in key
  // order from `start`, continuing past co-hosted shards' rows so the
  // cap never drops target-shard keys (replicated mode only).
  std::vector<std::pair<std::string, std::string>> scan_copy(
      sim::ThreadCtx& ctx, unsigned p, unsigned s, std::string_view start,
      std::size_t n);
  // Counts a typed error outcome discarded by the legacy untyped API.
  void note_legacy(const OpResult& r);

  // Single-attempt op bodies (no retry); kUnavailable means no copy
  // could take the op and nothing was applied.
  OpResult put_once(sim::ThreadCtx& ctx, std::string_view key,
                    std::string_view value);
  OpResult get_once(sim::ThreadCtx& ctx, std::string_view key,
                    std::string* value);
  OpResult del_once(sim::ThreadCtx& ctx, std::string_view key, bool* found);
  // Retry wrapper: retries kUnavailable under the backoff/deadline
  // budget, donating one rebuild step before each backoff.
  template <typename Fn>
  OpResult with_retries(sim::ThreadCtx& ctx, Fn&& once);

  ShardOptions opts_;
  std::vector<hw::PmemNamespace*> ns_;
  std::vector<std::unique_ptr<StoreIface>> shards_;
  std::string name_;
  unsigned rr_ = 0;  // next shard offered a background turn
  unsigned replicas_ = 1;

  // ---- resilience state (all empty/healthy when replicas_ == 1 and no
  // faults fire, so the default path allocates three small vectors and
  // touches nothing else) ------------------------------------------------
  std::vector<ShardHealth> health_;
  std::vector<unsigned> read_errors_;
  // Keys acknowledged per logical shard: the in-run registry backing
  // resilver/data-loss tracking for scanless families and the K==1
  // salvage loss accounting. Rebuilds also scan healthy copies, so the
  // registry being DRAM (lost on restart) only narrows coverage.
  std::vector<std::set<std::string>> owned_;
  // Writes a non-serving store missed; drained by resilver.
  std::vector<std::set<std::string>> pending_;
  // Keys whose every copy was lost (reads report kDataLoss, not a miss).
  std::set<std::string> lost_;
  // True iff this frontend create()d the stores: owned_ then covers the
  // whole keyspace and rebuilds skip the durable-keyspace scans.
  bool registry_complete_ = false;
  std::deque<RebuildJob> jobs_;
  ResilienceStats stats_;
};

}  // namespace xp::workload
