// The YCSB-style workload engine: N simulated threads drive a
// StoreIface through a Spec's op mix under the cooperative scheduler,
// with per-op latency capture and an order-insensitive result checksum.
//
// Determinism contract: run() is a pure function of (store state, spec,
// options). Each thread draws ops from its own xorshift64* stream and
// the scheduler interleaves by simulated clock, so the op sequence,
// simulated timing, telemetry and checksum are byte-identical on every
// host, at any sweep `--jobs`, for any host-thread count.
#pragma once

#include "sim/histogram.h"
#include "workload/store_iface.h"
#include "workload/ycsb.h"

namespace xp::workload {

struct EngineOptions {
  unsigned threads = 4;
  unsigned socket = 0;  // NUMA node the workload threads are pinned to
  std::uint64_t base_seed = 0;  // folded with spec.seed per thread
  // Donate one extra simulated thread that polls background_turn()
  // (deferred lsmkv compaction) while the workers run.
  bool background_thread = false;
  sim::Time background_poll = sim::us(2);
  // > 0: buffer updates/inserts per thread and dispatch them in groups
  // of this size via apply_batch (the sharded frontend's batched
  // cross-shard dispatch). Reads do not see a thread's still-buffered
  // writes; the engine's checksum is over the observed results either
  // way, so determinism is unaffected.
  std::size_t dispatch_batch = 0;
  // Check every read hit against the set of values ever issued for that
  // key (host-side DRAM oracle, no simulated cost): a hit outside the
  // set is a silent corruption — the one outcome the typed error
  // surface must never allow. Off by default (costs host memory).
  bool validate_reads = false;
};

struct Result {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0, read_hits = 0;
  std::uint64_t updates = 0, inserts = 0, rmws = 0;
  std::uint64_t scans = 0, scanned_items = 0;
  std::uint64_t background_turns = 0;  // bg-thread turns that did work
  // Typed resilience outcomes (all zero on fault-free runs).
  std::uint64_t typed_errors = 0;  // ops ending kMediaError/kUnavailable/...
  std::uint64_t failovers = 0;     // reads served by a replica copy
  std::uint64_t retries = 0;       // backoff rounds consumed
  std::uint64_t corruptions = 0;   // validate_reads: hit outside the oracle
  sim::Time elapsed = 0;               // latest worker clock
  sim::Time p50 = 0, p99 = 0;          // per-op simulated latency
  std::uint64_t checksum = 0;  // order-insensitive digest of results

  double kops() const {  // elapsed is ps: ops/ps * 1e9 = kops/s
    return elapsed
               ? static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed)
               : 0;
  }
};

// Preload keys 0..spec.records-1 (version-0 values), then force any
// buffered group commits out. Returns how many preload writes were not
// acknowledged (typed errors; 0 on a healthy store).
std::uint64_t load(StoreIface& store, const Spec& spec, sim::ThreadCtx& ctx);

Result run(StoreIface& store, const Spec& spec, const EngineOptions& opts);

}  // namespace xp::workload
