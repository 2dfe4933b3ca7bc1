// Telemetry hook interface implemented by src/telemetry.
//
// The simulator's devices emit structured events (durability boundaries,
// XPBuffer evictions, AIT misses, crash points) through this interface so
// that xpsim carries no dependency on the telemetry subsystem. A Platform
// holds at most one sink; every emission site is guarded by a single
// null-pointer branch, so a platform with no sink attached pays one
// predictable branch per data-path call and nothing else (perfbench's
// host_kops measures that path; Session.TimingNeutral checks that an
// attached sink changes no simulated result).
//
// Sinks must be timing-neutral: they may read counters and record events
// but never touch simulated clocks or device state, so an instrumented
// run is byte-identical to an uninstrumented one.
#pragma once

#include <cstdint>

#include "sim/simtime.h"

namespace xp::hw {

// Which durability boundary produced a persist event. The order matches
// the enumeration in Platform::note_persist_event's call sites.
enum class PersistEventKind : std::uint8_t {
  kWpqEntry,         // dirty line flushed into the WPQ (clwb/clflush(opt))
  kNtStoreDrain,     // one 64 B line of an ntstore draining to the iMC
  kWriteback,        // natural cache-eviction write-back
  kCoherenceFlush,   // cross-socket ownership flush
  kSfence,           // sfence/mfence retirement
};
inline constexpr unsigned kPersistEventKinds = 5;
// Each family's kind names, indexed by kind: the trace event names and
// the summary keys of every sink that reports the family.
inline constexpr const char* kPersistEventNames[kPersistEventKinds] = {
    "wpq_entry", "ntstore_drain", "writeback", "coherence_flush", "sfence"};

// What kind of XPBuffer slot release occurred.
enum class EvictKind : std::uint8_t {
  kClean,    // no dirty sub-blocks: slot freed, no media traffic
  kFull,     // fully dirty line: one 256 B media write
  kPartial,  // partially dirty: read-modify-write (256 B read + write)
  kRewrite,  // fully dirty line rewritten in place: flushed, fresh round
};
inline constexpr unsigned kEvictKinds = 4;
// Trace names; summaries key the counts without the "evict_" prefix.
inline constexpr const char* kEvictNames[kEvictKinds] = {
    "evict_clean", "evict_full", "evict_partial", "evict_rewrite"};

// Media (XPLine) error-model events, emitted by the fault-injection
// subsystem (src/xpsim/fault.h). Only produced when faults are in use, so
// fault-free runs emit no such events.
enum class MediaFaultKind : std::uint8_t {
  kCorrected,       // ECC-corrected transient: data served, event logged
  kPoisoned,        // a 256 B XPLine became uncorrectable (injected/wear)
  kUncorrectable,   // a read hit a poisoned line and returned MediaError
  kClearedByWrite,  // a full-XPLine overwrite cleared the poison state
  kScrubFound,      // ARS reported this line in its bad-line list
};
inline constexpr unsigned kMediaFaultKinds = 5;
inline constexpr const char* kMediaFaultNames[kMediaFaultKinds] = {
    "ecc_corrected", "poisoned", "uncorrectable", "cleared_by_write",
    "scrub_found"};

// Software read-path events, emitted by the shared read-combining layer
// (src/pmemlib/linereader.h, readcache.h). Only produced when a store has
// its read knobs enabled, so default-configuration runs emit no such
// events.
enum class ReadPathEventKind : std::uint8_t {
  kCombinedFetch,    // a LineReader staged an XPLine-aligned span from PM
  kStagedServe,      // a fetch served from the already-staged span
  kCacheHitLine,     // a 256 B line served from the DRAM ReadCache
  kCacheFillLine,    // a line fetched from PM and installed in the cache
  kCacheInvalidate,  // a write dropped a cached line
};
inline constexpr unsigned kReadPathEventKinds = 5;
inline constexpr const char* kReadPathEventNames[kReadPathEventKinds] = {
    "combined_fetches", "staged_serves", "cache_hit_lines",
    "cache_fill_lines", "cache_invalidations"};

// Serving-layer resilience events, emitted by the self-healing sharded
// frontend (src/workload/shard.h). The first four are the per-shard
// health state machine's transitions (healthy -> degraded -> quarantined
// -> rebuilding -> healthy); the rest are request-level outcomes and
// rebuild progress. Only produced on fault paths (or operator-initiated
// quarantine), so fault-free runs emit no such events.
enum class ResilienceEventKind : std::uint8_t {
  kDegraded,      // shard took its first contained media error
  kQuarantined,   // shard pulled from service (error budget / write error)
  kRebuilding,    // online scrub/rebuild started on donated turns
  kRecovered,     // shard verified and returned to healthy
  kFailoverRead,  // a read served by a replica copy
  kRetry,         // an op retried after a deterministic simulated backoff
  kUnavailable,   // an op exhausted its deadline budget (typed error)
  kResilverKey,   // one key copied back into a rebuilding shard
};
inline constexpr unsigned kResilienceEventKinds = 8;
inline constexpr const char* kResilienceEventNames[kResilienceEventKinds] = {
    "shards_degraded", "shards_quarantined", "shards_rebuilding",
    "shards_recovered", "failover_reads", "op_retries", "ops_unavailable",
    "keys_resilvered"};
// Op-level events (kRetry, kUnavailable) describe a request, not one
// physical store; they carry this sentinel in the `shard` argument.
inline constexpr unsigned kResilienceNoShard = ~0u;

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  // One durability boundary crossed. `seq` is the post-increment value of
  // Platform::persist_events() — the same numbering crash_after() uses.
  virtual void persist_event(PersistEventKind /*kind*/, sim::Time /*t*/,
                             std::uint64_t /*seq*/) {}

  // An XPBuffer slot release on DIMM (socket, channel).
  virtual void buffer_eviction(EvictKind /*kind*/, sim::Time /*t*/,
                               unsigned /*socket*/, unsigned /*channel*/) {}

  // An AIT translation miss on DIMM (socket, channel).
  virtual void ait_miss(sim::Time /*t*/, unsigned /*socket*/,
                        unsigned /*channel*/) {}

  // An armed crash trigger fired at persist event `seq`. Emitted before
  // CrashPointHit is thrown.
  virtual void crash_fired(sim::Time /*t*/, std::uint64_t /*seq*/) {}

  // A media error-model event on DIMM (socket, channel). `line_off` is
  // the 256 B-aligned namespace offset of the affected XPLine. ARS events
  // carry t == 0 (scrubbing is an untimed maintenance operation).
  virtual void media_fault(MediaFaultKind /*kind*/, sim::Time /*t*/,
                           unsigned /*socket*/, unsigned /*channel*/,
                           std::uint64_t /*line_off*/) {}

  // A software read-path event (LineReader/ReadCache). `bytes` is the
  // span the event covers: PM bytes fetched for kCombinedFetch, user
  // bytes served for kStagedServe, 256 per line for the cache events.
  // Invalidations triggered by untimed writes carry t == 0.
  virtual void read_path(ReadPathEventKind /*kind*/, sim::Time /*t*/,
                         std::uint64_t /*bytes*/) {}

  // A serving-layer resilience event on shard `shard` (a physical store
  // index in the sharded frontend, or kResilienceNoShard for op-level
  // events not tied to one store). Health transitions and request-level
  // outcomes both arrive here; fault-free runs emit none.
  virtual void resilience(ResilienceEventKind /*kind*/, sim::Time /*t*/,
                          unsigned /*shard*/) {}

  // A schedule-exploration yield point (src/schedmc) announced by a
  // hooked thread. `kind` indexes sim::SchedPoint (sched_point_name()).
  // Only schedmc interleaver runs emit these; production runs carry no
  // hook and emit none.
  virtual void sched_point(unsigned /*kind*/, unsigned /*thread*/) {}

  // Called once per timed data-path operation (load/store/ntstore/flush/
  // fence) with the issuing thread's clock; drives periodic samplers.
  virtual void tick(sim::Time /*now*/) {}

  // A workload runner finished a measured run on this platform.
  virtual void run_complete(const char* /*name*/, sim::Time /*start*/,
                            sim::Time /*end*/) {}
};

}  // namespace xp::hw
