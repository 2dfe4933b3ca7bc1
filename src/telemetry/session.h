// Telemetry session: the one object benches and tests instantiate.
//
// A Session implements hw::TelemetrySink and attaches itself to a
// Platform on construction. It
//  * samples EWR / bandwidth / queue-depth timelines on simulated time
//    (Sampler, fixed-cost ring with decimation);
//  * histograms persist events, XPBuffer evictions, and AIT misses by
//    kind;
//  * optionally records a Chrome-trace event stream (durability
//    boundaries, evictions, AIT misses, crash points) when a trace path
//    is configured via --trace / XP_TRACE.
//
// When NO session is attached the platform's telemetry pointer is null
// and the hot-path cost is a single predictable branch per data-path
// call — bench_timing's hot-path canaries guard this.
//
// finish() detaches from the platform, closes the last sample interval,
// and writes the trace file; the destructor calls it if the caller did
// not. Timing neutrality is a hard contract: a Session never changes
// simulated timestamps, so traced runs are byte-identical to untraced
// ones.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simtime.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"
#include "xpsim/telemetry_sink.h"

namespace xp::hw {
class Platform;
}

namespace xp::telemetry {

struct Options {
  std::string trace_path;  // empty = timelines/histograms only, no file
  sim::Time sample_interval = sim::us(10);
};

// Resolve the trace path for a bench/test binary: an explicit
// `--trace <file>` argument wins, else the XP_TRACE environment
// variable, else "" (disabled).
std::string trace_path_from_args(int argc, char** argv);

// Derive a per-sweep-point trace path from a base path by inserting the
// point index before the extension: ("out/run.json", 7) ->
// "out/run.point0007.json". Point indices are grid order, so the file
// set is identical at any --jobs count. Returns "" for an empty base.
std::string trace_point_path(const std::string& base, std::size_t index);

// The trace and summary name of a media-fault kind ("ecc_corrected",
// "poisoned", ...): the one table for every sink that reports them.
const char* media_fault_kind_name(hw::MediaFaultKind k);

class Session final : public hw::TelemetrySink {
 public:
  Session(hw::Platform& platform, Options opts = {});
  ~Session() override;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Detach from the platform, close the final sample interval, and write
  // the trace file (if configured). Idempotent. Returns false if the
  // trace file could not be written.
  bool finish();

  // Machine-readable run summary: counter totals, per-kind event
  // histograms, and the per-DIMM EWR / bandwidth / queue-depth timeline.
  // Non-finite ratios (e.g. EWR with zero media writes) serialize as
  // null. Valid JSON, deterministic formatting.
  std::string summary_json() const;

  const Sampler& sampler() const { return sampler_; }
  bool tracing() const { return trace_ != nullptr; }
  const TraceWriter* trace() const { return trace_.get(); }

  std::uint64_t persist_count(hw::PersistEventKind k) const {
    return persist_counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t eviction_count(hw::EvictKind k) const {
    return evict_counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t ait_miss_count() const { return ait_misses_; }
  std::uint64_t media_fault_count(hw::MediaFaultKind k) const {
    return media_fault_counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t read_path_count(hw::ReadPathEventKind k) const {
    return read_path_counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t read_path_bytes(hw::ReadPathEventKind k) const {
    return read_path_bytes_[static_cast<unsigned>(k)];
  }
  std::uint64_t resilience_count(hw::ResilienceEventKind k) const {
    return resilience_counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t sched_point_count(sim::SchedPoint p) const {
    return sched_point_counts_[static_cast<unsigned>(p)];
  }
  // Distinct XPLine offsets ARS reported bad (sorted, deduplicated).
  const std::vector<std::uint64_t>& ars_bad_lines() const {
    return ars_bad_lines_;
  }

  // ---- hw::TelemetrySink --------------------------------------------------
  void persist_event(hw::PersistEventKind kind, sim::Time t,
                     std::uint64_t seq) override;
  void buffer_eviction(hw::EvictKind kind, sim::Time t, unsigned socket,
                       unsigned channel) override;
  void ait_miss(sim::Time t, unsigned socket, unsigned channel) override;
  void crash_fired(sim::Time t, std::uint64_t seq) override;
  void media_fault(hw::MediaFaultKind kind, sim::Time t, unsigned socket,
                   unsigned channel, std::uint64_t line_off) override;
  void read_path(hw::ReadPathEventKind kind, sim::Time t,
                 std::uint64_t bytes) override;
  void resilience(hw::ResilienceEventKind kind, sim::Time t,
                  unsigned shard) override;
  void sched_point(unsigned kind, unsigned thread) override;
  void tick(sim::Time now) override { sampler_.tick(now); }
  void run_complete(const char* name, sim::Time start, sim::Time end) override;

 private:
  hw::Platform& platform_;
  Options opts_;
  Sampler sampler_;
  std::unique_ptr<TraceWriter> trace_;  // null when not tracing
  std::array<std::uint64_t, hw::kPersistEventKinds> persist_counts_{};
  std::array<std::uint64_t, 4> evict_counts_{};
  std::uint64_t ait_misses_ = 0;
  std::uint64_t crash_points_ = 0;
  std::array<std::uint64_t, hw::kMediaFaultKinds> media_fault_counts_{};
  std::array<std::uint64_t, hw::kReadPathEventKinds> read_path_counts_{};
  std::array<std::uint64_t, hw::kReadPathEventKinds> read_path_bytes_{};
  std::array<std::uint64_t, hw::kResilienceEventKinds> resilience_counts_{};
  std::array<std::uint64_t, sim::kNumSchedPoints> sched_point_counts_{};
  std::vector<std::uint64_t> ars_bad_lines_;  // sorted unique line offsets
  sim::Time last_event_time_ = 0;
  bool finished_ = false;
};

}  // namespace xp::telemetry
