// Counter registry: uniform snapshot/delta access to every hardware
// counter the simulated platform exposes.
//
// A Snapshot is a point-in-time copy of all per-DIMM XpCounters, per-DIMM
// DramCounters, per-socket CacheCounters, the platform persist-event
// count, and the instantaneous queue/buffer gauges (WPQ/RPQ occupancy,
// XPBuffer occupancy and dirty-line count). Snapshots subtract: `end -
// start` yields a Delta whose counters cover the interval and whose
// gauges are taken from `end` (gauges are levels, not flows — they do not
// subtract meaningfully).
//
// The conservation tests and the summary's counter totals work on
// Snapshots and Deltas. The Sampler walks the topology too: it copies the
// few per-DIMM fields its timeline needs straight into its ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "xpsim/counters.h"

namespace xp::hw {
class Platform;
}

namespace xp::telemetry {

// One XP DIMM: its hardware counters plus instantaneous gauges.
struct XpDimmSnapshot {
  hw::XpCounters counters;
  // Gauges (levels at snapshot time; carried over unchanged by operator-).
  std::size_t wpq_occupancy = 0;
  std::size_t rpq_occupancy = 0;
  std::size_t buffer_occupancy = 0;
  std::size_t buffer_dirty_lines = 0;
};

struct Snapshot {
  // Indexed [socket][channel]; dimensions match Timing::sockets x
  // Timing::channels_per_socket of the captured platform.
  std::vector<std::vector<XpDimmSnapshot>> xp;
  std::vector<std::vector<hw::DramCounters>> dram;
  std::vector<hw::CacheCounters> cache;  // per socket
  std::uint64_t persist_events = 0;

  static Snapshot capture(const hw::Platform& platform);

  unsigned sockets() const { return static_cast<unsigned>(xp.size()); }
  unsigned channels() const {
    return xp.empty() ? 0 : static_cast<unsigned>(xp.front().size());
  }

  // Sums across all DIMMs / sockets.
  hw::XpCounters xp_total() const;
  hw::CacheCounters cache_total() const;

  // Interval delta: counters subtract, gauges keep *this* (interval-end)
  // values. Both snapshots must come from the same platform.
  Snapshot operator-(const Snapshot& start) const;
};

// A Delta is shape-identical to a Snapshot; the alias marks intent.
using Delta = Snapshot;

}  // namespace xp::telemetry
