// One 3D XPoint DIMM behind its iMC pending queues.
//
// Composition per the paper's Figure 1(b): the iMC keeps a bounded write
// pending queue (WPQ, inside the ADR power-fail domain) and read pending
// queue per DIMM; requests cross the DDR-T interface in 64 B units to the
// XPController, which runs the AIT translation, the XPBuffer, and the
// banked media.
//
// Concurrency effects from §5.3 modeled here:
//  * the WPQ holds at most `wpq_depth` 64 B entries per DIMM, so a slow
//    DIMM backs up into the cores (head-of-line blocking);
//  * a single thread may have at most `wpq_thread_credit` entries
//    (4 x 64 B = 256 B) in flight, which the paper identifies as a reason
//    spreading one thread across DIMMs wastes queue parallelism (Fig 16);
//  * the controller coalesces efficiently for at most `xp_write_streams`
//    concurrent writers; more writers thrash the write-combining stream
//    trackers and serialize on the controller, which is what makes
//    per-DIMM bandwidth *fall* (not just saturate) as writers are added
//    (Fig 4 center/right, Fig 16).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_index.h"
#include "sim/resource.h"
#include "sim/ring.h"
#include "sim/simtime.h"
#include "xpsim/counters.h"
#include "xpsim/media.h"
#include "xpsim/telemetry_sink.h"
#include "xpsim/timing.h"
#include "xpsim/xpbuffer.h"

namespace xp::hw {

class XpDimm {
 public:
  explicit XpDimm(const Timing& t)
      : timing_(t),
        media_(t),
        buffer_(t, media_),
        ait_(t.ait_cache_entries),
        ddrt_req_(1),
        ddrt_rsp_(1),
        ctrl_(1),
        wpq_(t.wpq_depth),
        rpq_(t.rpq_depth),
        ddrt_64b_(sim::transfer_time(t.cacheline, t.ddrt_gbps)) {}

  // One 64 B write arriving at the iMC at time `t` from `thread`.
  // Returns the time the write is accepted into the ADR domain (WPQ
  // admission + DDR-T handoff + XPBuffer merge + controller ack). Stores
  // are *persistent* from the WPQ onward; this return value is what an
  // sfence waits for. If `admit_wait` is non-null it receives the time
  // the write spent waiting for a WPQ slot (used by the UPI lane-hold
  // model for remote writes).
  Time write64(Time t, std::uint64_t dimm_addr, unsigned thread,
               Time* admit_wait = nullptr);

  // One 64 B read. Returns data-arrival time at the iMC.
  Time read64(Time t, std::uint64_t dimm_addr, unsigned thread);

  const XpCounters& counters() const { return counters_; }
  XpCounters& counters() { return counters_; }
  Media& media() { return media_; }
  XpBuffer& buffer() { return buffer_; }
  const XpBuffer& buffer() const { return buffer_; }

  // Residual pending-queue occupancy (entries whose drain time has not
  // yet been observed to pass; see sim::BoundedQueue). Telemetry gauges.
  std::size_t wpq_occupancy() const { return wpq_.occupancy(); }
  std::size_t rpq_occupancy() const { return rpq_.occupancy(); }

  // Telemetry: attach `sink` for AIT-miss and XPBuffer-eviction events,
  // tagged with this DIMM's (socket, channel). Null detaches.
  void set_telemetry(TelemetrySink* sink, unsigned socket, unsigned channel) {
    sink_ = sink;
    socket_ = socket;
    channel_ = channel;
    buffer_.set_telemetry(sink, socket, channel);
  }

  // New measurement epoch: forget all reservation state (queues, banks,
  // credits). Wear, AIT contents and counters persist.
  void reset_timing();

 private:
  Time ait_lookup(Time t, std::uint64_t dimm_addr);
  sim::Ring<Time>& credits_of(unsigned stream);
  static bool touch_stream(std::vector<unsigned>& lru, unsigned capacity,
                           unsigned thread);

  const Timing& timing_;
  Media media_;
  XpBuffer buffer_;
  AitCache ait_;
  // DDR-T modeled as separate request (commands + write data) and
  // response (read data) channels so in-flight read returns don't block
  // later commands.
  sim::Resource ddrt_req_;
  sim::Resource ddrt_rsp_;
  sim::Resource ctrl_;
  sim::BoundedQueue wpq_;
  sim::BoundedQueue rpq_;
  Time ddrt_64b_;
  XpCounters counters_;
  TelemetrySink* sink_ = nullptr;
  unsigned socket_ = 0;
  unsigned channel_ = 0;
  // Per-stream WPQ credits: the acks of a stream's last
  // wpq_thread_credit writes, oldest first.
  struct Credits {
    unsigned stream;
    sim::Ring<Time> acks;
  };
  std::vector<Credits> credits_;
  sim::FlatIndex credit_index_;  // stream -> credits_ slot
  std::vector<unsigned> write_streams_;  // LRU, front = most recent
  std::vector<unsigned> read_streams_;
};

}  // namespace xp::hw
