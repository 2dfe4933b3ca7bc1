// XPBuffer: the XPController's small write-combining buffer.
//
// The paper infers (Fig 10) a ~16 KB buffer of 256 B lines that coalesces
// 64 B DDR-T accesses into 256 B media accesses; reads compete for its
// space. This model is the root cause of most of the paper's guidelines:
//
//  * Effective Write Ratio: a line evicted fully dirty costs one 256 B
//    media write; a *partially* dirty line costs a read-modify-write
//    (256 B read + 256 B write). Random 64 B stores therefore run at
//    EWR 0.25; sequential ones at ~1.0.
//  * The 16 KB locality cliff (Fig 10): updates that return to a line
//    still resident coalesce for free; beyond 64 lines they miss.
//
// The thread-count collapse of §5.3 is not this buffer's doing: the
// controller's stream trackers model it (Timing::xp_write_streams).
//
// The buffer tracks dirty *masks* only; actual bytes live in the
// namespace backing image (writes are applied at WPQ admission, which is
// inside the ADR persistence domain along with this buffer).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_index.h"
#include "sim/simtime.h"
#include "xpsim/counters.h"
#include "xpsim/media.h"
#include "xpsim/telemetry_sink.h"
#include "xpsim/timing.h"

namespace xp::hw {

class XpBuffer {
 public:
  XpBuffer(const Timing& t, Media& media)
      : timing_(t), media_(media) {
    entries_.reserve(t.xpbuffer_lines);
    last_touch_.reserve(t.xpbuffer_lines);
  }

  // Merge one 64 B write into the buffer. `line` is the XPLine index,
  // `sub` the 64 B sub-block (0..3). Returns the time the controller has
  // accepted the write (allocation may stall on an eviction).
  Time write64(Time t, std::uint64_t line, unsigned sub, XpCounters& c);

  // Service a 64 B read. Hits return quickly out of the buffer; misses
  // fetch the whole XPLine from media and install it (clean).
  Time read64(Time t, std::uint64_t line, XpCounters& c);

  bool contains(std::uint64_t line) const {
    return find(line) != sim::FlatIndex::kNone;
  }

  std::size_t occupancy() const { return entries_.size(); }

  // Lines currently holding at least one dirty 64 B sub-block (linear
  // scan over <= xpbuffer_lines entries; telemetry-sampling only).
  std::size_t dirty_lines() const {
    std::size_t n = 0;
    for (const Entry& e : entries_)
      if (e.dirty_mask != 0) ++n;
    return n;
  }

  // Telemetry: emit eviction events to `sink` tagged (socket, channel).
  // Set by the owning XpDimm; null detaches.
  void set_telemetry(TelemetrySink* sink, unsigned socket, unsigned channel) {
    sink_ = sink;
    socket_ = socket;
    channel_ = channel;
  }

  // Write back every dirty line (used by tests and power-fail flush).
  void flush_all(Time t, XpCounters& c);

  // Forget reservation timestamps (new measurement epoch); contents stay.
  void reset_timing();

 private:
  struct Entry {
    std::uint64_t line = 0;
    std::uint8_t dirty_mask = 0;   // bit per 64 B sub-block
    Time ready_at = 0;             // install completes (media fetch)
  };

  // Slot of `line`, or sim::FlatIndex::kNone.
  std::uint32_t find(std::uint64_t line) const {
    return index_.find(line, entries_, &Entry::line);
  }

  // Append an entry for a line not in the buffer.
  void install(const Entry& e, Time last_touch);

  // Ensure a free slot exists at time `t`; returns the time the slot is
  // usable.
  Time make_room(Time t, XpCounters& c);

  // Evict `entries_[idx]` (swap-remove); returns the time the slot
  // becomes free.
  Time evict(std::size_t idx, Time t, XpCounters& c);

  static constexpr std::uint8_t kFullMask = 0x0f;

  const Timing& timing_;
  Media& media_;
  // <= xpbuffer_lines entries. last_touch_[i] belongs to entries_[i]; it
  // is kept apart so the LRU victim scan reads one contiguous array.
  std::vector<Entry> entries_;
  std::vector<Time> last_touch_;
  sim::FlatIndex index_;  // XPLine -> slot
  TelemetrySink* sink_ = nullptr;
  unsigned socket_ = 0;
  unsigned channel_ = 0;
};

}  // namespace xp::hw
