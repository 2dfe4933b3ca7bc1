#include "xpsim/xpbuffer.h"

#include <algorithm>

namespace xp::hw {

namespace {

// Slot of the smallest touch time, the lowest slot on a tie. Four
// independent running minima and then a search for the first slot that
// holds the minimum run about twice as fast as std::min_element's single
// dependent chain; the victim is the same.
std::size_t oldest_slot(const std::vector<Time>& touch) {
  Time m[4] = {~Time{0}, ~Time{0}, ~Time{0}, ~Time{0}};
  std::size_t i = 0;
  for (; i + 4 <= touch.size(); i += 4)
    for (std::size_t k = 0; k < 4; ++k) m[k] = std::min(m[k], touch[i + k]);
  for (; i < touch.size(); ++i) m[0] = std::min(m[0], touch[i]);
  const Time lo = std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
  return static_cast<std::size_t>(
      std::find(touch.begin(), touch.end(), lo) - touch.begin());
}

}  // namespace

void XpBuffer::install(const Entry& e, Time last_touch) {
  index_.insert(e.line, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(e);
  last_touch_.push_back(last_touch);
}

Time XpBuffer::write64(Time t, std::uint64_t line, unsigned sub,
                       XpCounters& c) {
  if (const std::uint32_t slot = find(line); slot != sim::FlatIndex::kNone) {
    Entry& e = entries_[slot];
    if (e.dirty_mask == kFullMask) {
      // Rewriting an already fully combined line: the controller flushes
      // the combined line to media and starts a fresh combining round.
      // (This is what exposes hot-line wear and Fig 3's tail outliers.)
      ++c.evictions_full;
      if (sink_) sink_->buffer_eviction(EvictKind::kRewrite, t, socket_,
                                        channel_);
      const Time start = std::max(t, e.ready_at);
      const auto g = media_.write_line(start, e.line, c);
      e.dirty_mask = static_cast<std::uint8_t>(1u << sub);
      // Combining register is reusable once the media write has begun.
      e.ready_at = g.start;
      const Time done = std::max(t, g.start) + timing_.xpbuffer_merge;
      last_touch_[slot] = done;
      return done;
    }
    e.dirty_mask |= static_cast<std::uint8_t>(1u << sub);
    const Time done = std::max(t, e.ready_at) + timing_.xpbuffer_merge;
    last_touch_[slot] = done;
    return done;
  }
  const Time slot_at = make_room(t, c);
  const Time done = slot_at + timing_.xpbuffer_merge;
  install(Entry{line, static_cast<std::uint8_t>(1u << sub), slot_at}, done);
  return done;
}

Time XpBuffer::read64(Time t, std::uint64_t line, XpCounters& c) {
  if (const std::uint32_t slot = find(line); slot != sim::FlatIndex::kNone) {
    ++c.buffer_hit_reads;
    const Time done =
        std::max(t, entries_[slot].ready_at) + timing_.xpbuffer_read;
    last_touch_[slot] = done;
    return done;
  }
  ++c.buffer_miss_reads;
  const Time slot_at = make_room(t, c);
  const Time fetched = media_.read_line(slot_at, line, c).end;
  install(Entry{line, 0, fetched}, fetched);
  return fetched;
}

Time XpBuffer::make_room(Time t, XpCounters& c) {
  if (entries_.size() < timing_.xpbuffer_lines) return t;
  // Victim: least-recently-touched entry, lowest slot on a tie (reads and
  // writes both refresh recency, which is why reads compete for buffer
  // space, §5.1).
  return evict(oldest_slot(last_touch_), t, c);
}

Time XpBuffer::evict(std::size_t idx, Time t, XpCounters& c) {
  const Entry e = entries_[idx];
  index_.erase(e.line, static_cast<std::uint32_t>(idx));
  const std::size_t last = entries_.size() - 1;
  if (idx != last) {
    entries_[idx] = entries_[last];
    last_touch_[idx] = last_touch_[last];
    index_.move(entries_[idx].line, static_cast<std::uint32_t>(last),
                static_cast<std::uint32_t>(idx));
  }
  entries_.pop_back();
  last_touch_.pop_back();

  const Time start = std::max(t, e.ready_at);
  if (e.dirty_mask == 0) {
    ++c.evictions_clean;
    if (sink_) sink_->buffer_eviction(EvictKind::kClean, start, socket_,
                                      channel_);
    return start;  // clean: slot free immediately
  }
  if (e.dirty_mask == kFullMask) {
    ++c.evictions_full;
    if (sink_) sink_->buffer_eviction(EvictKind::kFull, start, socket_,
                                      channel_);
    // The slot is reusable once the media write has *started* (the data
    // moves to the media write register); store latency stays decoupled
    // from the 662 ns media write while throughput is still capped by it.
    return media_.write_line(start, e.line, c).start;
  }
  // Partial line: read-modify-write against the media.
  ++c.evictions_partial;
  if (sink_) sink_->buffer_eviction(EvictKind::kPartial, start, socket_,
                                    channel_);
  const Time read_done = media_.read_line(start, e.line, c).end;
  return media_.write_line(read_done, e.line, c).start;
}

void XpBuffer::flush_all(Time t, XpCounters& c) {
  while (!entries_.empty()) evict(entries_.size() - 1, t, c);
}

void XpBuffer::reset_timing() {
  for (Entry& e : entries_) e.ready_at = 0;
  std::fill(last_touch_.begin(), last_touch_.end(), Time{0});
}

}  // namespace xp::hw
