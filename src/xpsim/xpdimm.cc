#include "xpsim/xpdimm.h"

#include <algorithm>

namespace xp::hw {

Time XpDimm::ait_lookup(Time t, std::uint64_t dimm_addr) {
  const std::uint64_t region = dimm_addr / 4096;
  if (ait_.access(region)) return t + timing_.ait_hit;
  // Translation miss: fetch the entry from the DIMM's dedicated AIT DRAM.
  ++counters_.ait_misses;
  if (sink_) sink_->ait_miss(t, socket_, channel_);
  return t + timing_.ait_hit + timing_.ait_miss;
}

sim::Ring<Time>& XpDimm::credits_of(unsigned stream) {
  std::uint32_t slot =
      credit_index_.find(stream, credits_, &Credits::stream);
  if (slot == sim::FlatIndex::kNone) {
    slot = static_cast<std::uint32_t>(credits_.size());
    credit_index_.insert(stream, slot);
    credits_.push_back(Credits{stream, {}});
  }
  return credits_[slot].acks;
}

bool XpDimm::touch_stream(std::vector<unsigned>& lru, unsigned capacity,
                          unsigned thread) {
  auto it = std::find(lru.begin(), lru.end(), thread);
  if (it != lru.end()) {
    lru.erase(it);
    lru.insert(lru.begin(), thread);
    return true;
  }
  lru.insert(lru.begin(), thread);
  if (lru.size() > capacity) lru.pop_back();
  return false;
}

Time XpDimm::write64(Time t, std::uint64_t dimm_addr, unsigned thread,
                     Time* admit_wait) {
  // Per-thread WPQ credit: at most wpq_thread_credit 64 B entries in
  // flight from one thread (256 B, §5.3).
  sim::Ring<Time>& credit = credits_of(thread);
  if (credit.size() >= timing_.wpq_thread_credit) {
    t = std::max(t, credit.front());
    credit.pop_front();
  }
  // Per-DIMM WPQ slot.
  const Time slot = wpq_.admission_time(t);
  if (admit_wait != nullptr) *admit_wait = slot - t;
  const Time admit = slot + timing_.wpq_sched;
  counters_.imc_write_bytes += timing_.cacheline;

  // DDR-T handoff to the XPController.
  Time at_ctrl = ddrt_req_.acquire(admit, ddrt_64b_).end;
  // Wear-leveling migrations stall the whole controller.
  at_ctrl = media_.gate(at_ctrl);
  Time cursor = ctrl_.acquire(at_ctrl, timing_.xp_ctrl_op).end;

  const std::uint64_t line = dimm_addr / timing_.xpline;
  const unsigned sub = static_cast<unsigned>(
      (dimm_addr % timing_.xpline) / timing_.cacheline);
  if (!buffer_.contains(line)) {
    // New combining line: an untracked write stream pays a controller-
    // serialized tracker re-setup before the line can start combining.
    if (!touch_stream(write_streams_, timing_.xp_write_streams, thread))
      cursor = ctrl_.acquire(cursor, timing_.xp_write_stream_miss).end;
    cursor = ait_lookup(cursor, dimm_addr);
  }
  const Time merged = buffer_.write64(cursor, line, sub, counters_);
  const Time done = merged + timing_.xp_write_ack;

  wpq_.push(done);
  credit.push_back(done);
  return done;
}

Time XpDimm::read64(Time t, std::uint64_t dimm_addr, unsigned thread) {
  const Time admit = rpq_.admission_time(t) + timing_.rpq_sched;
  counters_.imc_read_bytes += timing_.cacheline;

  Time at_ctrl = ddrt_req_.acquire(admit, timing_.ddrt_cmd).end;
  at_ctrl = media_.gate(at_ctrl);
  Time cursor = ctrl_.acquire(at_ctrl, timing_.xp_ctrl_op).end;

  const std::uint64_t line = dimm_addr / timing_.xpline;
  if (!buffer_.contains(line)) {
    if (!touch_stream(read_streams_, timing_.xp_read_streams, thread))
      cursor = ctrl_.acquire(cursor, timing_.xp_read_stream_miss).end;
    cursor = ait_lookup(cursor, dimm_addr);
  }
  const Time data_at_ctrl = buffer_.read64(cursor, line, counters_);

  // Data transfer back over DDR-T (response channel).
  const Time done = ddrt_rsp_.acquire(data_at_ctrl, ddrt_64b_).end;
  rpq_.push(done);
  return done;
}

void XpDimm::reset_timing() {
  media_.reset_timing();
  buffer_.reset_timing();
  ddrt_req_.reset();
  ddrt_rsp_.reset();
  ctrl_.reset();
  wpq_.reset();
  rpq_.reset();
  for (Credits& c : credits_) c.acks.clear();
  write_streams_.clear();
  read_streams_.clear();
}

}  // namespace xp::hw
