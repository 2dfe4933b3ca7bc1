#include "telemetry/sampler.h"

#include <algorithm>

#include "xpsim/platform.h"

namespace xp::telemetry {

Sampler::Sampler(const hw::Platform& platform, Options opts)
    : platform_(platform),
      interval_(std::max<sim::Time>(opts.interval, 1)),
      capacity_(std::max<std::size_t>(opts.capacity, 4)) {
  const hw::Timing& t = platform.timing();
  channels_ = t.channels_per_socket;
  dimms_ = t.sockets * t.channels_per_socket;
  samples_.reserve(capacity_);
}

void Sampler::sample(sim::Time now) {
  // Keep the timeline strictly monotone: a reused Platform restarts
  // thread clocks at 0 for each measurement epoch (reset_timing), so a
  // later run's early ticks may lie before an earlier run's samples.
  if (!samples_.empty() && now <= samples_.back().t) return;
  Sample s;
  s.t = now;
  s.dimms.resize(dimms_);
  const hw::Timing& t = platform_.timing();
  for (unsigned so = 0; so < t.sockets; ++so) {
    for (unsigned ch = 0; ch < channels_; ++ch) {
      const hw::XpDimm& d = platform_.xp_dimm(so, ch);
      DimmSample& out = s.dimms[so * channels_ + ch];
      const hw::XpCounters& c = d.counters();
      out.imc_read_bytes = c.imc_read_bytes;
      out.imc_write_bytes = c.imc_write_bytes;
      out.media_read_bytes = c.media_read_bytes;
      out.media_write_bytes = c.media_write_bytes;
      out.wpq_occupancy = static_cast<std::uint32_t>(d.wpq_occupancy());
      out.rpq_occupancy = static_cast<std::uint32_t>(d.rpq_occupancy());
      out.buffer_dirty_lines =
          static_cast<std::uint32_t>(d.buffer().dirty_lines());
    }
  }
  samples_.push_back(std::move(s));
  next_due_ = now + interval_;

  if (samples_.size() >= capacity_) {
    // Ring full: keep every 2nd sample and double the interval. The
    // retained timeline still spans the whole run. Sample 0 stays where
    // it is: moving it onto itself would empty its DIMM vector.
    std::size_t w = 1;
    for (std::size_t r = 2; r < samples_.size(); r += 2)
      samples_[w++] = std::move(samples_[r]);
    samples_.resize(w);
    interval_ *= 2;
    ++decimations_;
    next_due_ = samples_.back().t + interval_;
  }
}

}  // namespace xp::telemetry
