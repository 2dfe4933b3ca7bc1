#include "telemetry/registry.h"

#include <cassert>

#include "xpsim/platform.h"

namespace xp::telemetry {

Snapshot Snapshot::capture(const hw::Platform& platform) {
  const hw::Timing& t = platform.timing();
  Snapshot s;
  s.xp.resize(t.sockets);
  s.dram.resize(t.sockets);
  s.cache.resize(t.sockets);
  for (unsigned so = 0; so < t.sockets; ++so) {
    s.xp[so].resize(t.channels_per_socket);
    s.dram[so].resize(t.channels_per_socket);
    for (unsigned ch = 0; ch < t.channels_per_socket; ++ch) {
      const hw::XpDimm& d = platform.xp_dimm(so, ch);
      XpDimmSnapshot& out = s.xp[so][ch];
      out.counters = d.counters();
      out.wpq_occupancy = d.wpq_occupancy();
      out.rpq_occupancy = d.rpq_occupancy();
      out.buffer_occupancy = d.buffer().occupancy();
      out.buffer_dirty_lines = d.buffer().dirty_lines();
      s.dram[so][ch] = platform.dram_dimm(so, ch).counters();
    }
    s.cache[so] = platform.cache_counters(so);
  }
  s.persist_events = platform.persist_events();
  return s;
}

hw::XpCounters Snapshot::xp_total() const {
  hw::XpCounters sum;
  for (const auto& socket : xp)
    for (const XpDimmSnapshot& d : socket) sum += d.counters;
  return sum;
}

hw::CacheCounters Snapshot::cache_total() const {
  hw::CacheCounters sum;
  for (const hw::CacheCounters& c : cache) sum += c;
  return sum;
}

Snapshot Snapshot::operator-(const Snapshot& start) const {
  assert(xp.size() == start.xp.size());
  Snapshot d = *this;  // gauges keep interval-end values
  for (std::size_t so = 0; so < xp.size(); ++so) {
    assert(xp[so].size() == start.xp[so].size());
    for (std::size_t ch = 0; ch < xp[so].size(); ++ch) {
      d.xp[so][ch].counters =
          xp[so][ch].counters - start.xp[so][ch].counters;
      d.dram[so][ch] = dram[so][ch] - start.dram[so][ch];
    }
    d.cache[so] = cache[so] - start.cache[so];
  }
  d.persist_events = persist_events - start.persist_events;
  return d;
}

}  // namespace xp::telemetry
