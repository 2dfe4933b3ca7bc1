// Memory Mode: the XP DIMM as volatile far memory behind a DRAM cache.
//
// Paper §2.1.2: in Memory Mode the DRAM DIMM on the same channel becomes
// a direct-mapped cache for the XP DIMM, managed transparently by the
// memory controller at 64 B block granularity; the CPU sees one large
// *volatile* memory. §6 observes that this cache masks most of the
// App-Direct performance pathologies — bench/abl_memory_mode shows it.
//
// Model: a per-channel direct-mapped tag array (near-memory set -> far
// tag + dirty bit). Hits pay DRAM timing; misses fetch the block from the
// XP DIMM, fill DRAM, and write back the evicted block if dirty. Nothing
// here is in the ADR domain: a power failure loses the contents.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/resource.h"
#include "sim/simtime.h"
#include "xpsim/dram_dimm.h"
#include "xpsim/timing.h"
#include "xpsim/xpdimm.h"

namespace xp::hw {

class MemoryModeChannel {
 public:
  MemoryModeChannel(const Timing& t, DramDimm& near_mem, XpDimm& far_mem)
      : timing_(t), near_(near_mem), far_(far_mem), writeback_(16) {
    // Direct-mapped: this channel's share of the socket's near memory
    // divided into 64 B blocks (the testbed pairs 32 GB of DRAM with
    // 256 GB of XP per socket, 1:8).
    sets_ = timing_.memory_mode_near_bytes / timing_.channels_per_socket /
            timing_.cacheline;
  }

  // 64 B read at a far-memory (XP DIMM-local) address.
  Time read64(Time t, std::uint64_t far_addr, unsigned thread) {
    const std::uint64_t block = far_addr / timing_.cacheline;
    const std::uint64_t set = block % sets_;
    const std::uint64_t near_addr = set * timing_.cacheline;
    auto it = tags_.find(set);
    if (it != tags_.end() && it->second.tag == block) {
      ++hits_;
      return near_.read64(t, near_addr);
    }
    ++misses_;
    const Time evicted = evict_if_dirty(t, set, near_addr, thread);
    // Fetch from far memory, fill near memory.
    const Time fetched = far_.read64(std::max(t, evicted), far_addr, thread);
    near_.write64(fetched, near_addr, 1.0);
    tags_[set] = TagEntry{block, false};
    return fetched;
  }

  // 64 B write. Returns completion (write-back cache: DRAM accept time).
  Time write64(Time t, std::uint64_t far_addr, unsigned thread) {
    const std::uint64_t block = far_addr / timing_.cacheline;
    const std::uint64_t set = block % sets_;
    const std::uint64_t near_addr = set * timing_.cacheline;
    auto it = tags_.find(set);
    if (it != tags_.end() && it->second.tag == block) {
      ++hits_;
      it->second.dirty = true;
      return near_.write64(t, near_addr, 1.0);
    }
    ++misses_;
    const Time evicted = evict_if_dirty(t, set, near_addr, thread);
    // A full 64 B write allocates without fetching.
    const Time done = near_.write64(std::max(t, evicted), near_addr, 1.0);
    tags_[set] = TagEntry{block, true};
    return done;
  }

  std::uint64_t sets() const { return sets_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct TagEntry {
    std::uint64_t tag;
    bool dirty;
  };

  Time evict_if_dirty(Time t, std::uint64_t set, std::uint64_t near_addr,
                      unsigned thread) {
    auto it = tags_.find(set);
    if (it == tags_.end() || !it->second.dirty) return t;
    // Read the victim out of DRAM and push it to the XP DIMM through a
    // bounded writeback queue: when the (slow) XP DIMM falls behind, the
    // queue fills and miss handling throttles to the far-memory write
    // rate — dirty-miss-heavy workloads converge to XP write bandwidth.
    const Time read_back = near_.read64(t, near_addr);
    const Time admit = writeback_.admission_time(read_back);
    const Time ack =
        far_.write64(admit, it->second.tag * timing_.cacheline, thread);
    writeback_.push(ack);
    return admit;
  }

  const Timing& timing_;
  DramDimm& near_;
  XpDimm& far_;
  sim::BoundedQueue writeback_;
  std::uint64_t sets_;
  std::unordered_map<std::uint64_t, TagEntry> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace xp::hw
