// 3D XPoint media model: banked storage accessed in 256 B XPLines.
//
// The media is a timing-and-wear model only; data contents live in the
// namespace backing image (see pmem_namespace.h). Reads and writes occupy
// one of `xp_banks` concurrent units for a technology-dependent service
// time; this makes latency and 1/throughput distinct (6 banks x 256 B /
// 241 ns ~= 6.4 GB/s read, / 662 ns ~= 2.3 GB/s write), reproducing the
// paper's single-DIMM peaks.
//
// Wear leveling: each XPLine write increments a wear counter; at
// `wear_threshold` the controller migrates the line, stalling the whole
// XPController (the AIT is a shared structure) for ~50 us. These
// migrations are the rare 100x tail-latency outliers of Figure 3, and
// they concentrate in small write hotspots exactly as the paper observes
// (a small hotspot reaches the threshold during the run; a large one does
// not).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_index.h"
#include "sim/resource.h"
#include "sim/simtime.h"
#include "xpsim/counters.h"
#include "xpsim/timing.h"

namespace xp::hw {

class Media {
 public:
  using Grant = sim::Resource::Grant;

  explicit Media(const Timing& t) : timing_(t), banks_(t.xp_banks) {}

  // Read one XPLine. Returns the service grant (data available at .end).
  Grant read_line(Time t, [[maybe_unused]] std::uint64_t line_index,
                  XpCounters& c) {
    c.media_read_bytes += timing_.xpline;
    return banks_.acquire(t, timing_.xp_media_read);
  }

  // Write one XPLine. May trigger a wear-leveling migration that stalls
  // the controller (see stall_until()).
  Grant write_line(Time t, std::uint64_t line_index, XpCounters& c) {
    c.media_write_bytes += timing_.xpline;
    const Grant g = banks_.acquire(t, timing_.xp_media_write);
    if (timing_.wear_threshold != 0) {
      std::uint32_t slot = wear_index_.find(line_index, wear_, &Wear::line);
      if (slot == sim::FlatIndex::kNone) {
        slot = static_cast<std::uint32_t>(wear_.size());
        wear_index_.insert(line_index, slot);
        wear_.push_back(Wear{line_index, 0});
      }
      if (++wear_[slot].writes % timing_.wear_threshold == 0) {
        ++c.wear_migrations;
        // The relocation copies the line: one media read from the worn
        // location plus one media write to the fresh one. The copy's
        // occupancy is subsumed by the controller-wide migration stall,
        // so only the byte counters move. This keeps the conservation
        // laws exact: media_write_bytes == xpline * (evictions_full +
        // evictions_partial + wear_migrations), and symmetrically for
        // reads (tests/telemetry_test.cc).
        c.media_read_bytes += timing_.xpline;
        c.media_write_bytes += timing_.xpline;
        const Time until = g.start + timing_.wear_migration;
        if (until > stall_until_) stall_until_ = until;
      }
    }
    return g;
  }

  // Requests arriving while a wear-leveling migration is in progress wait
  // until the controller is responsive again.
  Time gate(Time t) const { return t < stall_until_ ? stall_until_ : t; }
  Time stall_until() const { return stall_until_; }

  // Earliest time a bank could begin servicing a request arriving at `t`.
  Time next_free(Time t) const { return banks_.next_free(t); }

  std::uint64_t wear_of(std::uint64_t line_index) const {
    const std::uint32_t slot =
        wear_index_.find(line_index, wear_, &Wear::line);
    return slot == sim::FlatIndex::kNone ? 0 : wear_[slot].writes;
  }

  // Forget reservation state (new measurement epoch); wear persists.
  void reset_timing() {
    banks_.reset();
    stall_until_ = 0;
  }

 private:
  struct Wear {
    std::uint64_t line;
    std::uint64_t writes;
  };

  const Timing& timing_;
  sim::Resource banks_;
  Time stall_until_ = 0;
  std::vector<Wear> wear_;  // one per XPLine ever written
  sim::FlatIndex wear_index_;  // XPLine -> wear_ slot
};

// Address Indirection Table cache: the XPController translates 4 KB
// logical regions to physical media locations. A translation miss costs an
// extra media read. Modeled as an LRU set of region ids: a slab of regions
// threaded on an MRU-first doubly linked list, with a sim::FlatIndex from
// region to slab slot.
class AitCache {
 public:
  explicit AitCache(unsigned entries) : capacity_(entries) {}

  // Returns true on hit; on miss, installs the region (evicting LRU).
  bool access(std::uint64_t region) {
    std::uint32_t slot = index_.find(region, nodes_, &Node::region);
    if (slot != sim::FlatIndex::kNone) {
      unlink(slot);
      push_front(slot);
      return true;
    }
    if (nodes_.size() >= capacity_) {
      // Reuse the least-recent region's slot for the new one.
      slot = lru_;
      index_.erase(nodes_[slot].region, slot);
      unlink(slot);
      nodes_[slot].region = region;
    } else {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{region, kNil, kNil});
    }
    push_front(slot);
    index_.insert(region, slot);
    return false;
  }

  std::size_t size() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = sim::FlatIndex::kNone;
  struct Node {
    std::uint64_t region;
    std::uint32_t prev;  // toward the MRU end
    std::uint32_t next;  // toward the LRU end
  };

  void unlink(std::uint32_t slot) {
    Node& n = nodes_[slot];
    (n.prev == kNil ? mru_ : nodes_[n.prev].next) = n.next;
    (n.next == kNil ? lru_ : nodes_[n.next].prev) = n.prev;
  }

  void push_front(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.prev = kNil;
    n.next = mru_;
    (mru_ == kNil ? lru_ : nodes_[mru_].prev) = slot;
    mru_ = slot;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;  // <= capacity_
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  sim::FlatIndex index_;  // region -> nodes_ slot
};

}  // namespace xp::hw
