// CPU cache model (per socket), holding real data.
//
// The cache is the volatile layer above the ADR domain: dirty lines here
// are LOST on a crash, which is what makes clwb/clflush/ntstore + sfence
// necessary for persistence. Three behaviors it must capture:
//
//  * store-allocate (RFO): a store to an uncached line first reads the
//    line from memory — the extra read traffic that makes ntstore win for
//    large transfers (Fig 13);
//  * natural evictions pick a pseudo-random victim, so write-back order is
//    shuffled relative to program order — destroying the sequentiality the
//    XPBuffer needs and dropping EWR from ~0.98 to ~0.26 (§5.2);
//  * clwb writes a line back but keeps it cached clean; clflush(opt)
//    evict it.
//
// Capacity is llc_lines 64 B lines (32 MB default). The lines live in one
// slab whose order is the victim-selection order (a random slab position,
// swap-removed), with a sim::FlatIndex from line address to position.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "sim/flat_index.h"
#include "sim/rng.h"
#include "xpsim/counters.h"

namespace xp::hw {

class CacheModel {
 public:
  static constexpr std::size_t kLineSize = 64;
  using LineData = std::array<std::uint8_t, kLineSize>;

  struct Line {
    std::uint64_t line_addr;
    bool dirty;
    LineData data;
  };
  using Victim = Line;

  // The slab reserves address space for a full cache up front; its pages
  // (and the index) only become resident as lines arrive.
  CacheModel(std::size_t capacity_lines, std::uint64_t seed)
      : capacity_(capacity_lines), rng_(seed) {
    lines_.reserve(capacity_lines);
    victims_[0] = draw_victim();
    victims_[1] = draw_victim();
  }

  // The cached line at `line_addr` (data and dirty bit), or nullptr. Valid
  // until the next insert or erase.
  Line* lookup(std::uint64_t line_addr) {
    const std::uint32_t pos = slot_of(line_addr);
    return pos == sim::FlatIndex::kNone ? nullptr : &lines_[pos];
  }

  bool contains(std::uint64_t line_addr) const {
    return slot_of(line_addr) != sim::FlatIndex::kNone;
  }

  // Install a line. If the cache is full, a pseudo-random victim is
  // evicted and returned so the caller can write it back. Re-inserting a
  // resident line updates it in place and never evicts.
  std::optional<Victim> insert(std::uint64_t line_addr, const LineData& data,
                               bool dirty, CacheCounters& c) {
    if (Line* l = lookup(line_addr)) {
      l->data = data;
      l->dirty = l->dirty || dirty;
      return std::nullopt;
    }
    std::optional<Victim> victim;
    if (lines_.size() >= capacity_) {
      assert(lines_.size() == capacity_);
      const std::uint32_t pos = victims_[0];
      victims_[0] = victims_[1];
      victims_[1] = draw_victim();
      index_.prefetch(lines_[victims_[0]].line_addr);
      __builtin_prefetch(lines_.data() + victims_[1]);
      victim = remove_at(pos);
      ++c.natural_evictions;
    }
    index_.insert(line_addr, static_cast<std::uint32_t>(lines_.size()));
    lines_.push_back(Line{line_addr, dirty, data});
    return victim;
  }

  // Remove a line (clflush / ntstore invalidation). Returns its data if it
  // was present and dirty (caller decides whether to write back).
  std::optional<Victim> erase(std::uint64_t line_addr) {
    const std::uint32_t pos = slot_of(line_addr);
    if (pos == sim::FlatIndex::kNone) return std::nullopt;
    Victim v = remove_at(pos);
    if (!v.dirty) return std::nullopt;
    return v;
  }

  // Power failure: all dirty lines vanish (they never reached the ADR).
  // Returns how many lines of data were lost.
  std::size_t drop_all(std::size_t* dirty_lost = nullptr) {
    std::size_t lost = 0;
    for (const Line& l : lines_)
      if (l.dirty) ++lost;
    const std::size_t n = lines_.size();
    lines_.clear();
    index_.clear();
    if (dirty_lost) *dirty_lost = lost;
    return n;
  }

  // Write back every dirty line through `writeback(line_addr, data)` and
  // mark clean (used by tests and by an orderly shutdown).
  template <typename Fn>
  void writeback_all(Fn&& writeback) {
    for (Line& l : lines_) {
      if (l.dirty) {
        writeback(l.line_addr, l.data);
        l.dirty = false;
      }
    }
  }

  std::size_t size() const { return lines_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  // Victims are uniform over slab positions, and an eviction only happens
  // in a full cache, so each one is rng_.uniform(capacity_): the k-th
  // eviction takes the k-th draw whenever it is made. Drawing two ahead
  // lets each eviction prefetch the slab line two evictions out, and the
  // index cell of the next victim, whose slab line the eviction before
  // prefetched. The prefetches are hints; they choose nothing.
  std::uint32_t draw_victim() {
    return static_cast<std::uint32_t>(rng_.uniform(capacity_));
  }

  std::uint32_t slot_of(std::uint64_t line_addr) const {
    return index_.find(line_addr, lines_, &Line::line_addr);
  }

  // Swap-remove the line at slab position `pos`; returns it.
  Line remove_at(std::uint32_t pos) {
    Line v = lines_[pos];
    index_.erase(v.line_addr, pos);
    const auto last = static_cast<std::uint32_t>(lines_.size() - 1);
    if (pos != last) {
      lines_[pos] = lines_[last];
      index_.move(lines_[pos].line_addr, last, pos);
    }
    lines_.pop_back();
    return v;
  }

  std::size_t capacity_;
  sim::Rng rng_;
  std::uint32_t victims_[2] = {};  // the next two victim positions
  std::vector<Line> lines_;  // slab; position order is the victim order
  sim::FlatIndex index_;     // line_addr -> slab position
};

}  // namespace xp::hw
