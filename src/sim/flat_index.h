// Open-addressed index from 64-bit keys to the slots of a dense array.
//
// The simulator's per-access structures (the LLC, the XPBuffer, the AIT
// cache, the media wear map, the WPQ credit rings) each keep their
// entries in one contiguous vector and need a key -> position map beside
// it. This is that map: a power-of-two table with linear probing and
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// A cell holds a slot number and the key's 32-bit hash, not the key: a
// probe reads the key back out of the owner's array, which each call
// names together with the member of its elements that holds the key, and
// only for a cell whose hash matches. The hash also gives every cell its
// home without touching the owner's array, so deletion and growth never
// do. The table grows with the number of keys (load factor <= 1/2),
// never ahead of it.
//
// Owners that swap-remove from their array call erase() for the removed
// key, then move() for the entry that took its place.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace xp::sim {

class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Slot of `slots` whose element's `member` is `key`, or kNone.
  template <typename Slots, typename Member>
  std::uint32_t find(std::uint64_t key, const Slots& slots,
                     Member member) const {
    if (count_ == 0) return kNone;
    const std::uint32_t h = hash(key);
    for (std::size_t i = home(h);; i = (i + 1) & mask_) {
      const Cell c = table_[i];
      if (c.slot == kNone) return kNone;
      if (c.hash == h && slots[c.slot].*member == key) return c.slot;
    }
  }

  // Record an absent `key` at `slot`.
  void insert(std::uint64_t key, std::uint32_t slot) {
    if (2 * (count_ + 1) > table_.size()) grow();
    place(Cell{slot, hash(key)});
    ++count_;
  }

  // Forget `key`, which is recorded at `slot`.
  void erase(std::uint64_t key, std::uint32_t slot) {
    std::size_t hole = locate(key, slot);
    // Backward shift: pull each later cell of the probe run into the hole
    // unless its home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask_; table_[j].slot != kNone;
         j = (j + 1) & mask_) {
      const std::size_t h = home(table_[j].hash);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole].slot = kNone;
    --count_;
  }

  // `key`'s entry moved from slot `from` to slot `to`.
  void move(std::uint64_t key, std::uint32_t from, std::uint32_t to) {
    table_[locate(key, from)].slot = to;
  }

  // Start fetching the cell where a probe for `key` begins.
  void prefetch(std::uint64_t key) const {
    if (!table_.empty()) __builtin_prefetch(table_.data() + home(hash(key)));
  }

  void clear() {
    table_.assign(table_.size(), Cell{});
    count_ = 0;
  }

  std::size_t size() const { return count_; }

 private:
  struct Cell {
    std::uint32_t slot = kNone;
    std::uint32_t hash = 0;
  };

  // Fibonacci hashing: the top 32 bits of key * 2^64/phi; a table of 2^b
  // cells homes a key at the top b of them.
  static std::uint32_t hash(std::uint64_t key) {
    return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  std::size_t home(std::uint32_t h) const { return h >> shift_; }

  std::size_t locate(std::uint64_t key, std::uint32_t slot) const {
    std::size_t i = home(hash(key));
    while (table_[i].slot != slot) {
      assert(table_[i].slot != kNone && "FlatIndex: key not at slot");
      i = (i + 1) & mask_;
    }
    return i;
  }

  void place(Cell c) {
    std::size_t i = home(c.hash);
    while (table_[i].slot != kNone) i = (i + 1) & mask_;
    table_[i] = c;
  }

  void grow() {
    std::vector<Cell> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    mask_ = table_.size() - 1;
    shift_ = 32;
    for (std::size_t n = table_.size(); n > 1; n >>= 1) --shift_;
    for (const Cell c : old)
      if (c.slot != kNone) place(c);
  }

  std::vector<Cell> table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 32;
  std::size_t count_ = 0;
};

}  // namespace xp::sim
