#include "pmemkv/stree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <set>

#include "pmemlib/pmem_ops.h"

namespace xp::pmemkv {

STree::LeafHeader STree::read_header(sim::ThreadCtx& ctx,
                                     std::uint64_t leaf) {
  // The header fetch stages the whole leaf (header + all slots) as one
  // line burst, so the slot scans that follow are pure DRAM slicing — the
  // §5.1 "access whole XPLines" guideline.
  return reader_.fetch_pod<LeafHeader>(ctx, pool_.ns(), leaf, kLeafSize);
}

STree::Slot STree::read_slot(sim::ThreadCtx& ctx, std::uint64_t leaf,
                             unsigned i) {
  return reader_.fetch_pod<Slot>(ctx, pool_.ns(), slot_off(leaf, i));
}

std::string STree::read_value(sim::ThreadCtx& ctx, std::uint64_t val_off) {
  const auto len = reader_.fetch_pod<std::uint32_t>(ctx, pool_.ns(), val_off);
  std::string v(len, '\0');
  reader_.read(ctx, pool_.ns(), val_off + 4,
               std::span<std::uint8_t>(
                   reinterpret_cast<std::uint8_t*>(v.data()), len));
  return v;
}

std::uint64_t STree::write_value_blob(sim::ThreadCtx& ctx,
                                      std::string_view v) {
  // Leak-on-crash allocation is safe: the blob becomes reachable only via
  // the atomic val_off persist that follows.
  const std::uint64_t off = pool_.alloc_raw(ctx, 4 + v.size());
  std::vector<std::uint8_t> buf(4 + v.size());
  const auto len = static_cast<std::uint32_t>(v.size());
  std::memcpy(buf.data(), &len, 4);
  std::memcpy(buf.data() + 4, v.data(), v.size());
  pmem::memcpy_persist(ctx, pool_.ns(), off, buf);
  return off;
}

void STree::create(sim::ThreadCtx& ctx) {
  first_leaf_ = pool_.alloc_raw(ctx, kLeafSize);
  LeafHeader h{0, 0, 0};
  pool_.ns().ntstore_persist(ctx, first_leaf_, pmem::bytes_of(&h, sizeof(h)));
  pmem::store_persist_pod(ctx, pool_.ns(), pool_.root(ctx), first_leaf_);
  index_.clear();
  index_[""] = first_leaf_;
  init_read_path();
}

void STree::init_read_path() {
  pmem::reset_read_path(reader_, rcache_, pool_.ns(), opts_.read_cache_lines);
}

void STree::open(sim::ThreadCtx& ctx) {
  first_leaf_ = pool_.ns().load_pod<std::uint64_t>(ctx, pool_.root(ctx));
  init_read_path();
  index_.clear();
  index_[""] = first_leaf_;
  for (std::uint64_t leaf = first_leaf_; leaf != 0;) {
    index_leaf(ctx, leaf);
    leaf = read_header(ctx, leaf).next;
  }
}

void STree::index_leaf(sim::ThreadCtx& ctx, std::uint64_t leaf) {
  const LeafHeader h = read_header(ctx, leaf);
  std::string smallest;
  bool have = false;
  for (unsigned i = 0; i < kLeafSlots; ++i) {
    if ((h.bitmap & (1u << i)) == 0) continue;
    const Slot s = read_slot(ctx, leaf, i);
    std::string k(s.key, s.key_len);
    if (!have || k < smallest) {
      smallest = std::move(k);
      have = true;
    }
  }
  if (leaf == first_leaf_) smallest.clear();  // root leaf owns [-inf, ..)
  if (have || leaf == first_leaf_) index_[smallest] = leaf;
}

std::uint64_t STree::find_leaf(std::string_view key) const {
  auto it = index_.upper_bound(std::string(key));
  assert(it != index_.begin());
  --it;
  return it->second;
}

int STree::find_slot(sim::ThreadCtx& ctx, std::uint64_t leaf,
                     const LeafHeader& h, std::string_view key, Slot* out) {
  for (unsigned i = 0; i < kLeafSlots; ++i) {
    if ((h.bitmap & (1u << i)) == 0) continue;
    const Slot s = read_slot(ctx, leaf, i);
    if (s.key_len == key.size() &&
        std::memcmp(s.key, key.data(), key.size()) == 0) {
      if (out != nullptr) *out = s;
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool STree::put(sim::ThreadCtx& ctx, std::string_view key,
                std::string_view value) {
  if (key.size() > kMaxKey) return false;
  std::uint64_t leaf = find_leaf(key);
  LeafHeader h = read_header(ctx, leaf);

  Slot existing;
  const int idx = find_slot(ctx, leaf, h, key, &existing);
  if (idx >= 0) {
    // Out-of-place value update, committed by one 8-byte persist.
    const std::uint64_t blob = write_value_blob(ctx, value);
    pmem::store_persist_pod(
        ctx, pool_.ns(),
        slot_off(leaf, static_cast<unsigned>(idx)) + offsetof(Slot, val_off),
        blob);
    reader_.discard();  // the staged leaf now holds a stale val_off
    return true;
  }

  if (std::popcount(h.bitmap) == static_cast<int>(kLeafSlots)) {
    leaf = split_leaf(ctx, leaf, key);
    h = read_header(ctx, leaf);
  }

  // Free slot: write it fully, persist, then flip the bitmap bit (the
  // atomic commit point).
  unsigned free_slot = 0;
  while (h.bitmap & (1u << free_slot)) ++free_slot;
  Slot s{};
  s.key_len = static_cast<std::uint8_t>(key.size());
  std::memcpy(s.key, key.data(), key.size());
  s.val_off = write_value_blob(ctx, value);
  pool_.ns().store_persist(ctx, slot_off(leaf, free_slot),
                           pmem::bytes_of(&s, sizeof(s)));
  const std::uint32_t new_bitmap = h.bitmap | (1u << free_slot);
  pmem::store_persist_pod(ctx, pool_.ns(),
                          leaf + offsetof(LeafHeader, bitmap), new_bitmap);

  reader_.discard();  // the staged leaf now holds the stale slot/bitmap
  return true;
}

std::uint64_t STree::split_leaf(sim::ThreadCtx& ctx, std::uint64_t leaf,
                                std::string_view key) {
  // A structural modification: readers racing a split are the classic
  // B-tree hazard, so announce it to the schedule explorer.
  ctx.sched_point(sim::SchedPoint::kHandoff);
  // Collect and sort the slots to pick the median.
  const LeafHeader h = read_header(ctx, leaf);
  std::vector<std::pair<std::string, unsigned>> keys;
  for (unsigned i = 0; i < kLeafSlots; ++i) {
    const Slot s = read_slot(ctx, leaf, i);
    keys.emplace_back(std::string(s.key, s.key_len), i);
  }
  std::sort(keys.begin(), keys.end());
  const std::string& median = keys[kLeafSlots / 2].first;

  pmem::Tx tx(pool_, ctx);
  const std::uint64_t right = pool_.tx_alloc(tx, kLeafSize);

  // Build the right leaf: upper half of the keys.
  LeafHeader rh{h.next, 0, 0};
  std::uint32_t moved = 0;
  std::vector<std::uint8_t> leafbuf(kLeafSize, 0);
  for (unsigned j = kLeafSlots / 2; j < kLeafSlots; ++j) {
    const unsigned src = keys[j].second;
    const Slot s = read_slot(ctx, leaf, src);
    std::memcpy(leafbuf.data() + sizeof(LeafHeader) + src * sizeof(Slot),
                &s, sizeof(s));
    moved |= 1u << src;
  }
  rh.bitmap = moved;
  std::memcpy(leafbuf.data(), &rh, sizeof(rh));
  pool_.ns().ntstore(ctx, right, leafbuf);
  pool_.ns().sfence(ctx);

  // Atomically (via the undo log) unlink the moved slots from the left
  // leaf and link the right leaf.
  const std::uint32_t left_bitmap = h.bitmap & ~moved;
  tx.add(leaf, sizeof(LeafHeader));
  LeafHeader lh{right, left_bitmap, 0};
  tx.store(leaf, pmem::bytes_of(&lh, sizeof(lh)));
  tx.commit();
  // The caller re-reads the left leaf's header right after the split, so
  // the staged (pre-split) copy must go now, not at end of put().
  reader_.discard();

  index_[median] = right;
  return key >= median ? right : leaf;
}

bool STree::get(sim::ThreadCtx& ctx, std::string_view key,
                std::string* value) {
  if (key.size() > kMaxKey) return false;
  const std::uint64_t leaf = find_leaf(key);
  const LeafHeader h = read_header(ctx, leaf);
  Slot s;
  if (find_slot(ctx, leaf, h, key, &s) < 0) return false;
  if (value != nullptr) *value = read_value(ctx, s.val_off);
  return true;
}

bool STree::remove(sim::ThreadCtx& ctx, std::string_view key) {
  if (key.size() > kMaxKey) return false;
  const std::uint64_t leaf = find_leaf(key);
  const LeafHeader h = read_header(ctx, leaf);
  const int idx = find_slot(ctx, leaf, h, key);
  if (idx < 0) return false;
  const std::uint32_t new_bitmap = h.bitmap & ~(1u << idx);
  pmem::store_persist_pod(ctx, pool_.ns(),
                          leaf + offsetof(LeafHeader, bitmap), new_bitmap);
  reader_.discard();  // the staged leaf now holds the stale bitmap
  return true;
}

std::vector<std::pair<std::string, std::string>> STree::scan(
    sim::ThreadCtx& ctx, std::string_view start_key,
    std::size_t max_results) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = index_.upper_bound(std::string(start_key));
  if (it != index_.begin()) --it;
  for (; it != index_.end() && out.size() < max_results; ++it) {
    const std::uint64_t leaf = it->second;
    const LeafHeader h = read_header(ctx, leaf);
    std::vector<std::pair<std::string, std::string>> in_leaf;
    for (unsigned i = 0; i < kLeafSlots; ++i) {
      if ((h.bitmap & (1u << i)) == 0) continue;
      const Slot s = read_slot(ctx, leaf, i);
      std::string k(s.key, s.key_len);
      if (k < start_key) continue;
      in_leaf.emplace_back(std::move(k), read_value(ctx, s.val_off));
    }
    std::sort(in_leaf.begin(), in_leaf.end());
    for (auto& kv : in_leaf) {
      if (out.size() >= max_results) break;
      out.push_back(std::move(kv));
    }
  }
  return out;
}

Status STree::check(sim::ThreadCtx& ctx) {
  return pmem::run_check([&] { return check_impl(ctx); });
}

void STree::repair(sim::ThreadCtx& ctx) {
  auto& ns = pool_.ns();
  const auto bad = ns.platform().ars(ns, 0, ns.size());
  if (bad.empty()) return;

  if (hw::Platform::touches_bad_line(bad, pool_.root(ctx), 8)) {
    // The root pointer itself is gone, so the whole chain is unreachable
    // (a reported total loss). Scrub everything and re-create an empty
    // tree so later opens see a valid structure.
    for (const std::uint64_t l : bad) pool_.scrub_line(ctx, l);
    create(ctx);
    recovery_.root_reset = true;
    return;
  }
  if (first_leaf_ == 0)  // open() never completed; the root line is clean
    first_leaf_ = ns.peek_pod<std::uint64_t>(pool_.root(ctx));

  std::uint64_t prev = 0;
  for (std::uint64_t leaf = first_leaf_; leaf != 0;) {
    if (hw::Platform::touches_bad_line(bad, leaf, sizeof(LeafHeader))) {
      // Header (next pointer + bitmap) unreadable: everything from here
      // on is unreachable. Scrubbing zeroes the header, which for the
      // first leaf *is* a fresh empty leaf {next=0, bitmap=0}.
      if (prev == 0) {
        recovery_.root_reset = true;
      } else {
        pmem::store_persist_pod(ctx, ns, prev + offsetof(LeafHeader, next),
                                std::uint64_t{0});
      }
      ++recovery_.leaves_dropped;
      break;
    }
    const auto h = ns.peek_pod<LeafHeader>(leaf);
    std::uint32_t bitmap = h.bitmap;
    for (unsigned i = 0; i < kLeafSlots; ++i) {
      if ((bitmap & (1u << i)) == 0) continue;
      bool drop =
          hw::Platform::touches_bad_line(bad, slot_off(leaf, i), sizeof(Slot));
      if (!drop) {
        const auto s = ns.peek_pod<Slot>(slot_off(leaf, i));
        drop = hw::Platform::touches_bad_line(bad, s.val_off, 4) ||
               hw::Platform::touches_bad_line(
                   bad, s.val_off, 4 + ns.peek_pod<std::uint32_t>(s.val_off));
      }
      if (drop) {
        bitmap &= ~(1u << i);
        ++recovery_.slots_dropped;
      }
    }
    if (bitmap != h.bitmap)
      pmem::store_persist_pod(ctx, ns, leaf + offsetof(LeafHeader, bitmap),
                              bitmap);
    prev = leaf;
    leaf = h.next;
  }

  // Nothing references the bad lines any more; zero them and rebuild the
  // DRAM index from the surviving chain.
  for (const std::uint64_t l : bad) pool_.scrub_line(ctx, l);
  open(ctx);
}

std::string STree::check_impl(sim::ThreadCtx& ctx) {
  const auto& ns = pool_.ns();
  const std::uint64_t heap_lo = pmem::Pool::heap_base();
  const std::uint64_t heap_hi = pool_.heap_top(ctx);
  if (first_leaf_ == 0) return "no root leaf";

  std::set<std::string> keys;
  std::string prev_leaf_max;
  bool have_prev = false;
  std::uint64_t leaves = 0;
  const std::uint64_t max_leaves = (heap_hi - heap_lo) / kLeafSize + 1;
  for (std::uint64_t leaf = first_leaf_; leaf != 0;) {
    const std::string tag = "leaf @" + std::to_string(leaf);
    if (++leaves > max_leaves) return "leaf chain: cycle";
    if (leaf % 64 != 0 || leaf < heap_lo || leaf + kLeafSize > heap_hi)
      return tag + ": outside allocated heap";
    const auto h = ns.peek_pod<LeafHeader>(leaf);
    std::string leaf_min, leaf_max;
    bool have_any = false;
    for (unsigned i = 0; i < kLeafSlots; ++i) {
      if ((h.bitmap & (1u << i)) == 0) continue;
      const auto s = ns.peek_pod<Slot>(slot_off(leaf, i));
      if (s.key_len > kMaxKey)
        return tag + " slot " + std::to_string(i) + ": bad key_len";
      std::string k(s.key, s.key_len);
      if (s.val_off < heap_lo || s.val_off + 4 > heap_hi)
        return tag + " key '" + k + "': val_off outside heap";
      const auto vlen = ns.peek_pod<std::uint32_t>(s.val_off);
      if (s.val_off + 4 + vlen > heap_hi)
        return tag + " key '" + k + "': value blob overruns heap";
      if (!keys.insert(k).second) return "duplicate key '" + k + "'";
      if (!have_any || k < leaf_min) leaf_min = k;
      if (!have_any || k > leaf_max) leaf_max = k;
      have_any = true;
    }
    if (have_any && have_prev && leaf_min <= prev_leaf_max)
      return tag + ": chain not key-ordered ('" + leaf_min +
             "' after '" + prev_leaf_max + "')";
    if (have_any) {
      prev_leaf_max = leaf_max;
      have_prev = true;
    }
    leaf = h.next;
  }
  return "";
}

std::uint64_t STree::count(sim::ThreadCtx& ctx) {
  std::uint64_t n = 0;
  for (std::uint64_t leaf = first_leaf_; leaf != 0;) {
    const LeafHeader h = read_header(ctx, leaf);
    n += static_cast<unsigned>(std::popcount(h.bitmap));
    leaf = h.next;
  }
  return n;
}

}  // namespace xp::pmemkv
