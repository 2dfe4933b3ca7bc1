#include "lsmkv/pskiplist.h"

#include <cstring>
#include <vector>

#include "pmemlib/pmem_ops.h"

namespace xp::kv {

void PSkiplist::create(sim::ThreadCtx& ctx) {
  NodeHeader head{};
  head.level = kMaxLevel;
  head_ = pool_.ns().size();  // placeholder until allocated
  head_ = pool_.alloc_raw(ctx, sizeof(NodeHeader));
  pool_.ns().ntstore_persist(ctx, head_,
                             pmem::bytes_of(&head, sizeof(head)));
  pmem::store_persist_pod(ctx, pool_.ns(), root_off_, head_);
}

void PSkiplist::open(sim::ThreadCtx& ctx) {
  head_ = pool_.ns().load_pod<std::uint64_t>(ctx, root_off_);
}

std::string PSkiplist::read_key(sim::ThreadCtx& ctx, std::uint64_t node,
                                const NodeHeader& h) {
  std::string key(h.klen, '\0');
  pool_.ns().load(ctx, node + sizeof(NodeHeader),
                  std::span<std::uint8_t>(
                      reinterpret_cast<std::uint8_t*>(key.data()), h.klen));
  return key;
}

int PSkiplist::random_level() {
  int level = 1;
  while (level < kMaxLevel && rng_.bernoulli(0.25)) ++level;
  return level;
}

void PSkiplist::put(sim::ThreadCtx& ctx, std::string_view key,
                    std::string_view value, bool tombstone) {
  auto& ns = pool_.ns();
  // Find predecessors at every level (new node goes *before* equal keys,
  // so the newest version of a key is found first).
  std::uint64_t preds[kMaxLevel];
  std::uint64_t succs[kMaxLevel];
  std::uint64_t cur = head_;
  NodeHeader cur_h = ns.load_pod<NodeHeader>(ctx, cur);
  for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
    while (true) {
      const std::uint64_t nxt = cur_h.next[lvl];
      if (nxt == 0) break;
      const NodeHeader nxt_h = ns.load_pod<NodeHeader>(ctx, nxt);
      if (read_key(ctx, nxt, nxt_h) >= key) break;
      cur = nxt;
      cur_h = nxt_h;
    }
    preds[lvl] = cur;
    succs[lvl] = cur_h.next[lvl];
  }

  // Build and persist the node (not yet visible).
  const int level = random_level();
  NodeHeader h{};
  h.klen = static_cast<std::uint32_t>(key.size());
  h.vlen = static_cast<std::uint32_t>(value.size()) |
           (tombstone ? kTombstoneBit : 0);
  h.level = static_cast<std::uint32_t>(level);
  for (int l = 0; l < level; ++l) h.next[l] = succs[l];

  const std::size_t node_size = sizeof(NodeHeader) + key.size() + value.size();
  const std::uint64_t node = pool_.alloc_raw(ctx, node_size);
  std::vector<std::uint8_t> buf(node_size);
  std::memcpy(buf.data(), &h, sizeof(h));
  std::memcpy(buf.data() + sizeof(h), key.data(), key.size());
  if (!value.empty())  // tombstones carry a null, zero-length value view
    std::memcpy(buf.data() + sizeof(h) + key.size(), value.data(),
                value.size());
  ns.store_flush(ctx, node, buf);
  ns.sfence(ctx);

  // Link bottom-up; each link is an atomic 8-byte persist.
  for (int l = 0; l < level; ++l) {
    pmem::store_persist_pod(
        ctx, ns, preds[l] + offsetof(NodeHeader, next) + l * 8, node);
  }
}

std::uint64_t PSkiplist::seek(sim::ThreadCtx& ctx, std::string_view key) {
  auto& ns = pool_.ns();
  std::uint64_t cur = head_;
  NodeHeader cur_h = ns.load_pod<NodeHeader>(ctx, cur);
  for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
    while (true) {
      const std::uint64_t nxt = cur_h.next[lvl];
      if (nxt == 0) break;
      const NodeHeader nxt_h = ns.load_pod<NodeHeader>(ctx, nxt);
      if (read_key(ctx, nxt, nxt_h) >= key) break;
      cur = nxt;
      cur_h = nxt_h;
    }
  }
  return cur_h.next[0];
}

FindResult PSkiplist::get(sim::ThreadCtx& ctx, std::string_view key,
                          std::string* value) {
  auto& ns = pool_.ns();
  const std::uint64_t cand = seek(ctx, key);
  if (cand == 0) return FindResult::kNotFound;
  const NodeHeader cand_h = ns.load_pod<NodeHeader>(ctx, cand);
  if (read_key(ctx, cand, cand_h) != key) return FindResult::kNotFound;
  if (cand_h.vlen & kTombstoneBit) return FindResult::kTombstone;
  const std::uint32_t vlen = cand_h.vlen & ~kTombstoneBit;
  if (value != nullptr) {
    value->resize(vlen);
    ns.load(ctx, cand + sizeof(NodeHeader) + cand_h.klen,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(value->data()), vlen));
  }
  return FindResult::kFound;
}

void PSkiplist::for_each_from(
    sim::ThreadCtx& ctx, std::string_view start,
    const std::function<bool(std::string_view, std::string_view, bool)>& fn) {
  auto& ns = pool_.ns();
  // seek() lands on the newest version of its key: put() links a new node
  // before the older versions of the same key.
  std::uint64_t cur = start.empty()
                          ? ns.load_pod<NodeHeader>(ctx, head_).next[0]
                          : seek(ctx, start);
  std::string last_key;
  bool have_last = false;
  while (cur != 0) {
    const NodeHeader h = ns.load_pod<NodeHeader>(ctx, cur);
    const std::string key = read_key(ctx, cur, h);
    if (!have_last || key != last_key) {
      const std::uint32_t vlen = h.vlen & ~kTombstoneBit;
      std::string value(vlen, '\0');
      ns.load(ctx, cur + sizeof(NodeHeader) + h.klen,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(value.data()), vlen));
      if (!fn(key, value, (h.vlen & kTombstoneBit) != 0)) return;
      last_key = key;
      have_last = true;
    }
    cur = h.next[0];
  }
}

PSkiplist::Footprint PSkiplist::footprint(sim::ThreadCtx& ctx) {
  auto& ns = pool_.ns();
  Footprint fp;
  const NodeHeader head_h = ns.load_pod<NodeHeader>(ctx, head_);
  std::uint64_t cur = head_h.next[0];
  while (cur != 0) {
    const NodeHeader h = ns.load_pod<NodeHeader>(ctx, cur);
    ++fp.entries;
    fp.bytes += h.klen + (h.vlen & ~kTombstoneBit);
    cur = h.next[0];
  }
  return fp;
}

}  // namespace xp::kv
