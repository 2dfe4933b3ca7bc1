#include "pmemkv/cmap.h"

#include <cstring>
#include <unordered_set>
#include <vector>

#include "pmemlib/pmem_ops.h"

namespace xp::pmemkv {

namespace {

// Software cost per engine operation: bucket locking, hashing, string
// handling and allocator bookkeeping. PMemKV's measured per-op overhead
// is high (its DRAM curve tops out near 10 GB/s in the paper's Fig 19);
// this constant reproduces that software-bound ceiling.
constexpr sim::Time kCpuOpCost = sim::ns(600);
}  // namespace

void CMap::create(sim::ThreadCtx& ctx) {
  table_ = pool_.alloc_raw(ctx, kBuckets * 8);
  // Zero the bucket array in 4 KB strides.
  std::vector<std::uint8_t> zeros(4096, 0);
  for (std::uint64_t p = 0; p < kBuckets * 8; p += zeros.size())
    pool_.ns().ntstore(ctx, table_ + p, zeros);
  pool_.ns().sfence(ctx);
  pmem::store_persist_pod(ctx, pool_.ns(), pool_.root(ctx), table_);
}

void CMap::open(sim::ThreadCtx& ctx) {
  table_ = pool_.ns().load_pod<std::uint64_t>(ctx, pool_.root(ctx));
}

CMap::Located CMap::locate(sim::ThreadCtx& ctx, std::string_view key) {
  auto& ns = pool_.ns();
  const std::uint64_t h = hash(key);
  std::uint64_t link = bucket_off(h);
  std::uint64_t node = ns.load_pod<std::uint64_t>(ctx, link);
  while (node != 0) {
    const auto hd = ns.load_pod<NodeHeader>(ctx, node);
    if (hd.klen == key.size()) {
      std::string k(hd.klen, '\0');
      ns.load(ctx, node + sizeof(NodeHeader),
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(k.data()), hd.klen));
      if (k == key) return {node, link, hd};
    }
    link = node + offsetof(NodeHeader, next);
    node = hd.next;
  }
  return {0, link, {}};
}

void CMap::put(sim::ThreadCtx& ctx, std::string_view key,
               std::string_view value) {
  ctx.advance_by(kCpuOpCost);
  auto& ns = pool_.ns();
  Located loc = locate(ctx, key);
  if (loc.node != 0 && loc.header.vlen == value.size()) {
    // In-place value update (the `overwrite` fast path).
    const std::uint64_t dst =
        loc.node + sizeof(NodeHeader) + loc.header.klen;
    ns.store_flush(ctx, dst,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(value.data()),
                       value.size()));
    ns.sfence(ctx);
    return;
  }

  // Insert (or size-changing replace): new node, then swing the link.
  const std::size_t node_size =
      sizeof(NodeHeader) + key.size() + value.size();
  pmem::Tx tx(pool_, ctx);
  const std::uint64_t node = pool_.tx_alloc(tx, node_size);
  NodeHeader hd{};
  hd.next = loc.node != 0 ? loc.header.next
                          : ns.load_pod<std::uint64_t>(ctx, loc.pred_link);
  hd.klen = static_cast<std::uint32_t>(key.size());
  hd.vlen = static_cast<std::uint32_t>(value.size());
  std::vector<std::uint8_t> buf(node_size);
  std::memcpy(buf.data(), &hd, sizeof(hd));
  std::memcpy(buf.data() + sizeof(hd), key.data(), key.size());
  std::memcpy(buf.data() + sizeof(hd) + key.size(), value.data(),
              value.size());
  ns.store_flush(ctx, node, buf);
  tx.add(loc.pred_link, 8);
  tx.store(loc.pred_link,
           std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(&node), 8));
  if (loc.node != 0)
    pool_.tx_free(tx, loc.node,
                  sizeof(NodeHeader) + loc.header.klen + loc.header.vlen);
  tx.commit();
}

bool CMap::get(sim::ThreadCtx& ctx, std::string_view key,
               std::string* value) {
  ctx.advance_by(kCpuOpCost);
  auto& ns = pool_.ns();
  const Located loc = locate(ctx, key);
  if (loc.node == 0) return false;
  if (value != nullptr) {
    value->resize(loc.header.vlen);
    ns.load(ctx, loc.node + sizeof(NodeHeader) + loc.header.klen,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(value->data()),
                loc.header.vlen));
  }
  return true;
}

bool CMap::remove(sim::ThreadCtx& ctx, std::string_view key) {
  ctx.advance_by(kCpuOpCost);
  const Located loc = locate(ctx, key);
  if (loc.node == 0) return false;
  pmem::Tx tx(pool_, ctx);
  tx.add(loc.pred_link, 8);
  tx.store(loc.pred_link,
           std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(&loc.header.next), 8));
  pool_.tx_free(tx, loc.node,
                sizeof(NodeHeader) + loc.header.klen + loc.header.vlen);
  tx.commit();
  return true;
}

Status CMap::check(sim::ThreadCtx& ctx) {
  return pmem::run_check([&] { return check_impl(ctx); });
}

void CMap::repair(sim::ThreadCtx& ctx) {
  auto& ns = pool_.ns();
  const auto bad = ns.platform().ars(ns, 0, ns.size());
  if (bad.empty()) return;

  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    std::uint64_t link = table_ + b * 8;
    if (hw::Platform::touches_bad_line(bad, link, 8)) {
      // The head pointer itself is gone; scrubbing below zeroes it, so
      // this bucket comes back empty and its whole chain leaks.
      ++recovery_.buckets_zeroed;
      continue;
    }
    std::uint64_t node = ns.peek_pod<std::uint64_t>(link);
    while (node != 0) {
      if (hw::Platform::touches_bad_line(bad, node, sizeof(NodeHeader))) {
        // Header (and its next pointer) unreadable: cut the chain here.
        // `link` is on a clean line — it was just read.
        pmem::store_persist_pod(ctx, ns, link, std::uint64_t{0});
        ++recovery_.chains_cut;
        break;
      }
      const auto hd = ns.peek_pod<NodeHeader>(node);
      if (hw::Platform::touches_bad_line(bad, node + sizeof(NodeHeader),
                                         hd.klen + hd.vlen)) {
        // Payload damaged but the header is intact: splice the node out
        // and keep walking the preserved tail.
        pmem::store_persist_pod(ctx, ns, link, hd.next);
        ++recovery_.nodes_spliced;
        node = hd.next;
        continue;
      }
      link = node + offsetof(NodeHeader, next);
      node = hd.next;
    }
  }
  // Only now is it safe to zero the bad lines — nothing references them.
  for (const std::uint64_t l : bad) pool_.scrub_line(ctx, l);
}

std::string CMap::check_impl(sim::ThreadCtx& ctx) {
  const auto& ns = pool_.ns();
  const std::uint64_t heap_lo = pmem::Pool::heap_base();
  const std::uint64_t heap_hi = pool_.heap_top(ctx);
  if (table_ < heap_lo || table_ % 64 != 0 ||
      table_ + kBuckets * 8 > heap_hi)
    return "bucket table outside allocated heap";

  const std::uint64_t max_nodes = (heap_hi - heap_lo) / 64;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    std::unordered_set<std::string> keys;
    std::uint64_t node = ns.peek_pod<std::uint64_t>(table_ + b * 8);
    std::uint64_t steps = 0;
    while (node != 0) {
      const std::string tag =
          "bucket " + std::to_string(b) + " node @" + std::to_string(node);
      if (++steps > max_nodes) return "bucket " + std::to_string(b) + ": cycle";
      if (node % 64 != 0 || node < heap_lo ||
          node + sizeof(NodeHeader) > heap_hi)
        return tag + ": offset outside allocated heap";
      const auto hd = ns.peek_pod<NodeHeader>(node);
      if (node + sizeof(NodeHeader) + hd.klen + hd.vlen > heap_hi)
        return tag + ": key/value overrun heap";
      std::string k(hd.klen, '\0');
      ns.peek(node + sizeof(NodeHeader),
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(k.data()), hd.klen));
      if ((hash(k) & (kBuckets - 1)) != b)
        return tag + ": key hashes to the wrong bucket";
      if (!keys.insert(k).second) return tag + ": duplicate key in chain";
      node = hd.next;
    }
  }
  return "";
}

std::uint64_t CMap::count(sim::ThreadCtx& ctx) {
  auto& ns = pool_.ns();
  std::uint64_t n = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    std::uint64_t node = ns.load_pod<std::uint64_t>(ctx, table_ + b * 8);
    while (node != 0) {
      ++n;
      node = ns.load_pod<NodeHeader>(ctx, node).next;
    }
  }
  return n;
}

}  // namespace xp::pmemkv
