#include "pmemlib/pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "sim/crc32.h"

namespace xp::pmem {

// --------------------------------------------------------------- Pool ----

std::uint32_t Pool::header_crc(const Header& h) {
  // Identity fields only: magic, pool_size, root_off, root_size.
  return sim::crc32c(&h, 4 * sizeof(std::uint64_t));
}

const char* Pool::header_error(const Header& h) const {
  if (h.magic != kMagic) return "header: bad magic";
  if (h.identity_crc != header_crc(h)) return "header: identity crc mismatch";
  if (h.pool_size != ns_.size()) return "header: pool_size != namespace size";
  if (h.heap_top < kHeapBase || h.heap_top > h.pool_size)
    return "header: heap_top outside [heap_base, pool_size]";
  if (h.heap_top % 64 != 0) return "header: heap_top misaligned";
  if (h.root_off < kHeapBase || h.root_off + h.root_size > h.heap_top)
    return "header: root object outside allocated heap";
  return nullptr;
}

std::string Pool::chunk_error(ThreadCtx& ctx, const Header& h,
                              std::uint64_t prev_end, std::uint64_t cur,
                              FreeChunk& chunk) {
  const auto at = [cur] { return "free chunk @" + std::to_string(cur); };
  if (cur % 64 != 0) return at() + ": misaligned";
  if (cur < kHeapBase || cur + sizeof(FreeChunk) > h.heap_top)
    return at() + ": outside heap";
  if (cur <= prev_end)
    return at() + ": not past the chunk before it (unordered or uncoalesced)";
  chunk = ns_.load_pod<FreeChunk>(ctx, cur);
  if (chunk.size < 64 || chunk.size % 64 != 0 || cur + chunk.size > h.heap_top)
    return at() + ": bad size " + std::to_string(chunk.size);
  if (cur + chunk.size == h.heap_top) return at() + ": reaches heap_top";
  return "";
}

void Pool::create(ThreadCtx& ctx, std::uint64_t root_size) {
  assert(ns_.size() > kHeapBase + root_size + 4096);
  Header h{};
  h.magic = kMagic;
  h.pool_size = ns_.size();
  h.root_size = root_size;
  h.heap_top = kHeapBase;
  h.free_head = 0;

  // Zero + idle all lanes first, then the header last: a crash mid-create
  // leaves an invalid magic and open() reports no pool.
  for (unsigned l = 0; l < kLanes; ++l) {
    const std::uint64_t zero64[8] = {};
    ns_.ntstore_persist(
        ctx, lane_off(l),
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(zero64), 64));
  }
  // Root object: carve from the heap, zero it.
  h.root_off = h.heap_top;
  h.heap_top += (root_size + 63) / 64 * 64;
  std::vector<std::uint8_t> zeros(root_size, 0);
  if (root_size > 0) ns_.ntstore_persist(ctx, h.root_off, zeros);

  h.identity_crc = header_crc(h);
  // Redundant copy first (via the management path — untimed, so pool
  // creation costs exactly what it did without the copy), primary last:
  // a crash mid-create still leaves an invalid primary and no pool.
  ns_.poke(kBackupHeaderOff,
           std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(&h), sizeof(h)));
  store_persist_pod(ctx, ns_, 0, h);
  recovery_ = RecoveryInfo{};
}

bool Pool::open(ThreadCtx& ctx) {
  recovery_ = RecoveryInfo{};
  Header h{};
  bool primary_ok = false;
  try {
    h = read_header(ctx);
    primary_ok = header_error(h) == nullptr;
  } catch (const hw::MediaError&) {
    primary_ok = false;
  }
  if (!primary_ok) {
    // Redundant-copy fallback: restore identity from the backup. The
    // mutable allocator fields in the backup are create-time stale, so
    // seal the heap — existing objects stay readable, new allocation is
    // exhausted — and drop the free list.
    Header b{};
    try {
      b = ns_.load_pod<Header>(ctx, kBackupHeaderOff);
    } catch (const hw::MediaError&) {
      return false;  // both copies unreadable: not a recoverable pool
    }
    if (header_error(b) != nullptr) return false;
    h = b;
    h.heap_top = h.pool_size / 64 * 64;
    h.free_head = 0;
    scrub_line(ctx, 0);  // zero the damaged line, clearing its poison
    store_persist_pod(ctx, ns_, 0, h);
    recovery_.header_restored = true;
    recovery_.heap_sealed = true;
  }
  for (unsigned l = 0; l < kLanes; ++l) {
    try {
      recover_lane(ctx, l);
    } catch (const hw::MediaError&) {
      // The lane's undo log is unreadable. Its transaction was never
      // acknowledged and every logged store is individually ordered, so
      // forcing the lane idle without rollback keeps the pool
      // structurally consistent; the abandonment is reported, not hidden.
      for (const std::uint64_t bad :
           ns_.platform().ars(ns_, lane_off(l), kLaneSize))
        scrub_line(ctx, bad);
      store_persist_pod(ctx, ns_, lane_off(l), Tx::LaneHeader{0, 0, 0});
      ++recovery_.lanes_forced_idle;
    }
  }
  if (!recovery_.scrubbed_lines.empty()) repair_free_list(ctx);
  return true;
}

void Pool::recover_lane(ThreadCtx& ctx, unsigned lane) {
  Tx::recover(*this, ctx, lane_off(lane));
}

void Pool::scrub_line(ThreadCtx& ctx, std::uint64_t line_off) {
  line_off &= ~(hw::Platform::kXpLineBytes - 1);
  const std::uint8_t zeros[hw::Platform::kXpLineBytes] = {};
  ns_.ntstore_persist(ctx, line_off, zeros);
  recovery_.scrubbed_lines.push_back(line_off);
}

void Pool::repair(ThreadCtx& ctx) {
  const auto bad = ns_.platform().ars(ns_, 0, ns_.size());
  for (const std::uint64_t line : bad) scrub_line(ctx, line);
  // Always revalidate the free list: a store-level repair may have
  // scrubbed (zeroed) a free chunk before calling us, leaving a node
  // with size 0 that the walk below truncates away.
  repair_free_list(ctx);
}

void Pool::repair_free_list(ThreadCtx& ctx) {
  const Header h = read_header(ctx);  // header line is clean by now
  // chunk_error() keeps the walk address-ordered, so it ends.
  std::uint64_t prev = 0;
  std::uint64_t prev_end = 0;
  std::uint64_t cur = h.free_head;
  while (cur != 0) {
    bool bad = false;
    FreeChunk chunk{};
    try {
      bad = !chunk_error(ctx, h, prev_end, cur, chunk).empty();
    } catch (const hw::MediaError& e) {
      scrub_line(ctx, e.line_off);
      bad = true;
    }
    if (bad) {
      // Truncate at the damage point: the unreachable suffix is leaked
      // (reported), never chased into garbage.
      const std::uint64_t target = prev == 0
                                       ? offsetof(Header, free_head)
                                       : prev + offsetof(FreeChunk, next);
      store_persist_pod(ctx, ns_, target, std::uint64_t{0});
      recovery_.free_list_truncated = true;
      return;
    }
    prev = cur;
    prev_end = cur + chunk.size;
    cur = chunk.next;
  }
}

Status Pool::check(ThreadCtx& ctx) {
  return run_check([&] { return check_impl(ctx); });
}

std::string Pool::check_impl(ThreadCtx& ctx) {
  const Header h = read_header(ctx);
  if (const char* err = header_error(h)) return err;

  // After open() every lane must be durably idle: recovery retires active
  // lanes, so a state!=0 lane here means recovery was skipped or lost.
  for (unsigned l = 0; l < kLanes; ++l) {
    const auto lh = ns_.load_pod<Tx::LaneHeader>(ctx, lane_off(l));
    if (lh.state != 0)
      return "lane " + std::to_string(l) + ": not idle after recovery";
  }

  // Free list: every chunk passes chunk_error(), which keeps the list
  // address-ordered (so acyclic and non-overlapping) and coalesced.
  std::uint64_t prev_end = 0;
  for (std::uint64_t cur = h.free_head; cur != 0;) {
    FreeChunk chunk{};
    if (std::string err = chunk_error(ctx, h, prev_end, cur, chunk);
        !err.empty())
      return err;
    prev_end = cur + chunk.size;
    cur = chunk.next;
  }
  return "";
}

std::uint64_t Pool::root(ThreadCtx& ctx) { return read_header(ctx).root_off; }

std::uint64_t Pool::root_size(ThreadCtx& ctx) {
  return read_header(ctx).root_size;
}

std::uint64_t Pool::heap_top(ThreadCtx& ctx) {
  return read_header(ctx).heap_top;
}

std::uint64_t Pool::tx_alloc(Tx& tx, std::uint64_t size) {
  assert(tx.active());
  ThreadCtx& ctx = tx.ctx_;
  size = std::max<std::uint64_t>((size + 63) / 64 * 64, 64);

  // First-fit walk of the free list (lowest address first).
  Header h = read_header(ctx);
  std::uint64_t prev = 0;  // 0 = head pointer in the header
  std::uint64_t cur = h.free_head;
  while (cur != 0) {
    const FreeChunk chunk = ns_.load_pod<FreeChunk>(ctx, cur);
    if (chunk.size >= size) {
      // Snapshot the chunk's {next, size} header first: the caller will
      // overwrite the allocation with raw (non-undo-logged) stores, and a
      // rollback relinks this chunk into the free list — its header must
      // be restored or the list is corrupted.
      tx.add(cur, sizeof(FreeChunk));
      // Unlink. (Exact fit or carve the tail; keep the head as the
      // allocation so the remainder stays linked in place.)
      if (chunk.size >= size + 64) {
        const std::uint64_t rest = cur + size;
        tx.add(rest, sizeof(FreeChunk));
        FreeChunk rest_chunk{chunk.next, chunk.size - size};
        tx.store(rest, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(&rest_chunk),
                           sizeof(rest_chunk)));
        relink(tx, prev, rest);
      } else {
        relink(tx, prev, chunk.next);
      }
      return cur;
    }
    prev = cur;
    cur = chunk.next;
  }

  // Bump allocation.
  assert(h.heap_top + size <= h.pool_size);
  const std::uint64_t off = h.heap_top;
  tx.add(offsetof(Header, heap_top), sizeof(std::uint64_t));
  const std::uint64_t new_top = off + size;
  tx.store(offsetof(Header, heap_top),
           std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(&new_top),
               sizeof(new_top)));
  return off;
}

void Pool::tx_free(Tx& tx, std::uint64_t off, std::uint64_t size) {
  assert(tx.active());
  tx.frees_.emplace_back(off,
                         std::max<std::uint64_t>((size + 63) / 64 * 64, 64));
}

void Pool::link_free(Tx& tx, std::uint64_t off, std::uint64_t size) {
  ThreadCtx& ctx = tx.ctx_;
  const Header h = read_header(ctx);
  // The chunks either side of `off`: `before` (last below it, `b` its
  // header, `link` the chunk pointing at it) and `after` (first above).
  std::uint64_t link = 0, before = 0, after = h.free_head;
  FreeChunk b{};
  while (after != 0 && after < off) {
    link = before;
    before = after;
    b = ns_.load_pod<FreeChunk>(ctx, before);
    after = b.next;
  }
  std::uint64_t next = after;
  if (after != 0 && off + size == after) {  // absorb `after`
    const FreeChunk a = ns_.load_pod<FreeChunk>(ctx, after);
    size += a.size;
    next = a.next;
  }
  const bool join = before != 0 && before + b.size == off;
  if (join) {  // grow `before` over it
    off = before;
    size += b.size;
  }
  auto set = [&tx](std::uint64_t at, std::uint64_t v) {
    tx.add(at, sizeof v);
    tx.store(at, bytes_of(&v, sizeof v));
  };

  // Unlink before shrinking the heap or growing `before`, so no prefix of
  // these stores leaves a chunk past heap_top or two chunks overlapping.
  if (off + size == h.heap_top) {  // back to the bump allocator
    if (join) relink(tx, link, next);
    else if (next != after) relink(tx, before, next);
    set(offsetof(Header, heap_top), off);
    return;
  }
  if (join) {
    if (next != after) relink(tx, before, next);
    set(off + offsetof(FreeChunk, size), size);
    return;
  }
  const FreeChunk chunk{next, size};
  tx.add(off, sizeof chunk);
  tx.store(off, bytes_of(&chunk, sizeof chunk));
  relink(tx, before, off);
}

void Pool::relink(Tx& tx, std::uint64_t prev, std::uint64_t next) {
  const std::uint64_t target =
      prev == 0 ? offsetof(Header, free_head)
                : prev + offsetof(FreeChunk, next);
  tx.add(target, sizeof(std::uint64_t));
  tx.store(target, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&next),
                       sizeof(next)));
}

std::uint64_t Pool::alloc_raw(ThreadCtx& ctx, std::uint64_t size) {
  size = std::max<std::uint64_t>((size + 63) / 64 * 64, 64);
  Header h = read_header(ctx);
  assert(h.heap_top + size <= h.pool_size);
  const std::uint64_t off = h.heap_top;
  write_header_field(ctx, offsetof(Header, heap_top), off + size);
  return off;
}

// ----------------------------------------------------------------- Tx ----

Tx::Tx(Pool& pool, ThreadCtx& ctx)
    : pool_(pool), ctx_(ctx), lane_(ctx.id() % Pool::kLanes),
      base_(pool.lane_off(lane_)) {
  // Lane admission: threads mapping to distinct lanes proceed
  // independently, which is exactly the interleaving the schedule
  // explorer wants to perturb.
  ctx.sched_point(sim::SchedPoint::kLaneAcquire);
  hdr_ = LaneHeader{1, 0, 0};
  store_persist_pod(ctx_, pool_.ns_, base_, hdr_);
  active_ = true;
}

Tx::~Tx() {
  if (!active_) return;
  try {
    abort();
  } catch (const hw::MediaError&) {
    // Rollback hit bad media mid-unwind; never throw from a destructor.
    // The lane stays active and the next open() finishes (or abandons)
    // the rollback with its scrub-and-retry machinery.
    active_ = false;
  }
}

void Tx::add(std::uint64_t off, std::uint32_t len) {
  assert(active_);
  assert(hdr_.nentries < kMaxEntries);
  assert(base_ + kBlobOff + hdr_.blob_top + len <= base_ + Pool::kLaneSize);

  // Snapshot old contents into the blob, persist blob + entry, and only
  // then bump nentries: a crash mid-append leaves the entry invisible.
  std::vector<std::uint8_t> old(len);
  pool_.ns_.load(ctx_, off, old);
  const std::uint64_t blob_at = base_ + kBlobOff + hdr_.blob_top;
  pool_.ns_.ntstore(ctx_, blob_at, old);

  Entry e{off, len, static_cast<std::uint32_t>(hdr_.blob_top)};
  const std::uint64_t entry_at =
      base_ + kEntriesOff + hdr_.nentries * sizeof(Entry);
  pool_.ns_.ntstore(ctx_, entry_at,
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&e), sizeof(e)));
  pool_.ns_.sfence(ctx_);

  hdr_.blob_top += (len + 7) / 8 * 8;
  hdr_.nentries += 1;
  store_persist_pod(ctx_, pool_.ns_, base_, hdr_);
}

void Tx::store(std::uint64_t off, std::span<const std::uint8_t> data) {
  assert(active_);
  pool_.ns_.store_flush(ctx_, off, data);
}

void Tx::commit() {
  assert(active_);
  // The transaction's frees join the free list only now, so none of its
  // allocations landed on them.
  for (const auto& [off, size] : frees_) pool_.link_free(*this, off, size);
  frees_.clear();
  // User stores were flushed as they were made; one fence makes them
  // durable, then retiring the lane (state 0) makes the commit atomic.
  pool_.ns_.sfence(ctx_);
  hdr_ = LaneHeader{0, 0, 0};
  if (pool_.test_fault_ == Pool::TestFault::kSkipCommitFlush) {
    // Deliberate bug for negative crash tests: the lane-retire store is
    // never flushed, so a crash can lose it and recovery rolls back an
    // acknowledged transaction.
    pool_.ns_.store(ctx_, base_,
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&hdr_),
                        sizeof(hdr_)));
    pool_.ns_.sfence(ctx_);
  } else {
    store_persist_pod(ctx_, pool_.ns_, base_, hdr_);
  }
  active_ = false;
  ctx_.sched_point(sim::SchedPoint::kLaneRelease);
}

void Tx::abort() {
  assert(active_);
  frees_.clear();
  // Roll back in reverse order.
  for (std::uint32_t i = hdr_.nentries; i-- > 0;) {
    const Entry e = pool_.ns_.load_pod<Entry>(
        ctx_, base_ + kEntriesOff + i * sizeof(Entry));
    std::vector<std::uint8_t> old(e.len);
    pool_.ns_.load(ctx_, base_ + kBlobOff + e.blob_off, old);
    pool_.ns_.store_flush(ctx_, e.off, old);
  }
  pool_.ns_.sfence(ctx_);
  hdr_ = LaneHeader{0, 0, 0};
  store_persist_pod(ctx_, pool_.ns_, base_, hdr_);
  active_ = false;
}

void Tx::recover(Pool& pool, ThreadCtx& ctx, std::uint64_t lane_base) {
  const auto hdr = pool.ns_.load_pod<LaneHeader>(ctx, lane_base);
  if (hdr.state != 1) return;

  // Stage 1: read the whole undo log up front. A MediaError here means
  // the log itself is unreadable — it propagates to open(), which scrubs
  // the lane and forces it idle without a partial rollback (mixing
  // rolled-back and not-rolled-back stores is worse than abandoning an
  // unacknowledged transaction whole).
  struct Pending {
    std::uint64_t off;
    std::vector<std::uint8_t> old;
  };
  std::vector<Pending> log(hdr.nentries);
  for (std::uint32_t i = 0; i < hdr.nentries; ++i) {
    const Entry e = pool.ns_.load_pod<Entry>(
        ctx, lane_base + kEntriesOff + i * sizeof(Entry));
    log[i].off = e.off;
    log[i].old.resize(e.len);
    pool.ns_.load(ctx, lane_base + kBlobOff + e.blob_off, log[i].old);
  }

  // Stage 2: apply snapshots in reverse. A rollback *target* line may be
  // poisoned — the RFO throws — so scrub it and retry: rewriting the
  // historical snapshot over a zeroed line fabricates nothing.
  for (std::uint32_t i = hdr.nentries; i-- > 0;) {
    const int max_attempts =
        static_cast<int>(log[i].old.size() / hw::Platform::kXpLineBytes) + 2;
    for (int attempt = 0;; ++attempt) {
      try {
        pool.ns_.store_flush(ctx, log[i].off, log[i].old);
        break;
      } catch (const hw::MediaError& me) {
        if (attempt >= max_attempts) throw;
        pool.scrub_line(ctx, me.line_off);
      }
    }
  }
  pool.ns_.sfence(ctx);
  store_persist_pod(ctx, pool.ns_, lane_base, LaneHeader{0, 0, 0});
}

}  // namespace xp::pmem
