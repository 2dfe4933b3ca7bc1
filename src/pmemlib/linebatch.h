// Software write-combining for persistent appends (paper §5.2, Fig 15).
//
// The XP DIMM's combining buffer only merges stores that arrive close
// together in its 16-slot window; a store stream that dribbles sub-XPLine
// records with a fence after each one defeats it, paying a full 256 B
// media write (or an RMW) per small record. A LineBatcher coalesces the
// records in DRAM first and emits them as one contiguous burst, so the
// device sees full 256 B XPLines except at the two batch edges and the
// caller pays one drain fence per *batch* instead of one per record.
//
// Usage:
//   batcher.reset(off);             // batch starts at namespace offset
//   batcher.append(bytes); ...      // stage records back to back
//   batcher.commit(ctx, ns, hold);  // publish: everything after the
//                                   // first `hold` bytes, fence, then
//                                   // the held-back commit word
//
// `commit(hold)` implements the standard log-publish protocol: the first
// `hold` bytes (the record's magic/tag word) are written only after the
// fence that makes the rest durable, so a torn batch is invisible to
// recovery — it atomically appears whole or not at all. `flush` is the
// plain variant for callers that order durability themselves.
//
// `publish_record` is the same protocol for a log that appends one record
// at a time (the lsmkv WAL's per-record append, a novafs log entry): a
// zero commit word past the record, the record's body, one fence, then
// its commit word. Group commit and per-record publish are the two ways
// the stores make an append durable; both live here so each store's log
// keeps only its record format.
//
// The staging buffer is a reused member (capacity sticks across
// batches): steady-state appends allocate nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "pmemlib/pmem_ops.h"

namespace xp::pmem {

class LineBatcher {
 public:
  // Start a new batch at namespace offset `off`. Keeps the buffer
  // capacity from previous batches.
  void reset(std::uint64_t off) {
    base_ = off;
    buf_.clear();
  }

  // Stage `data` at the current cursor; returns the batch-relative
  // offset it was staged at.
  std::size_t append(std::span<const std::uint8_t> data) {
    const std::size_t at = buf_.size();
    buf_.insert(buf_.end(), data.begin(), data.end());
    return at;
  }

  template <typename T>
  std::size_t append_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return append(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)));
  }

  // Reserve `n` zero bytes (e.g. alignment padding inside a batch).
  std::size_t append_zeros(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(buf_.size() + n, 0);
    return at;
  }

  // Staged bytes are patchable until the batch is written (checksums,
  // back-pointers).
  std::uint8_t* data() { return buf_.data(); }
  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  std::uint64_t base() const { return base_; }
  // Namespace offset one past the staged bytes.
  std::uint64_t cursor() const { return base_ + buf_.size(); }

  // Write the whole batch (no fence; callers order durability).
  void flush(ThreadCtx& ctx, PmemNamespace& ns,
             WriteHint hint = WriteHint::kAuto) {
    if (!buf_.empty()) memcpy_flush(ctx, ns, base_, buf_, hint);
  }

  // Publish the batch: bytes [hold, size) first, one fence, then the
  // held-back prefix [0, hold). No trailing fence — the caller decides
  // when the commit word itself must be durable (usually its next
  // sfence/sync). `hold` = 0 degenerates to flush + fence.
  void commit(ThreadCtx& ctx, PmemNamespace& ns, std::size_t hold = 0,
              WriteHint hint = WriteHint::kAuto) {
    assert(hold <= buf_.size());
    // Batch publication is an atomicity-critical window (payload before
    // commit word): a preemption here is exactly where a racing reader or
    // a crash would land, so announce it to the schedule explorer.
    ctx.sched_point(sim::SchedPoint::kBatchCommit);
    if (buf_.size() > hold)
      memcpy_flush(ctx, ns, base_ + hold,
                   std::span<const std::uint8_t>(buf_.data() + hold,
                                                 buf_.size() - hold),
                   hint);
    ns.sfence(ctx);
    if (hold > 0)
      memcpy_flush(ctx, ns, base_,
                   std::span<const std::uint8_t>(buf_.data(), hold), hint);
  }

  // Publish the one record staged in the batch: a zero commit word just
  // past it, then its bytes [4, size), one fence, and its own 4-byte
  // commit word last. A recovery scan stops at the first word that is not
  // a commit word, so a torn record is invisible and the scan never runs
  // past the record into stale bytes. No trailing fence, as for commit(),
  // and no schedule point: the per-record paths are not batch windows.
  void publish_record(ThreadCtx& ctx, PmemNamespace& ns, WriteHint hint) {
    assert(buf_.size() > 4);
    const std::uint32_t zero = 0;
    memcpy_flush(ctx, ns, cursor(),
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(&zero), 4),
                 hint);
    memcpy_flush(ctx, ns, base_ + 4,
                 std::span<const std::uint8_t>(buf_.data() + 4,
                                               buf_.size() - 4),
                 hint);
    ns.sfence(ctx);
    memcpy_flush(ctx, ns, base_,
                 std::span<const std::uint8_t>(buf_.data(), 4), hint);
  }

 private:
  std::uint64_t base_ = 0;
  std::vector<std::uint8_t> buf_;
};

}  // namespace xp::pmem
