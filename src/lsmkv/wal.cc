#include "lsmkv/wal.h"

#include <cassert>
#include <cstring>

#include "sim/crc32.h"

namespace xp::kv {

void Wal::encode(const WalRecord& r) {
  assert(r.key.size() < 0x10000);
  const std::uint32_t tag =
      kTagMagic | static_cast<std::uint32_t>(r.key.size());
  const std::uint32_t vlen = static_cast<std::uint32_t>(r.value.size()) |
                             (r.tombstone ? kTombstoneBit : 0);
  const std::size_t hdr_len = opts_.wal_checksum ? 12 : 8;
  const std::size_t at = batch_.append_pod(tag);
  batch_.append_pod(vlen);
  if (opts_.wal_checksum) batch_.append_zeros(4);
  batch_.append(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(r.key.data()), r.key.size()));
  if (!r.value.empty())  // tombstones carry a null, zero-length value view
    batch_.append(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(r.value.data()),
        r.value.size()));
  if (opts_.wal_checksum) {
    std::uint32_t crc = sim::crc32c(batch_.data() + at, 8);
    crc = sim::crc32c(batch_.data() + at + hdr_len,
                      batch_.size() - at - hdr_len, crc);
    std::memcpy(batch_.data() + at + 8, &crc, 4);
  }
}

void Wal::append(ThreadCtx& ctx, std::string_view key, std::string_view value,
                 bool tombstone) {
  if (mode_ == WalMode::kPosix) ctx.advance_by(kSyscall);

  batch_.reset(base_ + tail_);
  encode({key, value, tombstone});
  const std::size_t rec_len = batch_.size();
  assert(tail_ + rec_len + 8 <= capacity_ && "WAL full; truncate first");
  // The terminator after the record, then the payload, then the tag makes
  // the record valid, so recovery can never run past the true tail into
  // stale bytes from a previous log epoch. kPosix is the kernel's write
  // path (cached stores + flushes: the page-cache copy on a DAX fs goes
  // through the CPU cache); FLEX appends from user space with ntstores.
  batch_.publish_record(ctx, ns_,
                        mode_ == WalMode::kPosix ? pmem::WriteHint::kCached
                                                 : pmem::WriteHint::kNt);

  tail_ += rec_len;
  sync(ctx);
}

void Wal::append_group(ThreadCtx& ctx, std::span<const WalRecord> recs) {
  if (recs.empty()) return;

  // One gathered write() syscall for the whole group in kPosix mode.
  if (mode_ == WalMode::kPosix) ctx.advance_by(kSyscall);

  // Stage the whole group contiguously: [rec 1 | rec 2 | ... | rec N |
  // u32 0 terminator]. The records keep the exact per-record format, so
  // replay() needs no changes and mixed per-record/group logs replay
  // fine.
  batch_.reset(base_ + tail_);
  for (const WalRecord& r : recs) encode(r);
  const std::uint32_t zero = 0;
  batch_.append_pod(zero);  // terminator for the whole group
  assert(tail_ + batch_.size() + 4 <= capacity_ && "WAL full; truncate first");

  // Crash-atomic publish: everything after the first record's tag —
  // its body, all later records whole, and the terminator — is persisted
  // by one burst + fence; then the first tag makes the group visible.
  // Replay stops at that tag while it is still the old terminator, so a
  // torn group is invisible.
  batch_.commit(ctx, ns_, /*hold=*/4,
                mode_ == WalMode::kPosix ? pmem::WriteHint::kCached
                                         : pmem::WriteHint::kAuto);

  tail_ += batch_.size() - 4;  // minus the terminator
  sync(ctx);
}

void Wal::sync(ThreadCtx& ctx) {
  if (mode_ == WalMode::kPosix) ctx.advance_by(kFsyncSyscall);
  ns_.sfence(ctx);
}

void Wal::truncate(ThreadCtx& ctx) {
  pmem::store_persist_pod(ctx, ns_, base_, std::uint32_t{0});
  tail_ = 0;
}

Wal::ReplayResult Wal::replay(ThreadCtx& ctx, const ReplayFn& fn) {
  const std::uint64_t hdr_len = opts_.wal_checksum ? 12 : 8;
  ReplayResult r;
  std::uint64_t pos = 0;
  try {
    while (pos + hdr_len <= capacity_) {
      const auto tag = ns_.load_pod<std::uint32_t>(ctx, base_ + pos);
      if ((tag & 0xFFFF0000u) != kTagMagic) break;
      const std::uint32_t klen = tag & 0xFFFFu;
      const auto vraw = ns_.load_pod<std::uint32_t>(ctx, base_ + pos + 4);
      const bool tombstone = (vraw & kTombstoneBit) != 0;
      const std::uint32_t vlen = vraw & ~kTombstoneBit;
      if (pos + hdr_len + klen + vlen > capacity_) break;
      std::string key(klen, '\0');
      std::string value(vlen, '\0');
      ns_.load(ctx, base_ + pos + hdr_len,
               std::span<std::uint8_t>(
                   reinterpret_cast<std::uint8_t*>(key.data()), klen));
      ns_.load(ctx, base_ + pos + hdr_len + klen,
               std::span<std::uint8_t>(
                   reinterpret_cast<std::uint8_t*>(value.data()), vlen));
      if (opts_.wal_checksum) {
        const auto stored =
            ns_.load_pod<std::uint32_t>(ctx, base_ + pos + 8);
        std::uint32_t crc = sim::crc32c(&tag, 4);
        crc = sim::crc32c(&vraw, 4, crc);
        crc = sim::crc32c(key.data(), klen, crc);
        crc = sim::crc32c(value.data(), vlen, crc);
        if (crc != stored) {
          r.damaged = true;
          r.damage_off = pos;
          r.reason = "wal: record crc mismatch at +" + std::to_string(pos);
          break;
        }
      }
      fn(key, value, tombstone);
      pos += hdr_len + klen + vlen;
      ++r.records;
    }
  } catch (const hw::MediaError& e) {
    r.damaged = true;
    r.damage_off = pos;
    r.reason = e.what();
  }
  tail_ = pos;
  return r;
}

}  // namespace xp::kv
