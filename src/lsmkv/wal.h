// Write-ahead log with the two placement strategies from paper §4.2.
//
// kPosix models RocksDB's stock WAL on a DAX file system: every append is
// a write() syscall (user/kernel crossing + a kernel-buffer copy done
// with cached stores) and durability needs an fsync() syscall. kFlex
// models the FLEX optimization [59]: the log file is mapped, appends are
// user-space non-temporal stores, and durability is a single sfence.
// Either way the log is strictly sequential — which is why it runs at
// EWR ~1.0 on the XP DIMM and wins over fine-grained persistence there.
//
// Record format: [u32 tag | u32 vlen | key bytes | value bytes], where
// tag = kTagMagic | klen (klen < 64 Ki). vlen's top bit marks tombstones.
// With DbOptions::wal_checksum a u32 CRC32C (over tag+vlen+key+value) sits
// between vlen and the key. The payload is persisted before the tag, so a
// torn append is invisible to recovery; a checksum mismatch or an
// uncorrectable media error stops replay at the damage point and is
// reported to the caller instead of feeding garbage into the memtable.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "lsmkv/common.h"
#include "pmemlib/linebatch.h"
#include "xpsim/platform.h"

namespace xp::kv {

using hw::PmemNamespace;
using sim::ThreadCtx;

// One record of a group append (views must outlive the call).
struct WalRecord {
  std::string_view key;
  std::string_view value;
  bool tombstone = false;
};

class Wal {
 public:
  static constexpr std::uint32_t kTagMagic = 0xA5A50000u;
  static constexpr std::uint32_t kTombstoneBit = 0x80000000u;

  // The WAL owns [base, base+capacity) of `ns`.
  Wal(PmemNamespace& ns, std::uint64_t base, std::uint64_t capacity,
      WalMode mode, const DbOptions& opts)
      : ns_(ns), base_(base), capacity_(capacity), mode_(mode), opts_(opts) {}

  // Append a record and make it durable.
  void append(ThreadCtx& ctx, std::string_view key, std::string_view value,
              bool tombstone);

  // Group commit (§5.1/§5.2): append `recs` as one contiguous burst with
  // a single terminator and one fence for the whole group. The group is
  // crash-atomic — the first record's tag is written only after the fence
  // that makes every body, every later tag and the terminator durable, so
  // replay sees all of the group or none of it. One syscall charge (a
  // gathered write()) in kPosix mode. Durable on return.
  void append_group(ThreadCtx& ctx, std::span<const WalRecord> recs);

  // Reset the log after a memtable flush (records before `tail_` become
  // dead). Writes a fresh terminator at the start.
  void truncate(ThreadCtx& ctx);

  // Replay every intact record from the start, in order. Stops (with
  // damaged=true) at the first record whose media is unreadable or whose
  // checksum fails; records already delivered to `fn` stay delivered.
  using ReplayFn = std::function<void(std::string_view key,
                                      std::string_view value,
                                      bool tombstone)>;
  struct ReplayResult {
    std::uint64_t records = 0;
    bool damaged = false;
    std::uint64_t damage_off = 0;  // relative to base, where replay stopped
    std::string reason;
  };
  ReplayResult replay(ThreadCtx& ctx, const ReplayFn& fn);

  std::uint64_t base() const { return base_; }
  std::uint64_t capacity() const { return capacity_; }

  std::uint64_t tail() const { return tail_; }
  WalMode mode() const { return mode_; }

 private:
  // The durability step that ends every append: fsync() in kPosix mode,
  // then a fence.
  void sync(ThreadCtx& ctx);
  // Stage `r` in its record format at the end of batch_: the one encoder
  // append() and append_group() share.
  void encode(const WalRecord& r);

  PmemNamespace& ns_;
  std::uint64_t base_;
  std::uint64_t capacity_;
  WalMode mode_;
  const DbOptions& opts_;
  std::uint64_t tail_ = 0;  // next append offset, relative to base_
  // Reused staging memory for both append paths, so steady-state appends
  // do no heap allocation.
  pmem::LineBatcher batch_;
};

}  // namespace xp::kv
