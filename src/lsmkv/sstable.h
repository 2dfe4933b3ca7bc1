// Sorted string table: the immutable on-pmem run format.
//
// Layout at `off`:
//   {u64 magic, u32 count, u32 total_bytes, u32 filter_len, u32 pad}
//   bloom filter bytes (kv::BloomBuilder, ~10 bits/key)
//   u32 entry_offsets[count]              (relative to the data area)
//   entries: {u32 klen, u32 vlen|tomb, key bytes, value bytes}
//
// Built with a single large sequential non-temporal write (guideline #2);
// point lookups consult the bloom filter first (absent keys skip the
// whole run), then binary-search the offset array with timed loads,
// giving realistic read amplification. Sequential reads go through one
// routine, the Cursor: a range scan seeks it to its start key and stops
// it after the rows it needs, compaction merges whole tables through
// cursors seeked to "", and check() walks each table with one. The
// cursor streams whole XPLines (guideline #1): each line under an entry
// is loaded once, and the next entry in a loaded line costs no device
// access.
//
// Every reader holds an entry to its table: lengths that run past the
// header's total_bytes, or a walk that does not end exactly there, throw
// hw::MediaError, as a header without the magic does. get_ex holds each
// probed entry to the offset array too: its lengths must end exactly
// where the next entry starts (total_bytes for the last), which catches
// a damaged length that stays inside the table. The stock get and the
// cursor's seek do not: they read offsets from PM, so the same check
// would cost them one more timed load per probe and move the stock
// baselines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lsmkv/memtable.h"  // FindResult
#include "pmemlib/linereader.h"
#include "sim/status.h"
#include "xpsim/platform.h"

namespace xp::kv {

class SsTable {
 public:
  static constexpr std::uint64_t kMagic = 0x585053535441424cULL;

  struct Entry {
    std::string key;
    std::string value;
    bool tombstone = false;
  };

  // DRAM residency of a table's read-path metadata (§5.1): the bloom
  // filter and offset array, which every point lookup consults, kept in
  // host memory so gets stop re-loading them from PM. Built for free from
  // the staging buffer at build() time, or loaded once from PM at open.
  struct Residency {
    std::uint32_t count = 0;
    std::uint32_t total_bytes = 0;  // the table's end, for the entry bound
    std::vector<std::uint8_t> filter;
    std::vector<std::uint32_t> offsets;
  };

  // Serialized size of `entries` (for allocation).
  static std::uint64_t encoded_size(const std::vector<Entry>& entries);

  // Serialize sorted `entries` to ns[off..]; returns bytes written.
  // `scratch` (optional) is the staging buffer to reuse across builds —
  // every byte of it is rewritten, so callers can hand in the same
  // vector repeatedly and skip the per-build heap allocation.
  // `residency` (optional) is filled from the staged bytes — no extra PM
  // traffic.
  static std::uint64_t build(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off,
                             const std::vector<Entry>& entries,
                             std::vector<std::uint8_t>* scratch = nullptr,
                             Residency* residency = nullptr);

  // One-time timed load of a table's residency metadata (open/recovery
  // path): three bulk loads instead of the per-get dribble.
  static Residency load_residency(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off);

  // `keybuf` (optional) is reused for the probe key on every binary-search
  // step, replacing a fresh heap-allocated std::string per probe. Host-side
  // only: the timed load sequence is unchanged.
  static FindResult get(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::string_view key,
                        std::string* value, std::string* keybuf = nullptr);

  // get() with the read-path accelerators (DbOptions::read_combine): the
  // bloom filter and offset array come from the table's DRAM residency,
  // and each probe fetches whole XPLines through `reader`. Returns
  // exactly what get() returns for any table and key; only the PM access
  // pattern differs.
  static FindResult get_ex(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                           std::uint64_t off, std::string_view key,
                           std::string* value, const Residency& res,
                           pmem::LineReader& reader);

  // Re-reads the whole table and verifies its content CRC (stored in the
  // header at build time). Distinguishes unreadable media (kMediaError)
  // from readable-but-wrong bytes (kCorruption).
  static Status verify_checksum(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                std::uint64_t off);

  static std::uint32_t count(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off);
  static std::uint64_t size_bytes(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off);

  // Forward iteration from the first entry whose key is >= `start`. The
  // constructor loads the header and, for a non-empty start, binary-
  // searches the offset array with the timed loads a stock probe issues
  // (offset word, key length, key bytes); "" sorts before every key, so
  // it starts at entry 0 with no search. From there each entry is read
  // through the cursor's own LineReader one XPLine at a time: every line
  // the entry covers is staged whole, once, so the next entry in a staged
  // line costs no device access, and next() steps by the entry's own
  // lengths instead of loading its offset word. Nothing past the current
  // entry's last line is read, so a scan that stops after n rows never
  // loads (or faults on) a line that lies wholly beyond them.
  class Cursor {
   public:
    Cursor(sim::ThreadCtx& ctx, hw::PmemNamespace& ns, std::uint64_t off,
           std::string_view start);

    bool valid() const { return i_ < count_; }
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }
    bool tombstone() const { return tombstone_; }
    void next(sim::ThreadCtx& ctx);

   private:
    void load_entry(sim::ThreadCtx& ctx);
    void copy(sim::ThreadCtx& ctx, std::uint64_t at, std::size_t n,
              void* out);

    hw::PmemNamespace* ns_;
    pmem::LineReader reader_;
    std::uint64_t next_ = 0;  // where the entry after the current one starts
    std::uint64_t end_ = 0;   // the table's end
    std::uint32_t count_ = 0;
    std::uint32_t i_ = 0;
    std::string key_;
    std::string value_;
    bool tombstone_ = false;
  };

 private:
  struct Header {
    std::uint64_t magic;
    std::uint32_t count;
    std::uint32_t total_bytes;
    std::uint32_t filter_len;
    std::uint32_t crc;  // CRC32C over everything after the header
  };
  // The header of the table at `off`, for a read that needs a valid one.
  // A header without the magic is what a salvage scrub of a poisoned line
  // leaves (zeros), so it throws hw::MediaError for the header's XPLine:
  // the caller's containment fails the op and repair() quarantines the
  // table, where an assert would end the process. So does a header whose
  // filter and offset array overrun its total_bytes, or whose table
  // overruns the namespace.
  static Header load_header(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                            std::uint64_t off);
  static constexpr std::uint32_t kTombstoneBit = 0x80000000u;
};

}  // namespace xp::kv
