#include "lsmkv/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "lsmkv/bloom.h"
#include "pmemlib/pmem_ops.h"
#include "sim/crc32.h"

namespace xp::kv {

namespace {

// Throws hw::MediaError for the XPLine holding `off`.
[[noreturn]] void fail(hw::PmemNamespace& ns, std::uint64_t off) {
  const std::uint64_t line = off & ~(hw::Platform::kXpLineBytes - 1);
  throw hw::MediaError(ns.name(), line, ns.socket(), ns.decode(line).channel);
}

// The entry rule every reader applies: bytes [at, at + len) of the entry
// at `at` must end by the table's `end`, else fail(ns, at).
void bound(hw::PmemNamespace& ns, std::uint64_t at, std::uint64_t len,
           std::uint64_t end) {
  if (at + len > end) fail(ns, at);
}

}  // namespace

std::uint64_t SsTable::encoded_size(const std::vector<Entry>& entries) {
  BloomBuilder bloom(entries.size());
  std::uint64_t size =
      sizeof(Header) + bloom.bits().size() + entries.size() * 4;
  for (const Entry& e : entries) size += 8 + e.key.size() + e.value.size();
  return size;
}

std::uint64_t SsTable::build(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off,
                             const std::vector<Entry>& entries,
                             std::vector<std::uint8_t>* scratch,
                             Residency* residency) {
  const std::uint64_t total = encoded_size(entries);
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t>& buf = scratch != nullptr ? *scratch : local;
  buf.resize(total);  // every byte below is overwritten; stale reuse is fine

  BloomBuilder bloom(entries.size());
  for (const Entry& e : entries) bloom.add(e.key);

  Header h{kMagic, static_cast<std::uint32_t>(entries.size()),
           static_cast<std::uint32_t>(total),
           static_cast<std::uint32_t>(bloom.bits().size()), 0};
  std::memcpy(buf.data() + sizeof(Header), bloom.bits().data(),
              bloom.bits().size());

  const std::size_t offsets_at = sizeof(Header) + bloom.bits().size();
  const std::size_t data_at = offsets_at + entries.size() * 4;
  std::size_t pos = data_at;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const auto rel = static_cast<std::uint32_t>(pos - data_at);
    std::memcpy(buf.data() + offsets_at + i * 4, &rel, 4);
    const auto klen = static_cast<std::uint32_t>(e.key.size());
    const std::uint32_t vlen = static_cast<std::uint32_t>(e.value.size()) |
                               (e.tombstone ? kTombstoneBit : 0);
    std::memcpy(buf.data() + pos, &klen, 4);
    std::memcpy(buf.data() + pos + 4, &vlen, 4);
    std::memcpy(buf.data() + pos + 8, e.key.data(), e.key.size());
    std::memcpy(buf.data() + pos + 8 + e.key.size(), e.value.data(),
                e.value.size());
    pos += 8 + e.key.size() + e.value.size();
  }
  assert(pos == total);
  h.crc = sim::crc32c(buf.data() + sizeof(Header), total - sizeof(Header));
  std::memcpy(buf.data(), &h, sizeof(h));

  if (residency != nullptr) {
    residency->count = h.count;
    residency->total_bytes = h.total_bytes;
    residency->filter.assign(buf.data() + sizeof(Header),
                             buf.data() + sizeof(Header) + h.filter_len);
    residency->offsets.resize(entries.size());
    std::memcpy(residency->offsets.data(), buf.data() + offsets_at,
                entries.size() * 4);
  }

  // One big sequential non-temporal write (chunked to bound scheduler-step
  // atomicity), then a fence.
  constexpr std::size_t kChunk = 4096;
  for (std::size_t p = 0; p < total; p += kChunk) {
    const std::size_t n = std::min(kChunk, static_cast<std::size_t>(total) - p);
    ns.ntstore(ctx, off + p,
               std::span<const std::uint8_t>(buf.data() + p, n));
  }
  ns.sfence(ctx);
  return total;
}

Status SsTable::verify_checksum(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                std::uint64_t off) {
  return pmem::run_check([&]() -> std::string {
    const auto h = ns.load_pod<Header>(ctx, off);
    if (h.magic != kMagic) return "sstable: bad magic";
    if (h.total_bytes < sizeof(Header))
      return "sstable: total_bytes smaller than header";
    std::uint32_t crc = 0;
    constexpr std::size_t kChunk = 4096;
    std::vector<std::uint8_t> buf(kChunk);
    for (std::uint64_t p = sizeof(Header); p < h.total_bytes; p += kChunk) {
      const std::size_t n = std::min<std::uint64_t>(kChunk, h.total_bytes - p);
      ns.load(ctx, off + p, std::span<std::uint8_t>(buf.data(), n));
      crc = sim::crc32c(buf.data(), n, crc);
    }
    if (crc != h.crc) return "sstable: content crc mismatch";
    return "";
  });
}

std::uint32_t SsTable::count(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  return h.magic == kMagic ? h.count : 0;
}

std::uint64_t SsTable::size_bytes(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  return h.magic == kMagic ? h.total_bytes : 0;
}

SsTable::Header SsTable::load_header(sim::ThreadCtx& ctx,
                                    hw::PmemNamespace& ns,
                                    std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  if (h.magic != kMagic ||
      sizeof(Header) + std::uint64_t{h.filter_len} +
              std::uint64_t{h.count} * 4 >
          h.total_bytes ||
      off + h.total_bytes > ns.size())
    fail(ns, off);
  return h;
}

FindResult SsTable::get(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::string_view key,
                        std::string* value, std::string* keybuf) {
  const Header h = load_header(ctx, ns, off);
  // Bloom check first: absent keys skip the run with high probability.
  std::vector<std::uint8_t> filter(h.filter_len);
  if (h.filter_len > 0) ns.load(ctx, off + sizeof(Header), filter);
  if (!BloomBuilder::may_contain(filter.data(), filter.size(), key))
    return FindResult::kNotFound;
  const std::uint64_t offsets_at = off + sizeof(Header) + h.filter_len;
  const std::uint64_t data_at = offsets_at + std::uint64_t{h.count} * 4;
  const std::uint64_t end = off + h.total_bytes;

  std::string local;
  std::string& k = keybuf != nullptr ? *keybuf : local;
  std::uint32_t lo = 0, hi = h.count;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t at =
        data_at + ns.load_pod<std::uint32_t>(ctx, offsets_at + mid * 4);
    bound(ns, at, 8, end);
    const auto klen = ns.load_pod<std::uint32_t>(ctx, at);
    bound(ns, at, 8 + std::uint64_t{klen}, end);
    k.resize(klen);
    ns.load(ctx, at + 8,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(k.data()), klen));
    if (k < key) {
      lo = mid + 1;
    } else if (k > key) {
      hi = mid;
    } else {
      const auto vraw = ns.load_pod<std::uint32_t>(ctx, at + 4);
      const std::uint32_t vlen = vraw & ~kTombstoneBit;
      bound(ns, at, 8 + std::uint64_t{klen} + vlen, end);
      if (vraw & kTombstoneBit) return FindResult::kTombstone;
      if (value != nullptr) {
        value->resize(vlen);
        ns.load(ctx, at + 8 + klen,
                std::span<std::uint8_t>(
                    reinterpret_cast<std::uint8_t*>(value->data()), vlen));
      }
      return FindResult::kFound;
    }
  }
  return FindResult::kNotFound;
}

SsTable::Residency SsTable::load_residency(sim::ThreadCtx& ctx,
                                           hw::PmemNamespace& ns,
                                           std::uint64_t off) {
  const Header h = load_header(ctx, ns, off);
  Residency r;
  r.count = h.count;
  r.total_bytes = h.total_bytes;
  r.filter.resize(h.filter_len);
  if (h.filter_len > 0) ns.load(ctx, off + sizeof(Header), r.filter);
  r.offsets.resize(h.count);
  if (h.count > 0)
    ns.load(ctx, off + sizeof(Header) + h.filter_len,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(r.offsets.data()),
                std::size_t{h.count} * 4));
  return r;
}

FindResult SsTable::get_ex(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                           std::uint64_t off, std::string_view key,
                           std::string* value, const Residency& res,
                           pmem::LineReader& reader) {
  if (!BloomBuilder::may_contain(res.filter.data(), res.filter.size(), key))
    return FindResult::kNotFound;
  const std::uint64_t offsets_at = off + sizeof(Header) + res.filter.size();
  const std::uint64_t data_at = offsets_at + std::uint64_t{res.count} * 4;
  const std::uint64_t end = off + res.total_bytes;

  std::uint32_t lo = 0, hi = res.count;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t at = data_at + res.offsets[mid];
    bound(ns, at, 8, end);
    // One line-aligned fetch stages the entry header and (for the
    // expected key size) the whole probe key; klen/vraw must be copied
    // out before the next fetch invalidates the staged pointer.
    const std::uint8_t* e = reader.fetch(ctx, ns, at, 8, 8 + key.size());
    std::uint32_t klen, vraw;
    std::memcpy(&klen, e, 4);
    std::memcpy(&vraw, e + 4, 4);
    const std::uint32_t vlen = vraw & ~kTombstoneBit;
    // The entry must end where the DRAM offset array says the next one
    // starts (the table's end for the last), inside the table.
    const std::uint64_t stop =
        mid + 1 < res.count ? data_at + res.offsets[mid + 1] : end;
    if (at + 8 + std::uint64_t{klen} + vlen != stop || stop > end)
      fail(ns, at);
    const std::uint8_t* kb = reader.fetch(ctx, ns, at + 8, klen);
    const std::size_t n = std::min<std::size_t>(klen, key.size());
    int c = n == 0 ? 0 : std::memcmp(kb, key.data(), n);
    if (c == 0 && klen != key.size()) c = klen < key.size() ? -1 : 1;
    if (c < 0) {
      lo = mid + 1;
    } else if (c > 0) {
      hi = mid;
    } else {
      if (vraw & kTombstoneBit) return FindResult::kTombstone;
      if (value != nullptr) {
        value->resize(vlen);
        reader.read(ctx, ns, at + 8 + klen,
                    std::span<std::uint8_t>(
                        reinterpret_cast<std::uint8_t*>(value->data()),
                        vlen));
      }
      return FindResult::kFound;
    }
  }
  return FindResult::kNotFound;
}

SsTable::Cursor::Cursor(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::string_view start)
    : ns_(&ns) {
  const Header h = load_header(ctx, ns, off);
  const std::uint64_t offsets_at = off + sizeof(Header) + h.filter_len;
  next_ = offsets_at + std::uint64_t{h.count} * 4;  // entry 0
  end_ = off + h.total_bytes;
  count_ = h.count;
  if (!start.empty()) {
    // Lower bound: the first entry whose key is >= start. The last probe
    // that lowers hi is the entry the cursor lands on.
    const std::uint64_t data_at = next_;
    std::uint32_t hi = count_;
    while (i_ < hi) {
      const std::uint32_t mid = i_ + (hi - i_) / 2;
      const std::uint64_t at =
          data_at + ns.load_pod<std::uint32_t>(ctx, offsets_at + mid * 4);
      bound(ns, at, 8, end_);
      const auto klen = ns.load_pod<std::uint32_t>(ctx, at);
      bound(ns, at, 8 + std::uint64_t{klen}, end_);
      key_.resize(klen);
      ns.load(ctx, at + 8,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(key_.data()), klen));
      if (key_ < start) {
        i_ = mid + 1;
      } else {
        hi = mid;
        next_ = at;
      }
    }
  }
  if (valid()) load_entry(ctx);
}

void SsTable::Cursor::next(sim::ThreadCtx& ctx) {
  ++i_;
  if (valid())
    load_entry(ctx);
  else if (next_ != end_)
    fail(*ns_, next_);  // count entries must end exactly at total_bytes
}

void SsTable::Cursor::load_entry(sim::ThreadCtx& ctx) {
  const std::uint64_t at = next_;
  bound(*ns_, at, 8, end_);
  std::uint32_t len[2];  // klen, vlen | tombstone bit
  copy(ctx, at, sizeof len, len);
  const std::uint32_t vlen = len[1] & ~kTombstoneBit;
  bound(*ns_, at, 8 + std::uint64_t{len[0]} + vlen, end_);
  key_.resize(len[0]);
  value_.resize(vlen);
  copy(ctx, at + 8, len[0], key_.data());
  copy(ctx, at + 8 + len[0], vlen, value_.data());
  tombstone_ = (len[1] & kTombstoneBit) != 0;
  next_ = at + 8 + len[0] + vlen;
}

void SsTable::Cursor::copy(sim::ThreadCtx& ctx, std::uint64_t at,
                           std::size_t n, void* out) {
  // One fetch per XPLine: a fetch inside the staged line is served from
  // DRAM, and one past it stages exactly the next line.
  auto* dst = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    const std::size_t k = std::min<std::uint64_t>(
        n, pmem::LineReader::kLine - at % pmem::LineReader::kLine);
    std::memcpy(dst, reader_.fetch(ctx, *ns_, at, k), k);
    at += k;
    dst += k;
    n -= k;
  }
}

}  // namespace xp::kv
