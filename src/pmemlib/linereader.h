// XPLine-granular read combining (paper §5.1, Fig 7) — the read twin of
// linebatch.h.
//
// The XP media serves reads in 256 B XPLines: a binary-search probe that
// issues three dependent sub-64 B loads (offset word, key length, key
// bytes) drags up to three full media lines across the DDR-T interface to
// deliver a couple dozen bytes. A LineReader fetches the XPLine-aligned
// span covering a requested range in ONE load call, stages it in DRAM,
// and slices every field that lands in the span out of the staging buffer
// for free — the device sees one line-aligned burst instead of a dribble
// of tiny reads.
//
// Usage:
//   const auto* p = reader.fetch(ctx, ns, off, len);   // staged bytes
//   auto hdr = reader.fetch_pod<Header>(ctx, ns, off); // typed slice
//   reader.fetch(ctx, ns, off, len, window);           // stage `window`
//                                                      // bytes for a scan
//
// A fetch inside the currently staged span is served from DRAM with no PM
// traffic at all; `window` lets sequential scanners (novafs log replay)
// stage a whole page's worth of lines up front and then walk it entry by
// entry. With a ReadCache attached, staged lines come from / are
// installed into the cache, so hot lines skip the device entirely.
//
// Staleness discipline: the staging buffer is NOT write-invalidated (the
// ReadCache is, via StoreObserver). Any store-side mutation path must
// call discard() before the next fetch, exactly as the write side resets
// its LineBatcher per batch. Returned pointers are valid only until the
// next fetch()/discard().
//
// Fault semantics are preserved: a fetch stages only the XPLines that
// cover the requested range (plus the caller-chosen window), and a timed
// read of any poisoned byte in those lines throws MediaError exactly as
// the uncombined loads would have.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "pmemlib/readcache.h"
#include "xpsim/platform.h"

namespace xp::pmem {

class LineReader {
 public:
  static constexpr std::uint64_t kLine = hw::Platform::kXpLineBytes;

  struct Stats {
    std::uint64_t combined_fetches = 0;  // fetches that touched PM
    std::uint64_t staged_serves = 0;     // fetches served from staging
    std::uint64_t pm_bytes = 0;          // bytes loaded from the device
  };

  // Optional DRAM line cache consulted before, and filled after, every PM
  // fetch. Not owned.
  void attach_cache(ReadCache* c) { cache_ = c; }
  ReadCache* cache() const { return cache_; }

  // Ensure [off, off+len) is staged and return a pointer to the first
  // requested byte. `window` >= len extends the staged span to
  // [off, off+window) (clamped to the namespace end) so later fetches in
  // the window are free. Pointer valid until the next fetch()/discard().
  const std::uint8_t* fetch(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                            std::uint64_t off, std::size_t len,
                            std::size_t window = 0) {
    assert(off + len <= ns.size());
    if (len_ != 0 && off >= base_ && off + len <= base_ + len_) {
      ++stats_.staged_serves;
      if (hw::TelemetrySink* sink = ns.platform().telemetry())
        sink->read_path(hw::ReadPathEventKind::kStagedServe, ctx.now(), len);
      return buf_.data() + (off - base_);
    }
    const std::uint64_t lo = off / kLine * kLine;
    const std::uint64_t hi = std::min<std::uint64_t>(
        (off + std::max<std::size_t>(len, window) + kLine - 1) / kLine * kLine,
        ns.size());
    len_ = 0;  // staging invalid until the fetch completes (MediaError)
    buf_.resize(hi - lo);

    std::uint64_t run = lo;  // start of the current not-yet-loaded run
    std::uint64_t pm_bytes = 0;
    for (std::uint64_t line = lo; line < hi; line += kLine) {
      const bool full = line + kLine <= hi;
      if (cache_ != nullptr && full &&
          cache_->lookup(ctx, line, buf_.data() + (line - lo))) {
        pm_bytes += load_run(ctx, ns, lo, run, line);
        run = line + kLine;
      }
    }
    pm_bytes += load_run(ctx, ns, lo, run, hi);
    if (pm_bytes > 0) {
      ++stats_.combined_fetches;
      stats_.pm_bytes += pm_bytes;
      if (hw::TelemetrySink* sink = ns.platform().telemetry())
        sink->read_path(hw::ReadPathEventKind::kCombinedFetch, ctx.now(),
                        pm_bytes);
    } else {
      ++stats_.staged_serves;
    }
    base_ = lo;
    len_ = hi - lo;
    return buf_.data() + (off - lo);
  }

  template <typename T>
  T fetch_pod(sim::ThreadCtx& ctx, hw::PmemNamespace& ns, std::uint64_t off,
              std::size_t window = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, fetch(ctx, ns, off, sizeof(T), window), sizeof(T));
    return v;
  }

  // Copy [off, off+out.size()) into a caller buffer through the staging
  // span (large reads still combine into line-aligned bursts).
  void read(sim::ThreadCtx& ctx, hw::PmemNamespace& ns, std::uint64_t off,
            std::span<std::uint8_t> out, std::size_t window = 0) {
    if (out.empty()) return;
    std::memcpy(out.data(), fetch(ctx, ns, off, out.size(), window),
                out.size());
  }

  // Drop the staged span. Mutation paths call this so the next fetch
  // refetches current bytes.
  void discard() { len_ = 0; }

  const Stats& stats() const { return stats_; }

 private:
  // Load the pending miss run [run, end) into the staging buffer (one
  // timed PM load), install full lines into the cache, and return the
  // number of bytes loaded.
  std::uint64_t load_run(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                         std::uint64_t lo, std::uint64_t run,
                         std::uint64_t end) {
    if (run >= end) return 0;
    // A combined fetch is one sequential line-aligned burst: the line-fill
    // buffers and prefetch streams pipeline it at streaming MLP even when
    // the issuing thread is latency-bound (mlp = 1). The data dependence a
    // low-mlp thread models lives BETWEEN probes, not within one burst —
    // that is precisely the round-trip collapse of §5.1.
    const unsigned probe_mlp = ctx.mlp();
    ctx.set_mlp(std::max(probe_mlp, ns.platform().timing().default_mlp));
    ns.load(ctx, run,
            std::span<std::uint8_t>(buf_.data() + (run - lo), end - run));
    ctx.set_mlp(probe_mlp);
    if (cache_ != nullptr) {
      for (std::uint64_t line = run; line + kLine <= end; line += kLine)
        cache_->insert(ctx, line, buf_.data() + (line - lo));
    }
    return end - run;
  }

  std::uint64_t base_ = 0;
  std::size_t len_ = 0;  // 0 = nothing staged
  std::vector<std::uint8_t> buf_;
  ReadCache* cache_ = nullptr;
  Stats stats_;
};

// The read-path state a store rebuilds at every create/open: a fresh
// LineReader and, for `cache_lines` > 0, a DRAM line cache over `ns`
// attached to it. The old cache is dropped first, as a DRAM cache
// empties on restart.
inline void reset_read_path(LineReader& reader,
                            std::unique_ptr<ReadCache>& cache,
                            hw::PmemNamespace& ns, std::size_t cache_lines) {
  reader = LineReader{};
  cache.reset();
  if (cache_lines == 0) return;
  cache = std::make_unique<ReadCache>(ns, cache_lines);
  reader.attach_cache(cache.get());
}

}  // namespace xp::pmem
