// Low-level persistence helpers (the PMDK libpmem equivalents).
//
// Encodes the paper's §5.2 guideline directly: cached stores + clwb win
// for small transfers, non-temporal stores win for large ones (the
// crossover is ~1 KB, Fig 15); flushing right after each store keeps the
// access stream sequential at the XPBuffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sim/status.h"
#include "xpsim/platform.h"

namespace xp::pmem {

using hw::PmemNamespace;
using sim::ThreadCtx;

enum class WriteHint {
  kCached,  // store + clwb (+ fence)
  kNt,      // ntstore (+ fence)
  kAuto,    // pick by size: cached below the crossover, nt above
};

// Size at which ntstore starts beating store+clwb on the XP DIMM (§5.2.1).
inline constexpr std::size_t kNtCrossoverBytes = 1024;

// Copy `data` into persistent memory and make it durable.
inline void memcpy_persist(ThreadCtx& ctx, PmemNamespace& ns,
                           std::uint64_t off,
                           std::span<const std::uint8_t> data,
                           WriteHint hint = WriteHint::kAuto) {
  const bool use_nt =
      hint == WriteHint::kNt ||
      (hint == WriteHint::kAuto && data.size() >= kNtCrossoverBytes);
  if (use_nt) {
    ns.ntstore(ctx, off, data);
  } else {
    ns.store_flush(ctx, off, data);
  }
  ns.sfence(ctx);
}

// Same, but without the trailing fence (callers batching several writes
// issue one fence at the end).
inline void memcpy_flush(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                         std::span<const std::uint8_t> data,
                         WriteHint hint = WriteHint::kAuto) {
  const bool use_nt =
      hint == WriteHint::kNt ||
      (hint == WriteHint::kAuto && data.size() >= kNtCrossoverBytes);
  if (use_nt) {
    ns.ntstore(ctx, off, data);
  } else {
    ns.store_flush(ctx, off, data);
  }
}

// The `n` bytes at `p`, as the source of a store.
inline std::span<const std::uint8_t> bytes_of(const void* p, std::size_t n) {
  return {static_cast<const std::uint8_t*>(p), n};
}

template <typename T>
void store_persist_pod(ThreadCtx& ctx, PmemNamespace& ns, std::uint64_t off,
                       const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  ns.store_persist(ctx, off, bytes_of(&v, sizeof(T)));
}

// The one check wrapper, for every persistent structure's recovery
// checker: `check()` returns "" when the invariants hold, else what is
// broken (Corruption); a poisoned line the walk hits is a MediaFault.
template <typename Check>
Status run_check(Check check) {
  try {
    const std::string err = check();
    return err.empty() ? Status::Ok() : Status::Corruption(err);
  } catch (const hw::MediaError& e) {
    return Status::MediaFault(e.what());
  }
}

}  // namespace xp::pmem
