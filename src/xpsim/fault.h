// Media fault model: XPLine errors, poison, scrubbing (paper §2.1).
//
// Real Optane DIMMs protect the 256 B XPLine with ECC and remap worn
// lines through the AIT; when ECC cannot correct, the line is *poisoned*
// and a load of it raises a machine-check (surfaced to software as
// SIGBUS / a poisoned DAX page). Firmware exposes an Address Range Scrub
// (ARS) that walks the media and reports the bad-line list, and a full
// 256 B overwrite of a poisoned line re-establishes ECC and clears the
// poison.
//
// The simulator reproduces those semantics deterministically:
//  * a timed read (cache-line fill or RFO) of a poisoned XPLine throws
//    MediaError instead of returning data; the backing image holds
//    deterministic garbage for the line, so untimed peeks see clobber,
//    not stale valid bytes;
//  * ntstore covering an entire 256 B XPLine clears its poison;
//  * Platform::ars() reports the poisoned lines in a namespace range;
//  * FaultInjector plants faults: targeted (poison this offset), seeded
//    scatter, ECC-corrected transients, and campaign mode (arm the n-th
//    device read to fail), plus wear-out coupling (a line whose AIT
//    migration count crosses a threshold goes bad on its next write).
//
// With no injector attached nothing changes: the fault checks sit behind
// one disabled branch and every counter stays zero, so fault-free runs
// are bit-identical to a build without this subsystem.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "xpsim/platform.h"

namespace xp::hw {

class FaultInjector {
 public:
  // The injector only arms Platform state; it holds no fault state of its
  // own and may be destroyed once the faults are planted.
  FaultInjector(Platform& platform, std::uint64_t seed = 1)
      : platform_(platform), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL) {}

  // Poison the XPLine containing `off` (targeted injection).
  void poison(PmemNamespace& ns, std::uint64_t off) {
    platform_.poison_line(ns, off);
  }

  // Seeded scatter: poison `n` distinct XPLines inside [off, off+len).
  void poison_random(PmemNamespace& ns, std::uint64_t off, std::uint64_t len,
                     unsigned n) {
    const std::uint64_t lines = len / Platform::kXpLineBytes;
    for (unsigned planted = 0; planted < n && planted < lines;) {
      const std::uint64_t line =
          off / Platform::kXpLineBytes + rng_.uniform(lines);
      const std::uint64_t line_off = line * Platform::kXpLineBytes;
      if (platform_.line_poisoned(ns, line_off)) continue;
      platform_.poison_line(ns, line_off);
      ++planted;
    }
  }

  // Poison every `stride`-th live XPLine of `ns` (nonzero in the durable
  // image), up to `max_lines`, so the damage sits under stored data.
  // Returns how many lines were poisoned.
  unsigned poison_live(PmemNamespace& ns, unsigned max_lines,
                       unsigned stride = 1) {
    std::vector<std::uint8_t> img(ns.size());
    ns.peek(0, img);
    unsigned planted = 0, seen = 0;
    for (std::uint64_t off = 0; off + Platform::kXpLineBytes <= img.size() &&
                                planted < max_lines;
         off += Platform::kXpLineBytes) {
      const auto line = img.begin() + static_cast<std::ptrdiff_t>(off);
      if (std::all_of(line, line + Platform::kXpLineBytes,
                      [](std::uint8_t b) { return b == 0; }))
        continue;
      if (seen++ % stride != 0) continue;
      poison(ns, off);
      ++planted;
    }
    return planted;
  }

  // Mark the XPLine containing `off` for one ECC-corrected transient: the
  // next read succeeds normally but counts an ecc_corrected event.
  void mark_transient(PmemNamespace& ns, std::uint64_t off) {
    platform_.mark_ecc_transient(ns, off);
  }

  // Campaign mode: the n-th device read from now (n >= 1, counted across
  // every XP namespace) poisons the line it touches and fails — the
  // platform crashes, freezes, and the read throws MediaError.
  void arm_nth_device_read(std::uint64_t n) { platform_.arm_read_fault(n); }

  // Wear-out coupling: any XPLine whose AIT migration count reaches
  // `migrations` goes uncorrectable on its next write. 0 disables.
  void set_wear_fail_migrations(std::uint64_t migrations) {
    platform_.set_wear_fail_migrations(migrations);
  }

 private:
  Platform& platform_;
  sim::Rng rng_;
};

}  // namespace xp::hw
