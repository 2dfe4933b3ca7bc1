// Every timing and capacity parameter of the simulated platform.
//
// Defaults model the paper's testbed: dual-socket 24-core Cascade Lake,
// 6 memory channels per socket, one 256 GB Optane DIMM ("XP DIMM") and one
// 32 GB DDR4 DIMM per channel. Values are calibrated so the *published*
// first-order numbers come out of the mechanism (see EXPERIMENTS.md):
// idle read latency 81/101 ns DRAM, 169/305 ns Optane (seq/rand); write
// latency ~57/62 ns (store+clwb) and ~86/90 ns (ntstore); per-DIMM peak
// read 6.6 GB/s, write 2.3 GB/s; XPBuffer 16 KB; WPQ per-thread 256 B.
//
// A parameter is a member only while some bench, test or example sets
// it (DESIGN §6.4 names who sets each of the seven); every other one is
// a static constexpr constant, read through an instance like a member.
#pragma once

#include <cstddef>

#include "sim/simtime.h"

namespace xp::hw {

using sim::Time;

struct Timing {
  // ---- Topology ---------------------------------------------------------
  static constexpr unsigned sockets = 2;
  static constexpr unsigned channels_per_socket = 6;  // 2 iMCs x 3 channels

  // ---- Granularities ----------------------------------------------------
  static constexpr std::size_t cacheline = 64;  // CPU + DDR-T transfer unit
  static constexpr std::size_t xpline = 256;  // 3D XPoint internal access unit
  // Per-DIMM contiguous block
  static constexpr std::size_t interleave_chunk = 4096;

  // ---- Core & on-chip interconnect ---------------------------------------
  // Min gap between issued accesses
  static constexpr Time issue_gap = sim::ns(1.5);
  // Store into an L1-resident line
  static constexpr Time store_hit = sim::ns(1.0);
  // Load serviced by the cache model
  static constexpr Time cache_hit = sim::ns(5);
  static constexpr Time mesh = sim::ns(35);  // core <-> iMC on-chip latency
  // Sfence/mfence fixed cost
  static constexpr Time fence_overhead = sim::ns(8);
  // Effective outstanding 64 B requests per core under streaming access
  // (line-fill buffers plus L2 prefetch streams). Latency experiments use
  // dependent accesses (mlp = 1) instead.
  static constexpr unsigned default_mlp = 20;

  // ---- CPU cache model ---------------------------------------------------
  std::size_t llc_lines = 512 * 1024;  // 32 MB per socket
  // Write-combining buffer drain
  static constexpr Time ntstore_wc_flush = sim::ns(22);
  // eADR (paper §6, [43]/[67]): extend the persistence domain down to the
  // caches. On power failure dirty lines are flushed on reserve energy
  // instead of lost, so plain stores are durable and clwb is unnecessary.
  bool eadr = false;

  // ---- iMC pending queues ------------------------------------------------
  static constexpr std::size_t wpq_depth = 24;  // 64 B entries per XP DIMM WPQ
  static constexpr std::size_t rpq_depth = 48;
  std::size_t wpq_thread_credit = 4;  // 256 B in-flight per thread (§5.3)
  static constexpr Time wpq_sched = sim::ns(4);  // iMC scheduling per entry
  static constexpr Time rpq_sched = sim::ns(6);

  // ---- DDR-T (XP DIMM interface) -----------------------------------------
  static constexpr double ddrt_gbps = 15.0;  // per DIMM, per direction
  static constexpr Time ddrt_cmd = sim::ns(4);

  // ---- XP DIMM controller -------------------------------------------------
  std::size_t xpbuffer_lines = 64;  // 64 x 256 B = 16 KB (Fig 10)
  // Coalesce one 64 B into a line
  static constexpr Time xpbuffer_merge = sim::ns(6);
  // Read 64 B out of the buffer
  static constexpr Time xpbuffer_read = sim::ns(60);
  // Controller accept for a write
  static constexpr Time xp_write_ack = sim::ns(4);
  // Cached 4 KB translation regions
  static constexpr unsigned ait_cache_entries = 16384;
  static constexpr Time ait_hit = sim::ns(8);  // translation when cached
  // Fetch from the on-DIMM AIT DRAM
  static constexpr Time ait_miss = sim::ns(12);
  // Stream trackers: the controller handles at most this many concurrent
  // write (resp. read) streams efficiently; an XPLine allocation by an
  // untracked stream pays a controller-serialized re-setup. This is the
  // mechanism that makes per-DIMM bandwidth *fall* (not just saturate) as
  // threads are added (§5.3, Fig 4 center, Fig 16).
  unsigned xp_write_streams = 4;
  static constexpr unsigned xp_read_streams = 4;
  // Controller occupancy per 64 B
  static constexpr Time xp_ctrl_op = sim::ns(3);
  // Per untracked line alloc
  static constexpr Time xp_write_stream_miss = sim::ns(150);
  static constexpr Time xp_read_stream_miss = sim::ns(35);

  // ---- 3D XPoint media ----------------------------------------------------
  static constexpr unsigned xp_banks = 6;  // concurrent media units per DIMM
  // 256 B line read occupancy
  static constexpr Time xp_media_read = sim::ns(241);
  // 256 B line write occupancy
  static constexpr Time xp_media_write = sim::ns(662);
  std::uint64_t wear_threshold = 16384;  // writes per line before migration
  // Controller blocked during remap
  static constexpr Time wear_migration = sim::us(50);

  // ---- DRAM DIMM ----------------------------------------------------------
  static constexpr unsigned dram_banks = 16;
  static constexpr std::size_t dram_row = 8192;  // row-buffer coverage
  // 64 B access latency, open row
  static constexpr Time dram_row_hit = sim::ns(26);
  // Precharge + activate + access
  static constexpr Time dram_row_miss = sim::ns(47);
  // Bank *occupancy* per access is much shorter than the access latency:
  // open-row column reads pipeline every few ns; a row miss holds the
  // bank for the precharge+activate window.
  static constexpr Time dram_row_hit_busy = sim::ns(4);
  static constexpr Time dram_row_miss_busy = sim::ns(34);
  static constexpr double dram_bus_gbps = 18.0;  // per channel
  static constexpr std::size_t dram_wpq_depth = 48;
  static constexpr Time dram_write_ack = sim::ns(6);

  // ---- Cross-socket (UPI) -------------------------------------------------
  static constexpr Time upi_latency = sim::ns(62);  // one-way command adder
  static constexpr double upi_gbps = 23.0;  // payload bandwidth per direction
  // A remote write holds the outbound lane until the target iMC accepts
  // it. Acceptance within `upi_hold_floor` is pipelined away (DRAM and an
  // unloaded XP DIMM); only the excess (a backed-up XP DIMM) blocks the
  // lane, scaled by upi_write_hold.
  static constexpr Time upi_hold_floor = sim::ns(30);
  static constexpr double upi_write_hold = 1.0;

  // ---- Memory Mode (DRAM as direct-mapped cache for XP) -------------------
  // Per-socket near-memory (DRAM cache) capacity. The testbed has 32 GB;
  // ablations scale it down so tag-array fill fits a short simulation.
  std::uint64_t memory_mode_near_bytes = 32ull << 30;
};

// Emulation knobs applied per namespace; models the methodologies the
// paper compares against in Section 4.
struct EmulationKnobs {
  Time extra_load_latency = 0;         // PMEP: +300 ns on loads
  double write_slowdown = 1.0;         // PMEP: write bandwidth / 8
};

inline EmulationKnobs pmep_knobs() {
  return EmulationKnobs{sim::ns(300), 8.0};
}

}  // namespace xp::hw
