// Every timing and capacity parameter of the simulated platform.
//
// Defaults model the paper's testbed: dual-socket 24-core Cascade Lake,
// 6 memory channels per socket, one 256 GB Optane DIMM ("XP DIMM") and one
// 32 GB DDR4 DIMM per channel. Values are calibrated so the *published*
// first-order numbers come out of the mechanism (see EXPERIMENTS.md):
// idle read latency 81/101 ns DRAM, 169/305 ns Optane (seq/rand); write
// latency ~57/62 ns (store+clwb) and ~86/90 ns (ntstore); per-DIMM peak
// read 6.6 GB/s, write 2.3 GB/s; XPBuffer 16 KB; WPQ per-thread 256 B.
#pragma once

#include <cstddef>

#include "sim/simtime.h"

namespace xp::hw {

using sim::Time;

struct Timing {
  // ---- Topology ---------------------------------------------------------
  unsigned sockets = 2;
  unsigned channels_per_socket = 6;  // 2 iMCs x 3 channels

  // ---- Granularities ----------------------------------------------------
  std::size_t cacheline = 64;          // CPU + DDR-T transfer unit
  std::size_t xpline = 256;            // 3D XPoint internal access unit
  std::size_t interleave_chunk = 4096; // per-DIMM contiguous block

  // ---- Core & on-chip interconnect ---------------------------------------
  Time issue_gap = sim::ns(1.5);       // min gap between issued accesses
  Time store_hit = sim::ns(1.0);       // store into an L1-resident line
  Time cache_hit = sim::ns(5);         // load serviced by the cache model
  Time mesh = sim::ns(35);             // core <-> iMC on-chip latency
  Time fence_overhead = sim::ns(8);    // sfence/mfence fixed cost
  // Effective outstanding 64 B requests per core under streaming access
  // (line-fill buffers plus L2 prefetch streams). Latency experiments use
  // dependent accesses (mlp = 1) instead.
  unsigned default_mlp = 20;

  // ---- CPU cache model ---------------------------------------------------
  std::size_t llc_lines = 512 * 1024;  // 32 MB per socket
  Time ntstore_wc_flush = sim::ns(22); // write-combining buffer drain
  // eADR (paper §6, [43]/[67]): extend the persistence domain down to the
  // caches. On power failure dirty lines are flushed on reserve energy
  // instead of lost, so plain stores are durable and clwb is unnecessary.
  bool eadr = false;

  // ---- iMC pending queues ------------------------------------------------
  std::size_t wpq_depth = 24;          // 64 B entries per XP DIMM WPQ
  std::size_t rpq_depth = 48;
  std::size_t wpq_thread_credit = 4;   // 256 B in-flight per thread (§5.3)
  Time wpq_sched = sim::ns(4);         // iMC scheduling per entry
  Time rpq_sched = sim::ns(6);

  // ---- DDR-T (XP DIMM interface) -----------------------------------------
  double ddrt_gbps = 15.0;             // per DIMM, per direction
  Time ddrt_cmd = sim::ns(4);

  // ---- XP DIMM controller -------------------------------------------------
  std::size_t xpbuffer_lines = 64;     // 64 x 256 B = 16 KB (Fig 10)
  Time xpbuffer_merge = sim::ns(6);    // coalesce one 64 B into a line
  Time xpbuffer_read = sim::ns(60);    // read 64 B out of the buffer
  Time xp_write_ack = sim::ns(4);      // controller accept for a write
  unsigned ait_cache_entries = 16384;  // cached 4 KB translation regions
  Time ait_hit = sim::ns(8);          // translation when cached
  Time ait_miss = sim::ns(12);         // fetch from the on-DIMM AIT DRAM
  // Stream trackers: the controller handles at most this many concurrent
  // write (resp. read) streams efficiently; an XPLine allocation by an
  // untracked stream pays a controller-serialized re-setup. This is the
  // mechanism that makes per-DIMM bandwidth *fall* (not just saturate) as
  // threads are added (§5.3, Fig 4 center, Fig 16).
  unsigned xp_write_streams = 4;
  unsigned xp_read_streams = 4;
  Time xp_ctrl_op = sim::ns(3);        // controller occupancy per 64 B
  Time xp_write_stream_miss = sim::ns(150);  // per untracked line alloc
  Time xp_read_stream_miss = sim::ns(35);

  // ---- 3D XPoint media ----------------------------------------------------
  unsigned xp_banks = 6;               // concurrent media units per DIMM
  Time xp_media_read = sim::ns(241);   // 256 B line read occupancy
  Time xp_media_write = sim::ns(662);  // 256 B line write occupancy
  std::uint64_t wear_threshold = 16384;  // writes per line before migration
  Time wear_migration = sim::us(50);   // controller blocked during remap

  // ---- DRAM DIMM ----------------------------------------------------------
  unsigned dram_banks = 16;
  std::size_t dram_row = 8192;         // row-buffer coverage
  Time dram_row_hit = sim::ns(26);     // 64 B access latency, open row
  Time dram_row_miss = sim::ns(47);    // precharge + activate + access
  // Bank *occupancy* per access is much shorter than the access latency:
  // open-row column reads pipeline every few ns; a row miss holds the
  // bank for the precharge+activate window.
  Time dram_row_hit_busy = sim::ns(4);
  Time dram_row_miss_busy = sim::ns(34);
  double dram_bus_gbps = 18.0;         // per channel
  std::size_t dram_wpq_depth = 48;
  Time dram_write_ack = sim::ns(6);

  // ---- Cross-socket (UPI) -------------------------------------------------
  Time upi_latency = sim::ns(62);      // one-way command adder
  double upi_gbps = 23.0;              // payload bandwidth per direction
  // A remote write holds the outbound lane until the target iMC accepts
  // it. Acceptance within `upi_hold_floor` is pipelined away (DRAM and an
  // unloaded XP DIMM); only the excess (a backed-up XP DIMM) blocks the
  // lane, scaled by upi_write_hold.
  Time upi_hold_floor = sim::ns(30);
  double upi_write_hold = 1.0;

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
