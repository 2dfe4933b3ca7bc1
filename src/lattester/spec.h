// LATTester workload specification (paper §3.1).
//
// A WorkloadSpec describes one cell of the paper's systematic sweep:
// operation x pattern x access size x thread count x fencing x NUMA
// placement x delay. The runner executes it on a Platform namespace and
// reports bandwidth, latency distribution, and the DIMM counter deltas
// (from which EWR is computed).
#pragma once

#include <cstdint>

#include "sim/simtime.h"

namespace xp::lat {

enum class Op {
  kLoad,       // 64 B-granular loads
  kNtStore,    // non-temporal stores
  kStoreClwb,  // cached stores + clwb write-back
  kStore,      // cached stores, no explicit flush
  kMixed,      // per-access read/write choice via read_fraction
};

enum class Pattern { kSeq, kRand, kStride };

struct WorkloadSpec {
  Op op = Op::kLoad;
  Pattern pattern = Pattern::kSeq;
  std::size_t access_size = 64;       // bytes per application access
  std::size_t stride = 4096;          // for kStride: gap between accesses
  std::uint64_t region_size = 64 << 20;  // working set, from offset 0
  unsigned threads = 1;
  unsigned socket = 0;                // socket the threads are pinned to
  unsigned mlp = 0;                   // 0 = platform default
  bool fence_each_op = false;         // sfence/mfence after every access
  sim::Time delay_between_ops = 0;    // latency-under-load throttling
  // For kStoreClwb: flush granularity. 64 flushes each line right after
  // its store; 0 flushes the whole access after all stores (Fig 14).
  std::size_t flush_every = 64;
  double read_fraction = 0.5;         // only for kMixed
  // Restrict each thread to this many interleave chunks' worth of DIMMs
  // (Fig 16). 0 = no restriction: each thread works on its own slice of
  // the region.
  unsigned dimms_per_thread = 0;
  sim::Time warmup = sim::us(50);
  sim::Time duration = sim::ms(2);
  std::uint64_t max_ops_per_thread = 0;  // 0 = until duration
  std::uint64_t seed = 1;
};

}  // namespace xp::lat
