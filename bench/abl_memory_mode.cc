// Ablation: Memory Mode vs App Direct (paper §2.1.2 and §6).
//
// The paper studies its guidelines only in App Direct mode, noting that
// Memory Mode's DRAM cache "mitigates most or all of the effects". We
// verify: random 64 B accesses whose working set fits the near-memory
// cache run at DRAM speed in Memory Mode, while App Direct pays the full
// XPLine read-modify-write penalty; a working set far beyond the cache
// degrades Memory Mode back toward raw XP behavior.
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

double point(bool memory_mode, lat::Op op, std::uint64_t region) {
  hw::Timing timing;
  // Scale near memory down 64x (32 GB -> 512 MB) so the direct-mapped tag
  // array reaches steady state within the simulated window; worksets are
  // scaled accordingly.
  timing.memory_mode_near_bytes = 512ull << 20;
  return g_trace
      .run(g_point++,
           {.size = 16ull << 30, .memory_mode = memory_mode,
            .discard_data = true},
           {.op = op, .pattern = lat::Pattern::kRand, .access_size = 64,
            .region_size = region, .threads = 8,
            // Long warmup so the near-memory cache (and CPU cache) reach
            // steady state before the measured window.
            .warmup = sim::ms(25), .duration = sim::ms(3)},
           timing)
      .bandwidth_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Ablation",
                    "Memory Mode vs App Direct, random 64 B, 8 threads");
  benchutil::row("%10s %18s %18s %18s %18s", "workset", "AppDirect rd",
                 "MemMode rd", "AppDirect wr", "MemMode wr");
  for (std::uint64_t region : {96ull << 20, 8ull << 30}) {
    // Locals, not arguments: points (and their trace files) are numbered
    // in grid order only if they run in it.
    const double ad_rd = point(false, lat::Op::kLoad, region),
                 mm_rd = point(true, lat::Op::kLoad, region),
                 ad_wr = point(false, lat::Op::kNtStore, region),
                 mm_wr = point(true, lat::Op::kNtStore, region);
    benchutil::row("%10s %18.1f %18.1f %18.1f %18.1f",
                   benchutil::human_size(region).c_str(), ad_rd, mm_rd, ad_wr,
                   mm_wr);
  }
  benchutil::note("expected: with a cache-resident working set Memory "
                  "Mode runs near DRAM speed, hiding the small-access "
                  "pathologies; far beyond the cache it converges to XP "
                  "behavior plus miss overhead");
  return 0;
}
