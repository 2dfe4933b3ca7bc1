// Ablation: the per-thread WPQ credit (256 B) behind guideline #3.
//
// The paper hypothesizes the iMC "cannot queue more than 256 B from a
// single thread", making single-thread-to-one-DIMM writes latency-bound
// and DIMM spreading harmful. We sweep the credit and measure
// single-thread ntstore bandwidth to one DIMM plus the Fig 16 spreading
// penalty.
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

double ni_1thread(const hw::Timing& timing) {
  return g_trace
      .run(g_point++,
           {.interleaved = false, .size = 2ull << 30, .discard_data = true},
           {.op = lat::Op::kNtStore, .access_size = 256,
            .region_size = 2ull << 30, .duration = sim::ms(1)},
           timing)
      .bandwidth_gbps;
}

double spread(const hw::Timing& timing, unsigned dimms_per_thread) {
  return g_trace
      .run(g_point++, {.size = 8ull << 30, .discard_data = true},
           {.op = lat::Op::kNtStore, .pattern = lat::Pattern::kRand,
            .access_size = 256, .region_size = 8ull << 30, .threads = 6,
            .dimms_per_thread = dimms_per_thread, .duration = sim::ms(1)},
           timing)
      .bandwidth_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Ablation", "Per-thread WPQ credit sensitivity");
  benchutil::row("%8s %14s %14s %14s %12s", "credit", "NI 1-thr GB/s",
                 "6thr pinned", "6thr spread-6", "spread loss");
  for (unsigned credit : {1u, 2u, 4u, 8u, 16u, 64u}) {
    hw::Timing timing;
    timing.wpq_thread_credit = credit;
    const double one = ni_1thread(timing);
    const double pinned = spread(timing, 1);
    const double spread6 = spread(timing, 6);
    benchutil::row("%7uB %14.2f %14.2f %14.2f %11.0f%%", credit * 64, one,
                   pinned, spread6, (1 - spread6 / pinned) * 100);
  }
  benchutil::note("expected: deeper credits raise single-thread write "
                  "bandwidth toward the media cap and shrink the "
                  "DIMM-spreading penalty — the guideline is an artifact "
                  "of the 256 B credit, as §6 predicts");
  return 0;
}
