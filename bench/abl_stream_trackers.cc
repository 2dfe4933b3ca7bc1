// Ablation: controller write-stream trackers (the thread-count collapse).
//
// Guideline #3's root cause in this model: the XPController coalesces
// efficiently for a limited number of concurrent write streams. Sweeping
// the tracker count moves the peak of the bandwidth-vs-threads curve —
// if future controllers track more streams, the "limit concurrent
// threads" guideline relaxes (paper §6).
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

double point(unsigned streams, unsigned threads) {
  hw::Timing timing;
  timing.xp_write_streams = streams;
  return g_trace
      .run(g_point++,
           {.interleaved = false, .size = 2ull << 30, .discard_data = true},
           {.op = lat::Op::kNtStore, .access_size = 256,
            .region_size = 2ull << 30, .threads = threads,
            .duration = sim::ms(1)},
           timing)
      .bandwidth_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Ablation",
                    "Write-stream trackers vs thread scaling (Optane-NI)");
  benchutil::row("%10s %8s %8s %8s %8s %8s", "trackers", "1 thr", "2 thr",
                 "4 thr", "8 thr", "16 thr");
  for (unsigned streams : {1u, 2u, 4u, 8u, 24u}) {
    // Locals, not arguments: points (and their trace files) are numbered
    // in grid order only if they run in it.
    const double t1 = point(streams, 1), t2 = point(streams, 2),
                 t4 = point(streams, 4), t8 = point(streams, 8),
                 t16 = point(streams, 16);
    benchutil::row("%10u %8.2f %8.2f %8.2f %8.2f %8.2f", streams, t1, t2, t4,
                   t8, t16);
  }
  benchutil::note("expected: with few trackers the curve peaks early and "
                  "collapses; with many it saturates flat at the media "
                  "write cap (~2.3 GB/s)");
  return 0;
}
