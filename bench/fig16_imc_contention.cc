// Reproduces paper Figure 16: iMC contention from DIMM spreading.
//
// A fixed thread pool (24 readers / 6 writers) spreads each thread's
// random accesses over N DIMMs. As N grows, more threads target each
// DIMM concurrently; with the per-thread WPQ credit (256 B) and the
// controller's limited stream trackers, per-DIMM efficiency falls —
// pinning threads to DIMMs maximizes bandwidth. The 32 points run
// through the host-parallel sweep pool.
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace xp;

struct Cfg {
  lat::Op op;
  unsigned threads;
  unsigned dimms_per_thread;
  std::size_t access;
};

benchutil::TraceOpts g_trace;

double point(const Cfg& c, std::size_t idx) {
  return g_trace
      .run(idx, {.size = 8ull << 30, .discard_data = true},
           {.op = c.op, .pattern = lat::Pattern::kRand,
            .access_size = c.access, .region_size = 8ull << 30,
            .threads = c.threads, .dimms_per_thread = c.dimms_per_thread,
            .duration = sim::ms(1)})
      .bandwidth_gbps;
}

struct Panel {
  const char* name;
  lat::Op op;
  unsigned threads;
};

constexpr Panel kPanels[] = {
    {"Read", lat::Op::kLoad, 24},
    {"Write (ntstore)", lat::Op::kNtStore, 6},
};
constexpr std::size_t kSizes[] = {64u, 256u, 1024u, 4096u};
constexpr unsigned kDimms[] = {1, 2, 3, 6};

}  // namespace

int main(int argc, char** argv) {
  sweep::Pool pool(sweep::jobs_from_args(argc, argv));
  g_trace = benchutil::TraceOpts::from_args(argc, argv);

  sweep::Grid<Cfg> grid;
  for (const Panel& p : kPanels)
    for (std::size_t access : kSizes)
      for (unsigned dimms : kDimms) grid.add({p.op, p.threads, dimms, access});
  const std::vector<double> bw = sweep::run_points(pool, grid, point);

  benchutil::banner("Figure 16",
                    "Bandwidth (GB/s) as threads spread across DIMMs");
  std::size_t k = 0;
  for (const Panel& p : kPanels) {
    benchutil::row("%s (%u threads)", p.name, p.threads);
    benchutil::row("%8s %12s %12s %12s %12s", "size", "1 DIMM/thr",
                   "2 DIMMs/thr", "3 DIMMs/thr", "6 DIMMs/thr");
    for (std::size_t access : kSizes) {
      const double d1 = bw[k++], d2 = bw[k++], d3 = bw[k++], d6 = bw[k++];
      benchutil::row("%8s %12.1f %12.1f %12.1f %12.1f",
                     benchutil::human_size(access).c_str(), d1, d2, d3, d6);
    }
  }
  benchutil::note("paper: bandwidth drops as each thread touches more "
                  "DIMMs; for maximal bandwidth pin threads to DIMMs");
  return 0;
}
