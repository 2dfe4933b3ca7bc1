// Reproduces paper Figure 4: bandwidth vs. thread count.
//
// Sequential 256 B accesses; loads, non-temporal stores, and cached
// stores + clwb; three panels: local DRAM, non-interleaved Optane (one
// DIMM), interleaved Optane (six DIMMs). A fresh platform per data point
// (cold caches, empty queues) keeps points independent, which also lets
// the whole sweep run through the host-parallel sweep pool.
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace xp;

struct Cfg {
  hw::Device device;
  bool interleaved;
  lat::Op op;
  unsigned threads;
};

benchutil::TraceOpts g_trace;

double point(const Cfg& c, std::size_t idx) {
  return g_trace
      .run(idx,
           {.device = c.device, .interleaved = c.interleaved,
            .size = 8ull << 30, .discard_data = true},
           {.op = c.op, .access_size = 256, .region_size = 8ull << 30,
            .threads = c.threads, .duration = sim::ms(1)})
      .bandwidth_gbps;
}

struct Panel {
  const char* name;
  hw::Device device;
  bool interleaved;
};

constexpr Panel kPanels[] = {
    {"DRAM (interleaved)", hw::Device::kDram, true},
    {"Optane-NI (single DIMM)", hw::Device::kXp, false},
    {"Optane (6-DIMM interleaved)", hw::Device::kXp, true},
};
constexpr unsigned kThreads[] = {1, 2, 4, 8, 12, 16, 20, 24};
constexpr lat::Op kOps[] = {lat::Op::kLoad, lat::Op::kNtStore,
                            lat::Op::kStoreClwb};

}  // namespace

int main(int argc, char** argv) {
  sweep::Pool pool(sweep::jobs_from_args(argc, argv));
  g_trace = benchutil::TraceOpts::from_args(argc, argv);

  sweep::Grid<Cfg> grid;
  for (const Panel& p : kPanels)
    for (unsigned threads : kThreads)
      for (lat::Op op : kOps) grid.add({p.device, p.interleaved, op, threads});
  const std::vector<double> bw = sweep::run_points(pool, grid, point);

  benchutil::banner("Figure 4",
                    "Bandwidth (GB/s) vs thread count, 256 B sequential");
  std::size_t k = 0;
  for (const Panel& p : kPanels) {
    benchutil::row("%s", p.name);
    benchutil::row("%8s %10s %14s %14s", "threads", "Read",
                   "Write(ntstore)", "Write(clwb)");
    for (unsigned threads : kThreads) {
      const double rd = bw[k++], nt = bw[k++], cl = bw[k++];
      benchutil::row("%8u %10.1f %14.1f %14.1f", threads, rd, nt, cl);
    }
  }
  benchutil::note("paper shapes: DRAM scales monotonically to ~100 GB/s "
                  "read; Optane-NI read peaks ~6.6 GB/s at 4 threads then "
                  "tails off; Optane-NI ntstore peaks 2.3 GB/s at 1-4 "
                  "threads then falls; interleaving multiplies peaks ~6x "
                  "(read ~38-40, ntstore ~13 at 4-8 threads, clwb ~9-11 at "
                  "12 threads, falling at 24)");
  return 0;
}
