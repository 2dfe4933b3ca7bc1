// Reproduces paper Figure 5: bandwidth vs. access size (random accesses).
//
// Aggregate random-access bandwidth over access sizes 64 B .. 2 MB with
// the paper's best-performing thread counts per curve (given in the
// original captions as Read/Write(ntstore)/Write(clwb)): DRAM 24/24/24,
// Optane-NI 4/1/2, Optane 16/4/12. Two effects to look for: the 256 B
// "knee" (XPLine granularity) and the interleaved 4 KB dip (iMC
// contention at the interleaving size, §5.3). Points are independent
// (fresh platform each) and run through the host-parallel sweep pool.
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
  std::size_t access;
};

benchutil::TraceOpts g_trace;

double point(const Cfg& c, std::size_t idx) {
  // Multi-hundred-KB accesses need a window that fits many ops.
  const sim::Time window = c.access >= (256 << 10) ? sim::ms(10) : sim::ms(1);
  return g_trace
      .run(idx,
           {.device = c.device, .interleaved = c.interleaved,
            .size = 8ull << 30, .discard_data = true},
           {.op = c.op, .pattern = lat::Pattern::kRand,
            .access_size = c.access, .region_size = 8ull << 30,
            .threads = c.threads, .duration = window})
      .bandwidth_gbps;
}

struct Panel {
  const char* name;
  hw::Device device;
  bool interleaved;
  unsigned rd_threads, nt_threads, clwb_threads;
};

constexpr Panel kPanels[] = {
    {"DRAM", hw::Device::kDram, true, 24, 24, 24},
    {"Optane-NI (single DIMM)", hw::Device::kXp, false, 4, 1, 2},
    {"Optane (interleaved)", hw::Device::kXp, true, 16, 4, 12},
};
constexpr std::size_t kSizes[] = {64u,    256u,    1024u,   4096u,
                                  16384u, 65536u, 262144u, 2097152u};

}  // namespace

int main(int argc, char** argv) {
  sweep::Pool pool(sweep::jobs_from_args(argc, argv));
  g_trace = benchutil::TraceOpts::from_args(argc, argv);

  sweep::Grid<Cfg> grid;
  for (const Panel& p : kPanels)
    for (std::size_t access : kSizes) {
      grid.add({p.device, p.interleaved, lat::Op::kLoad, p.rd_threads,
                access});
      grid.add({p.device, p.interleaved, lat::Op::kNtStore, p.nt_threads,
                access});
      grid.add({p.device, p.interleaved, lat::Op::kStoreClwb,
                p.clwb_threads, access});
    }
  const std::vector<double> bw = sweep::run_points(pool, grid, point);

  benchutil::banner("Figure 5",
                    "Bandwidth (GB/s) vs access size, random accesses");
  std::size_t k = 0;
  for (const Panel& p : kPanels) {
    benchutil::row("%s (%u/%u/%u threads)", p.name, p.rd_threads,
                   p.nt_threads, p.clwb_threads);
    benchutil::row("%8s %10s %14s %14s", "size", "Read", "Write(ntstore)",
                   "Write(clwb)");
    for (std::size_t access : kSizes) {
      const double rd = bw[k++], nt = bw[k++], cl = bw[k++];
      benchutil::row("%8s %10.1f %14.1f %14.1f",
                     benchutil::human_size(access).c_str(), rd, nt, cl);
    }
  }
  benchutil::note("paper shapes: DRAM mostly size-independent; Optane poor "
                  "below 256 B (XPLine RMW); interleaved writes dip at 4 KB "
                  "(one access = one DIMM; iMC head-of-line) and recover "
                  "beyond as accesses span DIMMs");
  return 0;
}
