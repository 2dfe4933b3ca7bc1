// Reproduces paper Figure 14: bandwidth over sfence intervals.
//
// A single thread writes `write size` bytes sequentially to Optane-NI,
// with one sfence per write. Three variants: clwb after every 64 B store,
// clwb for the whole range at the end of the write, and ntstore. For
// writes larger than the cache, deferring the flush lets natural
// evictions shuffle the stream and duplicates write-backs — the paper's
// "cache capacity invalidation" penalty. The 21 points are independent
// and run through the host-parallel sweep pool.
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace xp;

struct Cfg {
  lat::Op op;
  std::size_t flush_every;
  std::size_t write_size;
};

benchutil::TraceOpts g_trace;

double point(const Cfg& c, std::size_t idx) {
  // Multi-MB writes take ~10 ms each; give the window room for several.
  const bool multi_mb = c.write_size >= (1 << 20);
  return g_trace
      .run(idx,
           {.interleaved = false, .size = 2ull << 30, .discard_data = true},
           {.op = c.op, .access_size = c.write_size,
            .region_size = 2ull << 30,
            .fence_each_op = true,  // one sfence per write
            .flush_every = c.flush_every,
            .warmup = multi_mb ? 0 : sim::us(50),
            .duration = multi_mb ? sim::ms(120) : sim::ms(2)})
      .bandwidth_gbps;
}

constexpr std::size_t kSizes[] = {64u,    256u,     1024u,    4096u,
                                  65536u, 1048576u, 16777216u};

}  // namespace

int main(int argc, char** argv) {
  sweep::Pool pool(sweep::jobs_from_args(argc, argv));
  g_trace = benchutil::TraceOpts::from_args(argc, argv);

  sweep::Grid<Cfg> grid;
  for (std::size_t size : kSizes) {
    grid.add({lat::Op::kStoreClwb, 64, size});
    grid.add({lat::Op::kStoreClwb, 0, size});
    grid.add({lat::Op::kNtStore, 64, size});
  }
  const std::vector<double> bw = sweep::run_points(pool, grid, point);

  benchutil::banner("Figure 14",
                    "Bandwidth (GB/s) vs sfence interval, Optane-NI");
  benchutil::row("%8s %16s %18s %10s", "size", "clwb(every 64B)",
                 "clwb(write size)", "ntstore");
  std::size_t k = 0;
  for (std::size_t size : kSizes) {
    const double every64 = bw[k++], whole = bw[k++], nt = bw[k++];
    benchutil::row("%8s %16.2f %18.2f %10.2f",
                   benchutil::human_size(size).c_str(), every64, whole, nt);
  }
  benchutil::note("paper: bandwidth peaks around a 256 B interval; "
                  "flush-during vs flush-after are equivalent for medium "
                  "writes; beyond ~8 MB flushing after the write loses to "
                  "cache-capacity evictions");
  return 0;
}
