// Reproduces paper Figure 13: choosing persistence instructions.
//
// Left: bandwidth of sequential writes at 6 threads for ntstore,
// store+clwb, and bare store. Right: fenced single-thread latency of
// ntstore vs store+clwb over access sizes. Key claims: flushing right
// after each store keeps the stream sequential (EWR 0.26 -> 0.98) and
// beats bare stores; ntstore avoids the RFO read and wins for >=512 B.
// Both tables are one grid through the host-parallel sweep pool.
#include <vector>

#include "bench/bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace xp;

struct Cfg {
  lat::Op op;
  std::size_t access;
  unsigned threads;
  bool fenced;
};

benchutil::TraceOpts g_trace;

lat::Result run_case(const Cfg& c, std::size_t idx) {
  lat::WorkloadSpec spec{.op = c.op, .access_size = c.access,
                         .threads = c.threads, .mlp = c.fenced ? 1u : 0u,
                         .fence_each_op = c.fenced};
  if (c.fenced) {
    // Latency methodology: warm, cache-resident lines (Fig 2 style).
    spec.region_size = 128 << 10;
    spec.warmup = sim::us(500);
    spec.duration = sim::ms(1);
  } else {
    spec.region_size = 8ull << 30;
    // Bare stores need to stream well past the LLC capacity before the
    // natural-eviction steady state (the regime the paper measures) is
    // reached.
    spec.warmup = c.op == lat::Op::kStore ? sim::ms(4) : sim::us(50);
    spec.duration = sim::ms(4);
  }
  return g_trace.run(idx, {.size = 8ull << 30, .discard_data = true}, spec);
}

constexpr std::size_t kBwSizes[] = {64u, 128u, 256u, 512u, 1024u, 4096u};
constexpr std::size_t kLatSizes[] = {64u, 256u, 1024u, 4096u};

}  // namespace

int main(int argc, char** argv) {
  sweep::Pool pool(sweep::jobs_from_args(argc, argv));
  g_trace = benchutil::TraceOpts::from_args(argc, argv);

  sweep::Grid<Cfg> grid;
  for (std::size_t access : kBwSizes) {
    grid.add({lat::Op::kNtStore, access, 6, false});
    grid.add({lat::Op::kStoreClwb, access, 6, false});
    grid.add({lat::Op::kStore, access, 6, false});
  }
  for (std::size_t access : kLatSizes) {
    grid.add({lat::Op::kNtStore, access, 1, true});
    grid.add({lat::Op::kStoreClwb, access, 1, true});
  }
  const std::vector<lat::Result> r = sweep::run_points(pool, grid, run_case);

  benchutil::banner("Figure 13", "Persistence instruction choice");

  std::size_t k = 0;
  benchutil::row("Bandwidth (GB/s), 6 threads, sequential — plus EWR");
  benchutil::row("%8s %16s %16s %16s", "size", "ntstore", "store+clwb",
                 "store");
  for (std::size_t access : kBwSizes) {
    const lat::Result& nt = r[k++];
    const lat::Result& cl = r[k++];
    const lat::Result& st = r[k++];
    benchutil::row("%8s %9.1f (e%.2f) %9.1f (e%.2f) %9.1f (e%.2f)",
                   benchutil::human_size(access).c_str(), nt.bandwidth_gbps,
                   nt.ewr, cl.bandwidth_gbps, cl.ewr, st.bandwidth_gbps,
                   st.ewr);
  }

  benchutil::row("");
  benchutil::row("Latency (ns), 1 thread, fenced");
  benchutil::row("%8s %12s %14s", "size", "ntstore", "store+clwb");
  for (std::size_t access : kLatSizes) {
    const lat::Result& nt = r[k++];
    const lat::Result& cl = r[k++];
    benchutil::row("%8s %12.0f %14.0f",
                   benchutil::human_size(access).c_str(),
                   nt.avg_latency_ns(), cl.avg_latency_ns());
  }

  benchutil::note("paper: store+clwb beats bare store beyond 64 B "
                  "(explicit flushes keep the stream ordered, EWR 0.26 -> "
                  "0.98); ntstore has the best bandwidth above 256 B and "
                  "the best latency above 512 B (no RFO read)");
  return 0;
}
