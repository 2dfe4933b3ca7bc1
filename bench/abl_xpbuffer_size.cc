// Ablation: sensitivity of the paper's guidelines to the XPBuffer size.
//
// §6 of the paper argues the 256 B-locality guideline is a direct product
// of the 16 KB XPBuffer; if future devices grow it, the working-set limit
// relaxes. We sweep the modeled buffer capacity and re-run (a) the Fig 10
// capacity probe and (b) random 64 B ntstore EWR/bandwidth.
#include "bench/bench_util.h"
#include "lattester/kernels.h"

int main(int argc, char** argv) {
  using namespace xp;
  const auto trace = benchutil::TraceOpts::from_args(argc, argv);
  std::size_t point = 0;
  benchutil::banner("Ablation", "XPBuffer capacity sensitivity");
  benchutil::row("%10s %14s %14s %12s %12s", "buffer", "WA@16K-probe",
                 "WA@64K-probe", "rand64B EWR", "rand64B GB/s");
  for (unsigned lines : {16u, 32u, 64u, 128u, 256u}) {
    hw::Timing timing;
    timing.xpbuffer_lines = lines;

    hw::Platform p1(timing);
    const auto tel1 = trace.session(p1, point++);
    auto& probe_ns = p1.optane_ni(64 << 20);
    const double wa16 = lat::xpbuffer_write_amp_probe(p1, probe_ns, 16384);
    const double wa64 = lat::xpbuffer_write_amp_probe(p1, probe_ns, 65536);

    const lat::Result r = trace.run(
        point++,
        {.interleaved = false, .size = 2ull << 30, .discard_data = true},
        {.op = lat::Op::kNtStore, .pattern = lat::Pattern::kRand,
         .access_size = 64, .region_size = 2ull << 30,
         .duration = sim::ms(1)},
        timing);

    benchutil::row("%9uL %14.2f %14.2f %12.2f %12.2f", lines, wa16, wa64,
                   r.ewr, r.bandwidth_gbps);
  }
  benchutil::note("expected: the WA cliff tracks the configured capacity; "
                  "random 64 B EWR stays ~0.25 regardless (locality, not "
                  "capacity, is the fix)");
  return 0;
}
