// Ablation: eADR — the persistence domain extended to the caches.
//
// Paper §6: "there are proposals to extend the ADR down to the last-level
// cache [43, 67] which would eliminate the problem" (of needing flushes).
// With eADR, software can drop every clwb and rely on plain stores +
// fences; this bench measures what that buys a transaction-like workload
// (store + persist of small records) and what it does to EWR: without
// explicit flushes, write-backs leave the cache in shuffled order, so
// the XPBuffer sees less sequential traffic.
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

lat::Result run_case(bool eadr, lat::Op op) {
  hw::Timing timing;
  timing.eadr = eadr;
  return g_trace.run(
      g_point++, {.size = 8ull << 30, .discard_data = true},
      {.op = op, .access_size = 256, .region_size = 8ull << 30,
       .threads = 6, .fence_each_op = true,
       // Cached stores must stream well past the LLC before the
       // natural-eviction steady state is reached.
       .warmup = op == lat::Op::kStore ? sim::ms(14) : sim::us(50),
       .duration = sim::ms(4)},
      timing);
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Ablation",
                    "eADR: persistence without flushes (256 B records, "
                    "6 threads, fence per record)");
  benchutil::row("%-26s %12s %8s", "persistence strategy", "GB/s", "EWR");

  const lat::Result clwb = run_case(false, lat::Op::kStoreClwb);
  benchutil::row("%-26s %12.2f %8.2f", "ADR: store+clwb+sfence",
                 clwb.bandwidth_gbps, clwb.ewr);
  const lat::Result nt = run_case(false, lat::Op::kNtStore);
  benchutil::row("%-26s %12.2f %8.2f", "ADR: ntstore+sfence",
                 nt.bandwidth_gbps, nt.ewr);
  const lat::Result eadr = run_case(true, lat::Op::kStore);
  benchutil::row("%-26s %12.2f %8.2f", "eADR: store+sfence only",
                 eadr.bandwidth_gbps, eadr.ewr);

  benchutil::note("with eADR plain stores are durable (tests verify), and "
                  "per-record latency drops to cache speed — but natural "
                  "evictions shuffle the write-back stream, so sustained "
                  "bandwidth is EWR-bound unless software still flushes "
                  "large sequential runs (the paper's guideline #2 "
                  "partially survives eADR)");
  return 0;
}
