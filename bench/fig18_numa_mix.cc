// Reproduces paper Figure 18: local vs remote Optane bandwidth over
// read/write mixes.
//
// 256 B random accesses at 1 and 4 threads; mixes from pure read to pure
// write. Remote traffic crosses the UPI link, where writes hold the
// outbound lane until the (slow, write-pressured) XP DIMM admits them —
// collapsing multi-threaded mixed workloads.
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

double point(unsigned socket, unsigned threads, double read_fraction) {
  const lat::Op op = read_fraction >= 1.0   ? lat::Op::kLoad
                     : read_fraction <= 0.0 ? lat::Op::kNtStore
                                            : lat::Op::kMixed;
  return g_trace
      .run(g_point++, {.size = 8ull << 30, .discard_data = true},
           {.op = op, .pattern = lat::Pattern::kRand, .access_size = 256,
            .region_size = 8ull << 30, .threads = threads,
            .socket = socket, .read_fraction = read_fraction,
            .duration = sim::ms(1)})
      .bandwidth_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Figure 18",
                    "Optane bandwidth (GB/s) vs R:W mix, local vs remote");
  benchutil::row("%-10s %10s %16s %10s %16s", "mix", "Optane-1",
                 "Optane-Remote-1", "Optane-4", "Optane-Remote-4");
  struct Mix {
    const char* name;
    double read_fraction;
  };
  for (const Mix& m : {Mix{"R", 1.0}, Mix{"R:W 4:1", 0.8},
                       Mix{"R:W 3:1", 0.75}, Mix{"R:W 2:1", 0.667},
                       Mix{"R:W 1:1", 0.5}, Mix{"W", 0.0}}) {
    // Locals, not arguments: points (and their trace files) are numbered
    // in grid order only if they run in it.
    const double local1 = point(0, 1, m.read_fraction),
                 remote1 = point(1, 1, m.read_fraction),
                 local4 = point(0, 4, m.read_fraction),
                 remote4 = point(1, 4, m.read_fraction);
    benchutil::row("%-10s %10.2f %16.2f %10.2f %16.2f", m.name, local1,
                   remote1, local4, remote4);
  }
  benchutil::note("paper: single-threaded local ~= remote; with 4 threads "
                  "remote falls off sharply as store intensity rises; "
                  "pure reads/writes degrade far less than mixes");
  return 0;
}
