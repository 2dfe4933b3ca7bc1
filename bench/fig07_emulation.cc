// Reproduces paper Figure 7: NVM-emulation methodologies vs real Optane.
//
// Left panel: sequential-write latency/bandwidth curves for DRAM,
// DRAM-Remote, PMEP (DRAM + 300 ns load latency + 1/8 write bandwidth),
// and Optane. Right panel: bandwidth under read/write thread mixes.
// The point of the figure: none of the emulations lands anywhere near
// real Optane on either axis.
#include "bench/bench_util.h"

namespace {

using namespace xp;

struct Config {
  const char* name;
  hw::Device device;
  unsigned thread_socket;  // DRAM-Remote: threads on the other socket
  hw::EmulationKnobs knobs;
};

std::vector<Config> configs() {
  return {
      {"DRAM", hw::Device::kDram, 0, {}},
      {"DRAM-Remote", hw::Device::kDram, 1, {}},
      {"PMEP", hw::Device::kDram, 0, hw::pmep_knobs()},
      {"Optane", hw::Device::kXp, 0, {}},
  };
}

// Each config's timing-only namespace on socket 0.
hw::NamespaceOptions ns_opts(const Config& c) {
  return {.device = c.device, .size = 8ull << 30, .emulation = c.knobs,
          .discard_data = true};
}

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Figure 7", "Emulation mechanisms vs real Optane");

  benchutil::row("Idle latency (ns) and peak sequential-write bandwidth");
  benchutil::row("%-12s %12s %12s %16s", "config", "read lat", "write lat",
                 "seq wr BW(GB/s)");
  for (const Config& c : configs()) {
    // Idle read latency (dependent loads).
    const lat::WorkloadSpec rd{
        .op = lat::Op::kLoad, .pattern = lat::Pattern::kRand,
        .access_size = 64, .region_size = 8ull << 30,
        .socket = c.thread_socket, .mlp = 1, .fence_each_op = true,
        .duration = sim::ms(1)};
    const double read_lat =
        g_trace.run(g_point++, ns_opts(c), rd).avg_latency_ns();

    // Idle write latency.
    lat::WorkloadSpec wr = rd;
    wr.op = lat::Op::kNtStore;
    wr.pattern = lat::Pattern::kSeq;
    const double write_lat =
        g_trace.run(g_point++, ns_opts(c), wr).avg_latency_ns();

    // Peak sequential ntstore bandwidth (8 threads, pipelined).
    const double wbw =
        g_trace
            .run(g_point++, ns_opts(c),
                 {.op = lat::Op::kNtStore, .access_size = 256,
                  .region_size = 8ull << 30, .threads = 8,
                  .socket = c.thread_socket, .duration = sim::ms(1)})
            .bandwidth_gbps;

    benchutil::row("%-12s %12.0f %12.0f %16.2f", c.name, read_lat,
                   write_lat, wbw);
  }

  benchutil::row("");
  benchutil::row("Bandwidth by thread mix (8 threads, 256 B random)");
  benchutil::row("%-12s %12s %12s %12s", "config", "all-write", "1:1 mix",
                 "all-read");
  for (const Config& c : configs()) {
    double bw[3];
    int i = 0;
    for (double read_fraction : {0.0, 0.5, 1.0})
      bw[i++] = g_trace
                    .run(g_point++, ns_opts(c),
                         {.op = lat::Op::kMixed,
                          .pattern = lat::Pattern::kRand,
                          .access_size = 256, .region_size = 8ull << 30,
                          .threads = 8, .socket = c.thread_socket,
                          .read_fraction = read_fraction,
                          .duration = sim::ms(1)})
                    .bandwidth_gbps;
    benchutil::row("%-12s %12.1f %12.1f %12.1f", c.name, bw[0], bw[1],
                   bw[2]);
  }

  benchutil::note("paper shape: every emulation misses Optane badly — "
                  "wrong latency, wrong bandwidth, no read/write "
                  "asymmetry, no sequential preference");
  return 0;
}
