// Reproduces paper Figure 19: NUMA degradation for PMemKV.
//
// The cmap engine's `overwrite` workload (read-modify-write of 512 B
// values) with the server's threads local or remote to the pool, on
// Optane and on DRAM-as-pmem, sweeping thread count. The paper's
// takeaway: migrating to the remote socket costs Optane ~4.5x but DRAM
// only ~8%.
#include "bench/bench_util.h"

namespace {

using namespace xp;

benchutil::TraceOpts g_trace;
std::size_t g_point = 0;

double overwrite_bw(hw::Device device, unsigned server_socket,
                    unsigned threads) {
  hw::Platform platform;
  const auto tel = g_trace.session(platform, g_point++);
  hw::PmemNamespace& ns = device == hw::Device::kXp
                              ? platform.optane(1024ull << 20, 0)
                              : platform.dram(1024ull << 20, 0);
  const sim::Time window = sim::ms(1);
  const std::uint64_t ops =
      benchutil::CmapOverwrite(platform, ns).run(server_socket, threads,
                                                 window);
  return sim::gbps(ops * 1024, window);
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = benchutil::TraceOpts::from_args(argc, argv);
  benchutil::banner("Figure 19",
                    "PMemKV cmap overwrite bandwidth (GB/s) vs threads");
  benchutil::row("%8s %10s %14s %10s %14s", "threads", "DRAM",
                 "DRAM-Remote", "Optane", "Optane-Remote");
  for (unsigned threads : {1u, 2u, 4u, 8u, 12u}) {
    // Locals, not arguments: points (and their trace files) are numbered
    // in grid order only if they run in it.
    const double dram = overwrite_bw(hw::Device::kDram, 0, threads),
                 dram_remote = overwrite_bw(hw::Device::kDram, 1, threads),
                 xp = overwrite_bw(hw::Device::kXp, 0, threads),
                 xp_remote = overwrite_bw(hw::Device::kXp, 1, threads);
    benchutil::row("%8u %10.2f %14.2f %10.2f %14.2f", threads, dram,
                   dram_remote, xp, xp_remote);
  }
  benchutil::note("paper: beyond 2 threads the remote-Optane store "
                  "collapses (~4.5x loss, 18x vs DRAM); remote DRAM loses "
                  "only ~8%%");
  return 0;
}
