// Example: measure a device and print the paper's four guidelines with
// the numbers that justify them *on that device*.
//
// Useful as a template for characterizing a new (simulated) memory
// configuration: change a settable hw::Timing field (the LLC size, eADR,
// the WPQ credit, the XPBuffer size, the write-stream trackers, the wear
// threshold, the Memory Mode cache) or a calibration constant in
// xpsim/timing.h, and see which guidelines still matter (compare
// bench/abl_* for systematic sweeps).
// Exits 1 if any guideline's comparison does not come out the way the
// guideline says on the default device.
//
// Build & run:  build/examples/guideline_advisor
#include <cstdio>

#include "lattester/kernels.h"
#include "lattester/runner.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;

lat::Result quick(hw::Platform& platform, hw::PmemNamespace& ns,
                  lat::Op op, lat::Pattern pattern, std::size_t access,
                  unsigned threads, unsigned socket = 0) {
  lat::WorkloadSpec spec;
  spec.op = op;
  spec.pattern = pattern;
  spec.access_size = access;
  spec.threads = threads;
  spec.socket = socket;
  spec.region_size = ns.size();
  spec.duration = sim::ms(1);
  return lat::run(platform, ns, spec);
}

}  // namespace

int main() {
  using namespace xp;
  std::printf("Characterizing the simulated 3D XPoint DIMM...\n\n");
  bool ok = true;

  // Guideline 1: avoid random accesses smaller than 256 B.
  {
    hw::Platform p;
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.interleaved = false;
    o.size = 2ull << 30;
    o.discard_data = true;
    auto& ns = p.add_namespace(o);
    const lat::Result small =
        quick(p, ns, lat::Op::kNtStore, lat::Pattern::kRand, 64, 1);
    const lat::Result line =
        quick(p, ns, lat::Op::kNtStore, lat::Pattern::kRand, 256, 1);
    std::printf("#1 Avoid random accesses < 256 B\n");
    std::printf("   random 64 B stores:  %.2f GB/s at EWR %.2f\n",
                small.bandwidth_gbps, small.ewr);
    std::printf("   random 256 B stores: %.2f GB/s at EWR %.2f\n\n",
                line.bandwidth_gbps, line.ewr);
    ok &= small.bandwidth_gbps < line.bandwidth_gbps;
  }

  // Guideline 2: use ntstore for large transfers.
  {
    hw::Platform p;
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.size = 2ull << 30;
    o.discard_data = true;
    auto& ns = p.add_namespace(o);
    const lat::Result nt =
        quick(p, ns, lat::Op::kNtStore, lat::Pattern::kSeq, 4096, 6);
    const lat::Result clwb =
        quick(p, ns, lat::Op::kStoreClwb, lat::Pattern::kSeq, 4096, 6);
    std::printf("#2 Use non-temporal stores for large transfers\n");
    std::printf("   4 KB ntstore:     %.1f GB/s\n", nt.bandwidth_gbps);
    std::printf("   4 KB store+clwb:  %.1f GB/s (pays the RFO read)\n\n",
                clwb.bandwidth_gbps);
    ok &= nt.bandwidth_gbps > clwb.bandwidth_gbps;
  }

  // Guideline 3: limit threads per DIMM.
  {
    hw::Platform p;
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.interleaved = false;
    o.size = 2ull << 30;
    o.discard_data = true;
    auto& ns = p.add_namespace(o);
    const lat::Result few =
        quick(p, ns, lat::Op::kNtStore, lat::Pattern::kSeq, 256, 2);
    hw::Platform p2;
    auto& ns2 = p2.add_namespace(o);
    const lat::Result many =
        quick(p2, ns2, lat::Op::kNtStore, lat::Pattern::kSeq, 256, 16);
    std::printf("#3 Limit concurrent writers per DIMM\n");
    std::printf("   2 writers:  %.2f GB/s\n", few.bandwidth_gbps);
    std::printf("   16 writers: %.2f GB/s (more threads, less bandwidth)\n\n",
                many.bandwidth_gbps);
    ok &= many.bandwidth_gbps < few.bandwidth_gbps;
  }

  // Guideline 4: avoid NUMA, especially mixed multi-threaded access.
  {
    auto mixed = [&](unsigned socket) {
      hw::Platform p;
      hw::NamespaceOptions o;
      o.device = hw::Device::kXp;
      o.socket = 0;
      o.size = 2ull << 30;
      o.discard_data = true;
      auto& ns = p.add_namespace(o);
      return quick(p, ns, lat::Op::kMixed, lat::Pattern::kRand, 256, 4,
                   socket)
          .bandwidth_gbps;
    };
    const double local = mixed(0), remote = mixed(1);
    std::printf("#4 Avoid mixed accesses to remote NUMA nodes\n");
    std::printf("   local 1:1 mix, 4 threads:  %.2f GB/s\n", local);
    std::printf("   remote 1:1 mix, 4 threads: %.2f GB/s\n", remote);
    ok &= remote < local;
  }
  return ok ? 0 : 1;
}
