// Quickstart: the 5-minute tour of the XPMemSim public API.
//
//  1. Build a Platform (the simulated dual-socket Optane machine).
//  2. Provision an App-Direct namespace.
//  3. Store data with the persistence instructions and fence it.
//  4. Pull the power. See what survived.
//  5. Read the DIMM hardware counters (EWR).
//
// Exits 1 if a printed check says "bug!" or the EWR is not below 1.
//
// Build & run:  build/examples/quickstart
#include <cstdio>
#include <vector>

#include "xpsim/platform.h"

int main() {
  using namespace xp;

  // 1. The machine: 2 sockets x 24 cores, 6 Optane + 6 DRAM DIMMs per
  //    socket. All timing parameters live in hw::Timing.
  hw::Platform platform;

  // 2. A 1 GB interleaved Optane namespace on socket 0.
  hw::PmemNamespace& pmem = platform.optane(1ull << 30);

  // A simulated thread: core on socket 0, up to 20 outstanding accesses.
  sim::ThreadCtx thread({.id = 0, .socket = 0, .mlp = 20, .seed = 42});

  // 3. Three writes with different persistence treatment.
  std::vector<std::uint8_t> a(64, 'A'), b(64, 'B'), c(64, 'C');
  pmem.store(thread, 0, a);            // cached store only -> volatile!
  pmem.store_persist(thread, 64, b);   // store + clwb + sfence -> durable
  pmem.ntstore(thread, 128, c);        // non-temporal...
  pmem.sfence(thread);                 // ...durable after the fence

  std::printf("simulated time so far: %.1f ns\n", sim::to_ns(thread.now()));

  // 4. Power failure: CPU caches vanish, the ADR domain survives.
  platform.crash();

  std::vector<std::uint8_t> out(64);
  bool ok = true;
  pmem.peek(0, out);
  ok &= out[0] != 'A';
  std::printf("unflushed store survived?   %s\n",
              out[0] == 'A' ? "yes (bug!)" : "no  (lost with the cache)");
  pmem.peek(64, out);
  ok &= out[0] == 'B';
  std::printf("store_persist survived?     %s\n",
              out[0] == 'B' ? "yes" : "no (bug!)");
  pmem.peek(128, out);
  ok &= out[0] == 'C';
  std::printf("ntstore+sfence survived?    %s\n",
              out[0] == 'C' ? "yes" : "no (bug!)");

  // 5. Hardware counters: scatter small random writes over 64 MB and
  //    watch the Effective Write Ratio collapse to ~0.25 — each 64 B
  //    store costs a 256 B XPLine read-modify-write inside the DIMM.
  const hw::XpCounters before = pmem.xp_counters();
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t off =
        thread.rng().uniform((64ull << 20) / 64) * 64;
    pmem.ntstore(thread, off, a);
  }
  pmem.sfence(thread);
  const hw::XpCounters delta = pmem.xp_counters() - before;
  std::printf("\n20k random 64 B stores: iMC wrote %llu B, media wrote "
              "%llu B -> EWR %.2f\n",
              static_cast<unsigned long long>(delta.imc_write_bytes),
              static_cast<unsigned long long>(delta.media_write_bytes),
              delta.ewr());
  std::printf("(EWR < 1 is internal write amplification — the paper's "
              "guideline #1: avoid random accesses under 256 B)\n");
  return ok && delta.ewr() < 1 ? 0 : 1;
}
