// Example: the mini-NOVA file system and the datalog optimization.
//
// Formats NOVA on an Optane namespace, demonstrates atomic small writes,
// crash-remount, and the paper's §5.1.2 point: embedding sub-page writes
// in the log makes 64 B random overwrites several times faster. Exits 1
// if the datalog is not the faster of the two.
//
// Build & run:  build/examples/fsdemo
#include <cstdio>
#include <string>
#include <vector>

#include "novafs/novafs.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;

double overwrite_latency_us(hw::Platform& platform, bool datalog) {
  auto& ns = platform.optane(512 << 20);
  nova::NovaOptions o;
  o.datalog = datalog;
  nova::NovaFs fs(ns, o);
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 16, .seed = 5});
  fs.format(t);
  const int f = fs.create(t, "hotfile");
  std::vector<std::uint8_t> mb(1 << 20, 0x11);
  fs.write(t, f, 0, mb);

  platform.reset_timing();
  sim::ThreadCtx m({.id = 1, .socket = 0, .mlp = 16, .seed = 6});
  std::vector<std::uint8_t> small(64, 0x22);
  sim::Rng rng(3);
  const int n = 400;
  const sim::Time t0 = m.now();
  for (int i = 0; i < n; ++i)
    fs.write(m, f, rng.uniform((1 << 20) / 64) * 64, small);
  return sim::to_us(m.now() - t0) / n;
}

}  // namespace

int main() {
  using namespace xp;
  hw::Platform platform;

  // --- basic usage + crash ----------------------------------------------
  auto& ns = platform.optane(512 << 20);
  nova::NovaOptions opts;
  opts.datalog = true;
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 16, .seed = 1});
  {
    nova::NovaFs fs(ns, opts);
    fs.format(t);
    const int f = fs.create(t, "journal.txt");
    const std::string line = "every write here is crash-atomic\n";
    fs.write(t, f, 0,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(line.data()),
                 line.size()));
    std::printf("wrote %zu bytes, then the power fails...\n", line.size());
    platform.crash();
  }
  {
    nova::NovaFs fs(ns, opts);
    fs.mount(t);  // log replay
    const int f = fs.open(t, "journal.txt");
    std::vector<std::uint8_t> out(64);
    const std::size_t got = fs.read(t, f, 0, out);
    std::printf("after remount: %zu bytes -> %.*s", got,
                static_cast<int>(got),
                reinterpret_cast<const char*>(out.data()));
  }

  // --- the datalog speedup ----------------------------------------------
  hw::Platform p2, p3;
  const double cow = overwrite_latency_us(p2, /*datalog=*/false);
  const double datalog = overwrite_latency_us(p3, /*datalog=*/true);
  std::printf("\n64 B random overwrite latency:\n");
  std::printf("  NOVA (4 KB copy-on-write): %6.2f us\n", cow);
  std::printf("  NOVA-datalog (embedded):   %6.2f us  (%.1fx faster)\n",
              datalog, cow / datalog);
  return datalog < cow ? 0 : 1;
}
