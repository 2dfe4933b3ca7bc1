// Example: the mini-RocksDB on persistent memory.
//
// Creates a store with the FLEX write-ahead log, loads data, kills the
// power mid-run, recovers, and prints the paper's Fig 8 comparison of
// the three persistence strategies on this device. Exits 1 if a key is
// recovered wrong or the FLEX WAL does not beat the POSIX one.
//
// Build & run:  build/examples/kvstore_demo
#include <cstdio>
#include <string>

#include "lsmkv/db.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;

double set_kops(hw::PmemNamespace& ns, kv::WalMode wal,
                kv::MemtableMode mem) {
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 16, .seed = 7});
  kv::DbOptions o;
  o.wal = wal;
  o.memtable = mem;
  kv::Db db(ns, o);
  db.create(t);
  const std::string value(100, 'v');
  const int n = 5000;
  const sim::Time t0 = t.now();
  for (int i = 0; i < n; ++i)
    db.put(t, "user" + std::to_string(i * 37 % 100000), value);
  return n / sim::to_s(t.now() - t0) / 1e3;
}

}  // namespace

int main() {
  using namespace xp;
  hw::Platform platform;

  // --- everyday usage + crash recovery ---------------------------------
  {
    hw::PmemNamespace& ns = platform.optane(1ull << 30);
    sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 16, .seed = 1});
    kv::Db db(ns, kv::DbOptions{});  // FLEX WAL + volatile memtable
    db.create(t);

    db.put(t, "language", "C++20");
    db.put(t, "paper", "FAST'20 empirical guide");
    db.del(t, "language");

    std::printf("power failure mid-run...\n");
    platform.crash();

    kv::Db recovered(ns, kv::DbOptions{});
    recovered.open(t);  // replays the WAL
    std::string v;
    const bool paper = recovered.get(t, "paper", &v);
    std::printf("paper    -> %s\n", paper ? v.c_str() : "(missing!)");
    const bool language = recovered.get(t, "language", &v);
    std::printf("language -> %s (deleted before the crash)\n",
                language ? v.c_str() : "(gone)");
    if (!paper || language) return 1;
  }

  // --- the Fig 8 strategy comparison on this device ---------------------
  std::printf("\nSET throughput on simulated Optane (KOps/s):\n");
  const double posix = set_kops(platform.optane(1ull << 30),
                                kv::WalMode::kPosix,
                                kv::MemtableMode::kVolatile);
  std::printf("  WAL (POSIX file):     %7.0f\n", posix);
  const double flex = set_kops(platform.optane(1ull << 30),
                               kv::WalMode::kFlex,
                               kv::MemtableMode::kVolatile);
  std::printf("  WAL (FLEX):           %7.0f\n", flex);
  std::printf("  persistent skiplist:  %7.0f\n",
              set_kops(platform.optane(1ull << 30), kv::WalMode::kNone,
                       kv::MemtableMode::kPersistent));
  std::printf("(on DRAM-backed pmem the persistent skiplist would win — "
              "run bench/fig08_rocksdb for the full comparison)\n");
  return flex > posix ? 0 : 1;
}
