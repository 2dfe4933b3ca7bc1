// Example: crash-consistent transactions with the mini-PMDK.
//
// A bank-transfer toy: two persistent account balances updated in a
// transaction. We inject a power failure between the two updates and
// show that recovery rolls the half-done transfer back. Exits 1 if
// either balance check fails.
//
// Build & run:  build/examples/txdemo
#include <cstdio>

#include "pmemlib/pool.h"
#include "xpsim/platform.h"

int main() {
  using namespace xp;
  hw::Platform platform;
  hw::PmemNamespace& ns = platform.optane(64 << 20);
  sim::ThreadCtx t({.id = 0, .socket = 0, .mlp = 16, .seed = 1});

  pmem::Pool pool(ns);
  pool.create(t, /*root_size=*/16);  // two u64 balances
  const std::uint64_t root = pool.root(t);

  auto write_balance = [&](int slot, std::uint64_t v, pmem::Tx& tx) {
    tx.add(root + slot * 8, 8);
    tx.store(root + slot * 8,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(&v), 8));
  };
  auto balance = [&](int slot) {
    return ns.load_pod<std::uint64_t>(t, root + slot * 8);
  };

  // Initial balances, committed.
  {
    pmem::Tx tx(pool, t);
    write_balance(0, 1000, tx);
    write_balance(1, 0, tx);
    tx.commit();
  }
  std::printf("before transfer: A=%llu B=%llu\n",
              static_cast<unsigned long long>(balance(0)),
              static_cast<unsigned long long>(balance(1)));

  // Transfer 400 from A to B — power dies between the two updates.
  {
    pmem::Tx tx(pool, t);
    write_balance(0, 600, tx);
    std::printf("debited A... and the power fails here.\n");
    platform.crash();
    tx.release();  // the process is gone; no destructor rollback
  }

  // Recovery: open() rolls back the interrupted lane.
  pmem::Pool recovered(ns);
  recovered.open(t);
  std::printf("after recovery:  A=%llu B=%llu  (all-or-nothing: the "
              "half-done transfer was rolled back)\n",
              static_cast<unsigned long long>(balance(0)),
              static_cast<unsigned long long>(balance(1)));
  if (balance(0) != 1000 || balance(1) != 0) return 1;

  // Retry, completing this time.
  {
    pmem::Tx tx(pool, t);
    write_balance(0, 600, tx);
    write_balance(1, 400, tx);
    tx.commit();
  }
  platform.crash();
  std::printf("after retry + crash: A=%llu B=%llu  (committed work "
              "survives)\n",
              static_cast<unsigned long long>(balance(0)),
              static_cast<unsigned long long>(balance(1)));
  return balance(0) == 600 && balance(1) == 400 ? 0 : 1;
}
