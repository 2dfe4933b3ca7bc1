// Cross-module property tests.
//
//  * Persistence oracle: a random program of stores/ntstores/flushes/
//    fences against a reference model that tracks exactly which bytes are
//    durable; after a crash the platform must agree byte-for-byte.
//  * Concurrent transactions in separate lanes roll back independently.
//  * LineBatcher / LineReader round-trips: batched line-granular writes
//    and reads are byte-identical to plain store/load sequences on
//    randomized offset/size programs.
//  * End-to-end determinism: identical seeds give identical simulations.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "lattester/runner.h"
#include "pmemlib/linebatch.h"
#include "pmemlib/linereader.h"
#include "pmemlib/readcache.h"
#include "pmemlib/pool.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"
#include "telemetry/session.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

// --------------------------------------------------- persistence oracle --
// The region is kept far smaller than the LLC so no natural evictions
// occur: a plain store is durable if and only if it was clwb'd/clflushed
// (or written with ntstore) before the crash. The oracle maintains both
// the volatile view and the durable view.
class PersistenceOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PersistenceOracle, CrashStateMatchesReference) {
  constexpr std::uint64_t kRegion = 64 << 10;
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 77});
  sim::Rng rng(GetParam());

  std::vector<std::uint8_t> volatile_ref(kRegion, 0);
  std::vector<std::uint8_t> durable_ref(kRegion, 0);
  // Per-line dirty flags in the reference cache model.
  std::vector<bool> line_dirty(kRegion / 64, false);

  for (int op = 0; op < 300; ++op) {
    const unsigned kind = static_cast<unsigned>(rng.uniform(5));
    const std::size_t len = 1 + rng.uniform(300);
    const std::uint64_t off = rng.uniform(kRegion - len);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

    switch (kind) {
      case 0:
      case 1: {  // cached store: volatile until flushed
        ns.store(t, off, data);
        std::memcpy(volatile_ref.data() + off, data.data(), len);
        for (std::uint64_t l = off / 64; l <= (off + len - 1) / 64; ++l)
          line_dirty[l] = true;
        break;
      }
      case 2: {  // ntstore: durable at the fence; we fence immediately
        ns.ntstore_persist(t, off, data);
        // An ntstore invalidates any dirty cached copy of the touched
        // lines, which writes the *whole line's* pending data back first
        // (write-back-invalidate), then the non-temporal bytes land.
        for (std::uint64_t l = off / 64; l <= (off + len - 1) / 64; ++l) {
          if (line_dirty[l]) {
            std::memcpy(durable_ref.data() + l * 64,
                        volatile_ref.data() + l * 64, 64);
            line_dirty[l] = false;
          }
        }
        std::memcpy(volatile_ref.data() + off, data.data(), len);
        std::memcpy(durable_ref.data() + off, data.data(), len);
        break;
      }
      case 3: {  // clwb of a random range + fence
        const std::size_t flen = 1 + rng.uniform(600);
        const std::uint64_t foff = rng.uniform(kRegion - flen);
        ns.persist(t, foff, flen);
        for (std::uint64_t l = foff / 64; l <= (foff + flen - 1) / 64;
             ++l) {
          if (line_dirty[l]) {
            std::memcpy(durable_ref.data() + l * 64,
                        volatile_ref.data() + l * 64, 64);
            line_dirty[l] = false;
          }
        }
        break;
      }
      case 4: {  // volatile read-back must always match
        std::vector<std::uint8_t> out(len);
        ns.load(t, off, out);
        ASSERT_EQ(0, std::memcmp(out.data(), volatile_ref.data() + off,
                                 len))
            << "volatile mismatch at op " << op;
        break;
      }
    }
  }

  platform.crash();
  std::vector<std::uint8_t> image(kRegion);
  ns.peek(0, image);
  ASSERT_EQ(0, std::memcmp(image.data(), durable_ref.data(), kRegion))
      << "durable image diverged from the oracle";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------- eviction-regime oracle -----
// The exact-durability oracle above only holds while the working set fits
// in the LLC. Here the region is 4x the (shrunken) LLC, so dirty lines
// are written back by natural evictions the program never asked for. The
// contract weakens to a superset rule: the durable image may be *ahead*
// of the explicitly-flushed state (evictions persist data early) but
// never behind it, and every line must hold a value the program actually
// wrote — no tearing within a 64 B line, no made-up data.
//
// Each store overwrites a whole line with an encoded (line, version)
// payload; `flushed_floor` records the version at the last explicit
// persist. After the crash each durable line must decode to a version in
// [flushed_floor, latest].
class EvictionOracle : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
void encode_line(std::uint64_t line, std::uint32_t ver,
                 std::uint8_t out[64]) {
  const std::uint64_t tag = (line << 32) | ver;
  std::memcpy(out, &tag, 8);
  for (int i = 8; i < 64; ++i)
    out[i] = static_cast<std::uint8_t>(line * 131 + ver * 31 + i * 7);
}
}  // namespace

TEST_P(EvictionOracle, DurableSetIsSupersetOfFlushedSet) {
  hw::Timing timing;
  timing.llc_lines = 1024;  // 64 KB LLC so evictions happen fast
  Platform platform(timing, /*seed=*/42);
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 77});
  sim::Rng rng(GetParam());

  constexpr std::uint64_t kLines = 4096;  // 256 KB region = 4x the LLC
  std::vector<std::uint32_t> latest(kLines, 0);
  std::vector<std::uint32_t> flushed_floor(kLines, 0);

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t line = rng.uniform(kLines);
    if (rng.uniform(8) == 0) {  // explicit clwb + fence: raise the floor
      ns.persist(t, line * 64, 64);
      flushed_floor[line] = latest[line];
    } else {  // full-line store, volatile until flushed or evicted
      std::uint8_t buf[64];
      encode_line(line, ++latest[line], buf);
      ns.store(t, line * 64, buf);
    }
  }
  ASSERT_GT(platform.cache_counters(0).natural_evictions, 0u)
      << "working set did not overflow the LLC; test is vacuous";

  platform.crash();
  std::vector<std::uint8_t> image(kLines * 64);
  ns.peek(0, image);
  for (std::uint64_t line = 0; line < kLines; ++line) {
    const std::uint8_t* got = image.data() + line * 64;
    std::uint64_t tag;
    std::memcpy(&tag, got, 8);
    if (tag == 0) {  // never persisted: only legal if nothing was flushed
      ASSERT_EQ(flushed_floor[line], 0u)
          << "line " << line << ": flushed data lost";
      continue;
    }
    const std::uint64_t enc_line = tag >> 32;
    const std::uint32_t ver = static_cast<std::uint32_t>(tag);
    ASSERT_EQ(enc_line, line) << "line " << line << ": foreign payload";
    ASSERT_GE(ver, flushed_floor[line])
        << "line " << line << ": durable image behind the flushed floor";
    ASSERT_LE(ver, latest[line])
        << "line " << line << ": durable version never written";
    std::uint8_t want[64];
    encode_line(line, ver, want);
    ASSERT_EQ(0, std::memcmp(got, want, 64))
        << "line " << line << ": torn line at version " << ver;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionOracle,
                         ::testing::Values(7, 11, 19));

// ------------------------------------------------- multi-lane txs -------
TEST(TxLanes, ConcurrentTransactionsRollBackIndependently) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx setup({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  pmem::Pool pool(ns);
  pool.create(setup, 256);
  const std::uint64_t root = pool.root(setup);
  for (int slot = 0; slot < 4; ++slot)
    pmem::store_persist_pod(setup, ns, root + slot * 8,
                            std::uint64_t(slot + 1));

  // Two sim threads (distinct lanes): thread A commits, thread B crashes
  // mid-transaction.
  ThreadCtx ta({.id = 0, .socket = 0, .mlp = 8, .seed = 2});
  ThreadCtx tb({.id = 1, .socket = 0, .mlp = 8, .seed = 3});
  {
    pmem::Tx txa(pool, ta);
    pmem::Tx txb(pool, tb);
    ASSERT_NE(txa.lane(), txb.lane());
    const std::uint64_t a_new = 100, b_new = 200;
    txa.add(root, 8);
    txa.store(root, std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&a_new), 8));
    txb.add(root + 8, 8);
    txb.store(root + 8, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(&b_new),
                            8));
    txa.commit();
    platform.crash();
    txb.release();  // process died mid-transaction
  }
  pmem::Pool recovered(ns);
  ASSERT_TRUE(recovered.open(setup));
  EXPECT_EQ(ns.load_pod<std::uint64_t>(setup, root), 100u);      // committed
  EXPECT_EQ(ns.load_pod<std::uint64_t>(setup, root + 8), 2u);    // rolled back
  EXPECT_EQ(ns.load_pod<std::uint64_t>(setup, root + 16), 3u);   // untouched
}

// ------------------------------------------- conservation oracle --------
// Random programs through the full namespace API (stores, ntstores,
// flushes, loads, a crash) with a telemetry session attached. Checks
// that (a) the byte-conservation laws hold on the final snapshot, (b)
// the session's event histograms agree exactly with the hardware
// counters, and (c) observing did not change what became durable — the
// post-crash image is byte-identical to an unobserved twin run.
class ConservationOracle : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConservationOracle, ObservedRunConservesAndMatchesUnobserved) {
  constexpr std::uint64_t kRegion = 128 << 10;
  auto run_program = [&](PmemNamespace& ns) {
    ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 5});
    sim::Rng rng(GetParam());
    // Combined reads through a DRAM line cache interleave with the raw
    // stores/loads: the conservation laws below must keep holding with
    // the read-path layer in play (cache hits are DRAM-only and add no
    // DIMM traffic to account for).
    pmem::ReadCache rcache(ns, 128);
    pmem::LineReader reader;
    reader.attach_cache(&rcache);
    for (int op = 0; op < 1500; ++op) {
      const std::size_t len = 1 + rng.uniform(400);
      const std::uint64_t off = rng.uniform(kRegion - len);
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      switch (rng.uniform(5)) {
        case 0:
          ns.ntstore_persist(t, off, data);
          break;
        case 1:
          ns.store(t, off, data);
          break;
        case 2:
          ns.store_persist(t, off, data);
          break;
        case 3: {
          std::vector<std::uint8_t> out(len);
          ns.load(t, off, out);
          break;
        }
        case 4:
          reader.discard();  // stores above may have hit the staged span
          reader.fetch(t, ns, off, len);
          break;
      }
    }
  };

  Platform observed(hw::Timing{}, /*seed=*/9);
  telemetry::Session session(observed);
  PmemNamespace& ns_obs = observed.optane(1 << 20);
  run_program(ns_obs);

  const telemetry::Snapshot snap = telemetry::Snapshot::capture(observed);
  const hw::XpCounters c = snap.xp_total();
  const hw::Timing& tm = observed.timing();
  ASSERT_GT(c.media_write_bytes, 0u);
  EXPECT_EQ(c.media_write_bytes,
            tm.xpline * (c.evictions_full + c.evictions_partial +
                         c.wear_migrations));
  EXPECT_EQ(c.media_read_bytes,
            tm.xpline * (c.buffer_miss_reads + c.evictions_partial +
                         c.wear_migrations));
  EXPECT_EQ(c.imc_read_bytes,
            tm.cacheline * (c.buffer_hit_reads + c.buffer_miss_reads));

  // The read laws must also hold per DIMM (ERR is reported per DIMM), and
  // the ERR accessor must agree with the raw byte ratio everywhere.
  for (unsigned s = 0; s < snap.sockets(); ++s)
    for (unsigned ch = 0; ch < snap.channels(); ++ch) {
      const hw::XpCounters& d = snap.xp[s][ch].counters;
      EXPECT_EQ(d.media_read_bytes,
                tm.xpline * (d.buffer_miss_reads + d.evictions_partial +
                             d.wear_migrations))
          << "dimm (" << s << "," << ch << ")";
      EXPECT_EQ(d.imc_read_bytes,
                tm.cacheline * (d.buffer_hit_reads + d.buffer_miss_reads))
          << "dimm (" << s << "," << ch << ")";
      if (d.imc_read_bytes > 0) {
        EXPECT_DOUBLE_EQ(d.err(), static_cast<double>(d.media_read_bytes) /
                                      static_cast<double>(d.imc_read_bytes));
      }
    }

  std::uint64_t histo = 0;
  for (unsigned k = 0; k < hw::kPersistEventKinds; ++k)
    histo += session.persist_count(static_cast<hw::PersistEventKind>(k));
  EXPECT_EQ(histo, observed.persist_events());
  EXPECT_EQ(session.eviction_count(hw::EvictKind::kFull) +
                session.eviction_count(hw::EvictKind::kRewrite),
            c.evictions_full);
  EXPECT_EQ(session.eviction_count(hw::EvictKind::kPartial),
            c.evictions_partial);
  EXPECT_EQ(session.ait_miss_count(), c.ait_misses);

  Platform unobserved(hw::Timing{}, /*seed=*/9);
  PmemNamespace& ns_un = unobserved.optane(1 << 20);
  run_program(ns_un);
  EXPECT_EQ(unobserved.persist_events(), observed.persist_events());

  observed.crash();
  unobserved.crash();
  std::vector<std::uint8_t> img_obs(kRegion), img_un(kRegion);
  ns_obs.peek(0, img_obs);
  ns_un.peek(0, img_un);
  ASSERT_EQ(0, std::memcmp(img_obs.data(), img_un.data(), kRegion))
      << "telemetry changed the durable image";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationOracle,
                         ::testing::Values(23, 29, 31, 37));

// ------------------------------------------------ poison-shadow oracle --
// Random interleaving of 256 B-aligned ntstores, poison injections, ECC
// transients, loads, and scrubs against a shadow model that tracks which
// XPLines are poisoned and what the durable bytes of every healthy line
// are. Invariants at every step:
//  * a timed load of a poisoned line throws MediaError; a load of a
//    healthy tracked line returns exactly the reference bytes;
//  * a full-XPLine ntstore heals the line (poison clears, bytes known);
//  * ARS reports exactly the shadow's poison set, sorted.
// After a final crash the durable image of every healthy tracked line
// must match the reference byte-for-byte.
class PoisonShadowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoisonShadowOracle, ShadowModelAgreesAtEveryStep) {
  constexpr std::uint64_t kLineBytes = Platform::kXpLineBytes;
  constexpr std::uint64_t kLines = 256;  // 64 KB region
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 77});
  hw::FaultInjector injector(platform, GetParam());
  sim::Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);

  std::vector<std::uint8_t> ref(kLines * kLineBytes, 0);
  std::vector<bool> poisoned(kLines, false);
  // Lines whose full contents the shadow knows (never poisoned, or healed
  // by a full-line rewrite since). Poison clobbers a line with garbage
  // the model does not predict, so such lines are only membership-checked.
  std::vector<bool> known(kLines, true);

  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t line = rng.uniform(kLines);
    const std::uint64_t off = line * kLineBytes;
    switch (rng.uniform(8)) {
      case 0:
      case 1:
      case 2: {  // full-line ntstore: heals and (re)defines the line
        std::vector<std::uint8_t> data(kLineBytes);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        ns.ntstore_persist(t, off, data);
        std::memcpy(ref.data() + off, data.data(), kLineBytes);
        poisoned[line] = false;
        known[line] = true;
        break;
      }
      case 3: {  // sub-line ntstore: updates bytes, cannot heal
        std::vector<std::uint8_t> data(64);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        const std::uint64_t sub = rng.uniform(4) * 64;
        ns.ntstore_persist(t, off + sub, data);
        std::memcpy(ref.data() + off + sub, data.data(), 64);
        break;
      }
      case 4: {  // inject: line contents become unpredictable clobber
        injector.poison(ns, off);
        poisoned[line] = true;
        known[line] = false;
        break;
      }
      case 5: {  // ECC transient on a healthy line: served, not fatal
        if (!poisoned[line]) injector.mark_transient(ns, off);
        break;
      }
      case 6: {  // timed load checks the shadow's fault set and bytes
        std::vector<std::uint8_t> out(kLineBytes);
        if (poisoned[line]) {
          EXPECT_THROW(ns.load(t, off, out), hw::MediaError)
              << "op " << op << " line " << line;
        } else {
          ns.load(t, off, out);
          if (known[line]) {
            ASSERT_EQ(0, std::memcmp(out.data(), ref.data() + off,
                                     kLineBytes))
                << "op " << op << " line " << line;
          }
        }
        break;
      }
      case 7: {  // ARS must report exactly the shadow's poison set
        std::vector<std::uint64_t> want;
        for (std::uint64_t l = 0; l < kLines; ++l)
          if (poisoned[l]) want.push_back(l * kLineBytes);
        ASSERT_EQ(platform.ars(ns, 0, kLines * kLineBytes), want)
            << "op " << op;
        break;
      }
    }
  }

  platform.crash();
  std::vector<std::uint8_t> image(kLines * kLineBytes);
  ns.peek(0, image);
  for (std::uint64_t l = 0; l < kLines; ++l) {
    if (!known[l] || poisoned[l]) continue;
    ASSERT_EQ(0, std::memcmp(image.data() + l * kLineBytes,
                             ref.data() + l * kLineBytes, kLineBytes))
        << "durable line " << l << " diverged from the shadow";
  }
  // The poison set survives the crash: media failure is not volatile.
  std::vector<std::uint64_t> want;
  for (std::uint64_t l = 0; l < kLines; ++l)
    if (poisoned[l]) want.push_back(l * kLineBytes);
  EXPECT_EQ(platform.ars(ns, 0, kLines * kLineBytes), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoisonShadowOracle,
                         ::testing::Values(41, 43, 47, 53));

// ----------------------------------------- line batcher / reader --------
// LineBatcher round-trip: a randomized program of variable-size appends
// published with commit(hold) must leave the namespace byte-identical to
// issuing the same bytes as plain persisted stores.
class LineRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LineRoundTrip, BatcherMatchesPlainStores) {
  constexpr std::uint64_t kRegion = 32 << 10;
  Platform pa, pb;
  PmemNamespace& na = pa.optane(1 << 20);
  PmemNamespace& nb = pb.optane(1 << 20);
  ThreadCtx ta({.id = 0, .socket = 0, .mlp = 8, .seed = 5});
  ThreadCtx tb({.id = 0, .socket = 0, .mlp = 8, .seed = 5});
  sim::Rng rng(GetParam());

  pmem::LineBatcher batch;
  std::uint64_t cursor = 256;  // keep away from offset 0
  for (unsigned round = 0; round < 40 && cursor + 2048 < kRegion; ++round) {
    batch.reset(cursor);
    const unsigned pieces = 1 + static_cast<unsigned>(rng.uniform(6));
    std::vector<std::uint8_t> all;
    for (unsigned p = 0; p < pieces; ++p) {
      std::vector<std::uint8_t> piece(1 + rng.uniform(96));
      for (auto& b : piece) b = static_cast<std::uint8_t>(rng.uniform(256));
      batch.append(std::span<const std::uint8_t>(piece.data(), piece.size()));
      all.insert(all.end(), piece.begin(), piece.end());
    }
    const std::size_t hold = rng.uniform(std::min<std::size_t>(9, all.size()));
    batch.commit(ta, na, hold);
    na.sfence(ta);  // make the held-back commit word durable too

    nb.store_persist(tb, cursor,
                     std::span<const std::uint8_t>(all.data(), all.size()));
    cursor += all.size() + rng.uniform(128);
  }

  std::vector<std::uint8_t> da(kRegion), db(kRegion);
  na.load(ta, 0, std::span<std::uint8_t>(da.data(), da.size()));
  nb.load(tb, 0, std::span<std::uint8_t>(db.data(), db.size()));
  EXPECT_EQ(da, db);
}

// LineReader round-trip: randomized (offset, length, window) fetches —
// with and without a DRAM line cache, interleaved with stores that must
// invalidate it — always return exactly what plain loads return.
TEST_P(LineRoundTrip, ReaderMatchesPlainLoads) {
  constexpr std::uint64_t kRegion = 16 << 10;
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 9});
  sim::Rng rng(GetParam() * 31 + 7);

  std::vector<std::uint8_t> image(kRegion);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.uniform(256));
  ns.store_persist(t, 0, std::span<const std::uint8_t>(image.data(),
                                                       image.size()));

  pmem::ReadCache cache(ns, 32);
  pmem::LineReader reader;
  if (rng.uniform(2) == 0) reader.attach_cache(&cache);

  for (unsigned i = 0; i < 200; ++i) {
    if (rng.uniform(8) == 0) {
      // Overwrite a random run; the observer hook must invalidate any
      // cached lines so subsequent fetches see the new bytes.
      const std::uint64_t off = rng.uniform(kRegion - 256);
      std::vector<std::uint8_t> nw(1 + rng.uniform(200));
      for (auto& b : nw) b = static_cast<std::uint8_t>(rng.uniform(256));
      ns.store_persist(t, off,
                       std::span<const std::uint8_t>(nw.data(), nw.size()));
      std::memcpy(image.data() + off, nw.data(), nw.size());
      reader.discard();  // stores under a live staging span require this
    }
    const std::size_t len = 1 + rng.uniform(512);
    const std::uint64_t off = rng.uniform(kRegion - len);
    const std::size_t window =
        rng.uniform(2) == 0 ? 0 : len + rng.uniform(1024);
    if (rng.uniform(2) == 0) {
      const std::uint8_t* p = reader.fetch(t, ns, off, len, window);
      ASSERT_EQ(std::memcmp(p, image.data() + off, len), 0)
          << "fetch mismatch at off=" << off << " len=" << len;
    } else {
      std::vector<std::uint8_t> out(len);
      reader.read(t, ns, off, std::span<std::uint8_t>(out.data(), len),
                  window);
      ASSERT_EQ(std::memcmp(out.data(), image.data() + off, len), 0)
          << "read mismatch at off=" << off << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineRoundTrip,
                         ::testing::Values(61, 67, 71, 73));

// ---------------------------------------------------- determinism -------
TEST(Determinism, IdenticalSeedsIdenticalResults) {
  auto run_once = [] {
    Platform platform(hw::Timing{}, /*seed=*/123);
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.size = 1ull << 30;
    o.discard_data = true;
    auto& ns = platform.add_namespace(o);
    lat::WorkloadSpec spec;
    spec.op = lat::Op::kMixed;
    spec.pattern = lat::Pattern::kRand;
    spec.access_size = 256;
    spec.threads = 6;
    spec.region_size = o.size;
    spec.duration = sim::ms(1);
    spec.seed = 99;
    const lat::Result r = lat::run(platform, ns, spec);
    return std::make_tuple(r.ops, r.bytes, r.latency.max(),
                           r.xp_delta.media_write_bytes);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto run_with = [](std::uint64_t seed) {
    Platform platform;
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.size = 1ull << 30;
    o.discard_data = true;
    auto& ns = platform.add_namespace(o);
    lat::WorkloadSpec spec;
    spec.op = lat::Op::kNtStore;
    spec.pattern = lat::Pattern::kRand;
    spec.access_size = 64;
    spec.threads = 2;
    spec.region_size = o.size;
    spec.duration = sim::us(200);
    spec.seed = seed;
    return lat::run(platform, ns, spec).xp_delta.media_write_bytes;
  };
  EXPECT_NE(run_with(1), run_with(2));
}

}  // namespace
}  // namespace xp
