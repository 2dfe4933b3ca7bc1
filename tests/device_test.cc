// Device-level unit tests: Media (wear, migration stalls), AitCache,
// XpBuffer coalescing/EWR mechanics, XpDimm queues and stream trackers,
// DramDimm row buffers, the UPI link, and the XPLine error model
// (poison, ECC transients, ARS, wear-out coupling).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "xpsim/dram_dimm.h"
#include "xpsim/fault.h"
#include "xpsim/media.h"
#include "xpsim/platform.h"
#include "xpsim/timing.h"
#include "xpsim/upi.h"
#include "xpsim/xpbuffer.h"
#include "xpsim/xpdimm.h"

namespace xp::hw {
namespace {

using sim::Time;
using sim::ThreadCtx;

ThreadCtx fault_thread() {
  return ThreadCtx({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
}

std::vector<std::uint8_t> fill_bytes(std::size_t n, std::uint8_t v) {
  return std::vector<std::uint8_t>(n, v);
}

bool all_zero(const std::vector<std::uint8_t>& v) {
  return std::accumulate(v.begin(), v.end(), 0u) == 0u;
}

// ------------------------------------------------------------------ Media
TEST(Media, ReadOccupiesBank) {
  Timing t;
  Media media(t);
  XpCounters c;
  const auto g1 = media.read_line(0, 0, c);
  EXPECT_EQ(g1.start, 0u);
  EXPECT_EQ(g1.end, t.xp_media_read);
  EXPECT_EQ(c.media_read_bytes, t.xpline);
}

TEST(Media, BanksLimitThroughput) {
  Timing t;
  Media media(t);
  XpCounters c;
  // xp_banks requests run concurrently; the next one queues.
  for (unsigned i = 0; i < t.xp_banks; ++i) {
    EXPECT_EQ(media.read_line(0, i, c).start, 0u);
  }
  EXPECT_EQ(media.read_line(0, 99, c).start, t.xp_media_read);
}

TEST(Media, WearTriggersMigrationAndStall) {
  Timing t;
  t.wear_threshold = 4;
  Media media(t);
  XpCounters c;
  for (int i = 0; i < 3; ++i) media.write_line(0, 7, c);
  EXPECT_EQ(c.wear_migrations, 0u);
  EXPECT_EQ(media.stall_until(), 0u);
  media.write_line(0, 7, c);  // 4th write: migration
  EXPECT_EQ(c.wear_migrations, 1u);
  EXPECT_GE(media.stall_until(), t.wear_migration);
  // The controller gate delays requests during the stall.
  EXPECT_EQ(media.gate(0), media.stall_until());
  EXPECT_EQ(media.gate(media.stall_until() + 1), media.stall_until() + 1);
}

TEST(Media, WearIsPerLine) {
  Timing t;
  t.wear_threshold = 2;
  Media media(t);
  XpCounters c;
  media.write_line(0, 1, c);
  media.write_line(0, 2, c);
  EXPECT_EQ(c.wear_migrations, 0u);
  EXPECT_EQ(media.wear_of(1), 1u);
  EXPECT_EQ(media.wear_of(2), 1u);
  EXPECT_EQ(media.wear_of(3), 0u);
}

// --------------------------------------------------------------- AitCache
TEST(AitCache, LruEviction) {
  AitCache ait(2);
  EXPECT_FALSE(ait.access(1));
  EXPECT_FALSE(ait.access(2));
  EXPECT_TRUE(ait.access(1));   // 1 is now MRU
  EXPECT_FALSE(ait.access(3));  // evicts 2
  EXPECT_TRUE(ait.access(1));
  EXPECT_FALSE(ait.access(2));  // 2 was evicted
}

TEST(AitCache, RegionPastCapacityEvictsExactlyTheLru) {
  const unsigned entries = Timing{}.ait_cache_entries;
  AitCache ait(entries);
  for (std::uint64_t r = 0; r < entries; ++r) EXPECT_FALSE(ait.access(r));
  EXPECT_TRUE(ait.access(0));  // region 1 is now the least recent
  EXPECT_FALSE(ait.access(entries));
  EXPECT_EQ(ait.size(), entries);
  // Every region but 1 is still cached; touching them evicts nothing.
  EXPECT_TRUE(ait.access(0));
  for (std::uint64_t r = 2; r <= entries; ++r)
    ASSERT_TRUE(ait.access(r)) << r;
  EXPECT_FALSE(ait.access(1));  // evicts 0, now the least recent
  EXPECT_FALSE(ait.access(0));
}

// ---------------------------------------------------------------- XpBuffer
struct BufferFixture : ::testing::Test {
  BufferFixture() : media(timing), buffer(timing, media) {}
  Timing timing;
  Media media;
  XpBuffer buffer;
  XpCounters c;
};

TEST_F(BufferFixture, CoalescesFullLineToOneMediaWrite) {
  // Four 64 B writes to one XPLine, then force eviction by filling the
  // buffer: exactly one 256 B media write.
  for (unsigned sub = 0; sub < 4; ++sub) buffer.write64(0, 0, sub, c);
  buffer.flush_all(sim::us(1), c);
  EXPECT_EQ(c.media_write_bytes, timing.xpline);
  EXPECT_EQ(c.evictions_full, 1u);
  EXPECT_EQ(c.evictions_partial, 0u);
}

TEST_F(BufferFixture, PartialEvictionIsRmw) {
  buffer.write64(0, 0, 0, c);  // one dirty sub-block
  buffer.flush_all(sim::us(1), c);
  EXPECT_EQ(c.evictions_partial, 1u);
  EXPECT_EQ(c.media_read_bytes, timing.xpline);   // the read of the RMW
  EXPECT_EQ(c.media_write_bytes, timing.xpline);
}

TEST_F(BufferFixture, FullRewriteFlushesPreviousVersion) {
  for (unsigned sub = 0; sub < 4; ++sub) buffer.write64(0, 0, sub, c);
  // Fifth write to the (fully dirty) line starts a fresh combining round
  // and pushes the old version to media.
  buffer.write64(sim::us(1), 0, 0, c);
  EXPECT_EQ(c.media_write_bytes, timing.xpline);
  EXPECT_EQ(buffer.occupancy(), 1u);
}

TEST_F(BufferFixture, ReadMissFetchesAndInstalls) {
  const Time done = buffer.read64(0, 5, c);
  EXPECT_GE(done, timing.xp_media_read);
  EXPECT_EQ(c.buffer_miss_reads, 1u);
  EXPECT_TRUE(buffer.contains(5));
  buffer.read64(done, 5, c);
  EXPECT_EQ(c.buffer_hit_reads, 1u);
}

TEST_F(BufferFixture, CapacityLruEviction) {
  for (std::uint64_t line = 0; line < timing.xpbuffer_lines; ++line)
    buffer.write64(line * 10, line, 0, c);
  EXPECT_EQ(buffer.occupancy(), timing.xpbuffer_lines);
  // One more allocation evicts the LRU entry (line 0).
  buffer.write64(sim::us(100), 9999, 0, c);
  EXPECT_FALSE(buffer.contains(0));
  EXPECT_TRUE(buffer.contains(9999));
  EXPECT_EQ(c.evictions_partial, 1u);
}

TEST_F(BufferFixture, ReadsCompeteForSpace) {
  // Fill the buffer with clean (read-installed) lines; a write allocation
  // evicts one of them for free.
  for (std::uint64_t line = 0; line < timing.xpbuffer_lines; ++line)
    buffer.read64(line, 1000 + line, c);
  buffer.write64(sim::us(100), 1, 0, c);
  EXPECT_EQ(c.evictions_clean, 1u);
  EXPECT_EQ(c.media_write_bytes, 0u);
}

TEST_F(BufferFixture, AfterResetTimingMissesEvictInSlotOrder) {
  // reset_timing() ties every entry at last touch 0, so a miss evicts the
  // lowest slot still at 0, and the eviction moves the last slot's line
  // into the hole. Lines 0..63 sit in slots 0..63: the first miss evicts
  // line 0 and moves line 63 to slot 0, the second evicts line 63 and
  // moves the first new line (touched after the reset) there, and from
  // then on slots 1, 2, ... go in order.
  for (std::uint64_t line = 0; line < timing.xpbuffer_lines; ++line)
    buffer.write64(line * 10, line, 0, c);
  buffer.reset_timing();
  const std::uint64_t order[] = {0, timing.xpbuffer_lines - 1, 1, 2, 3};
  for (std::size_t k = 0; k < std::size(order); ++k) {
    EXPECT_TRUE(buffer.contains(order[k])) << k;
    buffer.read64(sim::us(1), 1000 + k, c);
    EXPECT_FALSE(buffer.contains(order[k])) << k;
    EXPECT_EQ(buffer.occupancy(), timing.xpbuffer_lines);
  }
  EXPECT_EQ(c.evictions_partial, std::size(order));
}

TEST_F(BufferFixture, EvictionKindsKeepTheirCounters) {
  for (unsigned sub = 0; sub < 4; ++sub) buffer.write64(0, 1, sub, c);
  buffer.write64(0, 2, 0, c);     // partial
  buffer.read64(0, 3, c);         // clean
  buffer.write64(sim::us(1), 1, 2, c);  // rewrite of a full line
  EXPECT_EQ(c.evictions_full, 1u);
  EXPECT_EQ(buffer.dirty_lines(), 2u);
  // Full, partial and clean evictions through capacity pressure: the
  // oldest touches go first.
  for (unsigned sub = 0; sub < 4; ++sub) buffer.write64(sim::us(2), 4, sub, c);
  for (std::uint64_t line = 100; line < 100 + timing.xpbuffer_lines; ++line)
    buffer.write64(sim::us(3), line, 0, c);
  EXPECT_EQ(c.evictions_clean, 1u);
  EXPECT_EQ(c.evictions_full, 2u);
  EXPECT_EQ(c.evictions_partial, 2u);
  EXPECT_EQ(c.buffer_miss_reads, 1u);
  // Conservation: every media write is one eviction of a dirty line.
  EXPECT_EQ(c.media_write_bytes,
            timing.xpline * (c.evictions_full + c.evictions_partial));
  EXPECT_EQ(c.media_read_bytes,
            timing.xpline * (c.buffer_miss_reads + c.evictions_partial));
}

// ------------------------------------------------------------------ XpDimm
TEST(XpDimm, WriteAckDecoupledFromMedia) {
  Timing t;
  XpDimm dimm(t);
  // An isolated 64 B write commits in well under the media write time.
  const Time ack = dimm.write64(0, 0, /*thread=*/0);
  EXPECT_LT(ack, t.xp_media_write);
  EXPECT_EQ(dimm.counters().imc_write_bytes, 64u);
}

TEST(XpDimm, PerThreadCreditLimitsPipelining) {
  Timing t;
  XpDimm dimm(t);
  // Issue many writes from one thread at t=0: the (k+1)-th write waits
  // for the k-credit-th ack, so acks space out.
  for (int i = 0; i < 12; ++i) dimm.write64(0, i * 64, 0);
  // A second thread is not blocked behind the first thread's credit
  // (writing into an already-open XPLine, so no allocation penalty),
  // while thread 0's next write must wait out its credit window.
  const Time other = dimm.write64(0, 0, /*thread=*/1);
  const Time thread0_next = dimm.write64(0, 12 * 64, /*thread=*/0);
  EXPECT_LT(other, thread0_next);
}

TEST(XpDimm, UntrackedStreamPaysAllocationPenalty) {
  Timing t;
  XpDimm dimm(t);
  // Warm the tracker with 4 writer threads.
  for (unsigned thr = 0; thr < 4; ++thr)
    dimm.write64(0, thr * 4096, thr);
  const Time tracked = dimm.write64(sim::us(2), 0 * 4096 + 256, 0) -
                       sim::us(2);
  // A 5th thread's allocation is untracked: slower.
  const Time untracked = dimm.write64(sim::us(4), 5 * 4096, 7) - sim::us(4);
  EXPECT_GT(untracked, tracked + t.xp_write_stream_miss / 2);
}

TEST(XpDimm, ReadLatencyBufferHitVsMiss) {
  Timing t;
  XpDimm dimm(t);
  const Time miss = dimm.read64(0, 0, 0);
  const Time t1 = sim::us(2);
  const Time hit = dimm.read64(t1, 64, 0) - t1;  // same XPLine
  EXPECT_GT(miss, hit * 2);
}

// ---------------------------------------------------------------- DramDimm
TEST(DramDimm, RowHitFasterThanMiss) {
  Timing t;
  DramDimm dimm(t);
  const Time miss = dimm.read64(0, 0);
  const Time t1 = sim::us(1);
  const Time hit = dimm.read64(t1, 64) - t1;  // same row
  EXPECT_GT(miss, hit);
  EXPECT_EQ(dimm.counters().row_hits, 1u);
  EXPECT_EQ(dimm.counters().row_misses, 1u);
}

TEST(DramDimm, PmepSlowdownScalesWrites) {
  Timing t;
  DramDimm fast(t);
  DramDimm slow(t);
  // The ack itself is queue-bound, but the drain occupies banks 8x
  // longer; hammer one bank and watch the WPQ back up.
  Time fast_last = 0, slow_last = 0;
  for (int i = 0; i < 200; ++i) {
    fast_last = fast.write64(0, 0, 1.0);
    slow_last = slow.write64(0, 0, 8.0);
  }
  EXPECT_GT(slow_last, fast_last);
}

// -------------------------------------------------------------------- UPI
TEST(Upi, TransfersSerializePerDirection) {
  Timing t;
  UpiLink upi(t);
  const Time a = upi.outbound(0, sim::ns(10));
  const Time b = upi.outbound(0, sim::ns(10));
  EXPECT_EQ(a, sim::ns(10));
  EXPECT_EQ(b, sim::ns(20));
  // Inbound is independent.
  EXPECT_EQ(upi.inbound(0, sim::ns(10)), sim::ns(10));
}

TEST(Upi, HoldBlocksLaterOutbound) {
  Timing t;
  UpiLink upi(t);
  upi.outbound(0, sim::ns(5));
  upi.hold_outbound(sim::us(1));
  EXPECT_GE(upi.outbound(sim::ns(10), sim::ns(5)), sim::us(1));
}

TEST(Upi, ResetClearsState) {
  Timing t;
  UpiLink upi(t);
  upi.hold_outbound(sim::ms(1));
  upi.reset_timing();
  EXPECT_EQ(upi.outbound(0, sim::ns(5)), sim::ns(5));
}

// -------------------------------------------------------------- MediaFault
TEST(MediaFault, PoisonedTimedReadThrowsAndImageIsClobbered) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  const auto data = fill_bytes(Platform::kXpLineBytes, 0xab);
  ns.ntstore_persist(t, 1024, data);

  FaultInjector injector(platform);
  injector.poison(ns, 1024 + 64);  // any offset inside the line

  // The durable bytes are gone: an uncorrectable line has no data, so
  // untimed peeks see a deterministic clobber, never the stale payload.
  std::vector<std::uint8_t> img(Platform::kXpLineBytes);
  ns.peek(1024, img);
  EXPECT_NE(img, data);

  std::vector<std::uint8_t> out(64);
  try {
    ns.load(t, 1024, out);
    FAIL() << "poisoned read did not throw";
  } catch (const MediaError& e) {
    EXPECT_EQ(e.line_off, 1024u);
    EXPECT_EQ(e.socket, 0u);
  }
  EXPECT_EQ(ns.xp_counters().lines_poisoned, 1u);
  EXPECT_EQ(ns.xp_counters().uncorrectable_reads, 1u);
}

TEST(MediaFault, RfoStoreToPoisonedLineThrows) {
  // A sub-line store must read-for-ownership first, so it cannot merge
  // new bytes into a poisoned line silently — the fill takes the fault.
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  FaultInjector injector(platform);
  injector.poison(ns, 2048);
  const auto data = fill_bytes(64, 0x11);
  EXPECT_THROW(ns.store(t, 2048, data), MediaError);
}

TEST(MediaFault, FullLineNtstoreClearsPoison) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  FaultInjector injector(platform);
  injector.poison(ns, 512);
  ASSERT_TRUE(platform.line_poisoned(ns, 512));

  const auto fresh = fill_bytes(Platform::kXpLineBytes, 0x5a);
  ns.ntstore_persist(t, 512, fresh);  // 256 B overwrite re-establishes ECC
  EXPECT_FALSE(platform.line_poisoned(ns, 512));
  EXPECT_EQ(ns.xp_counters().poison_cleared, 1u);

  std::vector<std::uint8_t> out(Platform::kXpLineBytes);
  ns.load(t, 512, out);
  EXPECT_EQ(out, fresh);
}

TEST(MediaFault, PartialNtstoreRetainsPoison) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  FaultInjector injector(platform);
  injector.poison(ns, 512);

  // 64 B of the 256 B XPLine: ECC cannot be re-established from a
  // partial write, the line stays bad.
  ns.ntstore(t, 512, fill_bytes(64, 0x5a));
  ns.sfence(t);
  EXPECT_TRUE(platform.line_poisoned(ns, 512));
  std::vector<std::uint8_t> out(64);
  EXPECT_THROW(ns.load(t, 512 + 128, out), MediaError);
}

TEST(MediaFault, PoisonDropsDirtyCachedCopies) {
  // Bytes dirty in the CPU cache above a line that fails are lost: the
  // poison clobber wins and a later flush of the dead line is a no-op.
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  const auto data = fill_bytes(64, 0x77);
  ns.store(t, 4096, data);  // dirty in cache only

  FaultInjector injector(platform);
  injector.poison(ns, 4096);
  platform.crash();
  std::vector<std::uint8_t> out(64);
  ns.peek(4096, out);
  EXPECT_NE(out, data);
}

TEST(MediaFault, ArsReportsSortedBadLinesInRange) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  FaultInjector injector(platform);
  injector.poison(ns, 2048);
  injector.poison(ns, 256);
  injector.poison(ns, 1792);

  const auto all = platform.ars(ns, 0, ns.size());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 256u);
  EXPECT_EQ(all[1], 1792u);
  EXPECT_EQ(all[2], 2048u);
  // Range queries are clamped to [off, off+len).
  const auto low = platform.ars(ns, 0, 1024);
  ASSERT_EQ(low.size(), 1u);
  EXPECT_EQ(low[0], 256u);
  EXPECT_EQ(ns.xp_counters().lines_scrubbed, 4u);
}

TEST(MediaFault, TouchesBadLineEdges) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  FaultInjector injector(platform);
  injector.poison(ns, 1024);
  injector.poison(ns, 4096);
  const auto bad = platform.ars(ns, 0, ns.size());
  const auto scrubbed = ns.xp_counters().lines_scrubbed;

  // A range that ends exactly where a bad line starts misses it; one
  // more byte touches it.
  EXPECT_FALSE(Platform::touches_bad_line(bad, 768, 256));
  EXPECT_TRUE(Platform::touches_bad_line(bad, 768, 257));
  // A range straddling a clean line and a bad one touches it; one
  // straddling two clean lines does not.
  EXPECT_TRUE(Platform::touches_bad_line(bad, 1000, 100));
  EXPECT_FALSE(Platform::touches_bad_line(bad, 1500, 1000));
  // Like ars(), the range starts at the line holding `off`.
  EXPECT_TRUE(Platform::touches_bad_line(bad, 4351, 1));
  EXPECT_FALSE(Platform::touches_bad_line(bad, 4352, 4096));
  // A lookup is no scrub: the firmware counter stays put.
  EXPECT_EQ(ns.xp_counters().lines_scrubbed, scrubbed);
}

TEST(MediaFault, EccTransientCorrectsExactlyOnce) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  const auto data = fill_bytes(Platform::kXpLineBytes, 0x3c);
  ns.ntstore_persist(t, 0, data);  // bypasses cache: next load is a miss

  FaultInjector injector(platform);
  injector.mark_transient(ns, 0);
  std::vector<std::uint8_t> out(Platform::kXpLineBytes);
  ns.load(t, 0, out);
  EXPECT_EQ(out, data);  // corrected: data served normally
  EXPECT_EQ(ns.xp_counters().ecc_corrected, 1u);

  platform.crash();  // drop the cached copy so the next load refetches
  ns.load(t, 0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(ns.xp_counters().ecc_corrected, 1u);  // one-shot event
}

TEST(MediaFault, WearCouplingFailsWornLine) {
  // A line whose AIT migration count crosses the configured threshold
  // goes uncorrectable on its next write (paper §2.1 lifetime limits).
  Timing timing;
  timing.wear_threshold = 8;
  Platform platform(timing);
  PmemNamespace& ns = platform.optane_ni(1 << 20);
  ThreadCtx t = fault_thread();
  FaultInjector injector(platform);
  injector.set_wear_fail_migrations(1);

  const auto sub = fill_bytes(64, 0x99);
  bool poisoned = false;
  // Partial (64 B) writes so the eventual poison is not immediately
  // cleared by a full-line overwrite. Cycling the four sub-blocks makes
  // the line fully dirty every fourth write, so the next write starts a
  // fresh combining round and pushes the old version to media — each
  // round is one media write accruing wear on the hot line.
  for (int i = 0; i < 20000 && !poisoned; ++i) {
    ns.ntstore(t, (i % 4) * 64, sub);
    ns.sfence(t);
    poisoned = platform.line_poisoned(ns, 0);
  }
  ASSERT_TRUE(poisoned) << "wear coupling never fired";
  EXPECT_GE(ns.xp_counters().wear_migrations, 1u);
  std::vector<std::uint8_t> out(64);
  EXPECT_THROW(ns.load(t, 0, out), MediaError);
}

TEST(MediaFault, PoisonMaterializesSparseImageLine) {
  // Poisoning a never-written line must materialize exactly that line in
  // the sparse backing image: its peek shows the clobber while untouched
  // neighbours keep reading back as zeros.
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20);
  const std::uint64_t off = 1 << 20;
  FaultInjector injector(platform);
  injector.poison(ns, off);

  std::vector<std::uint8_t> line(Platform::kXpLineBytes);
  ns.peek(off, line);
  EXPECT_FALSE(all_zero(line));
  ns.peek(off + Platform::kXpLineBytes, line);
  EXPECT_TRUE(all_zero(line));
  ns.peek(off - Platform::kXpLineBytes, line);
  EXPECT_TRUE(all_zero(line));

  // Healing the line by full overwrite makes it readable again.
  ThreadCtx t = fault_thread();
  const auto fresh = fill_bytes(Platform::kXpLineBytes, 0xe1);
  ns.ntstore_persist(t, off, fresh);
  std::vector<std::uint8_t> out(Platform::kXpLineBytes);
  ns.load(t, off, out);
  EXPECT_EQ(out, fresh);
}

TEST(MediaFault, PartialBufferEvictionOfHealedLineKeepsData) {
  // XPBuffer partial-line evictions RMW against the media image; after a
  // poison + full-line heal, the merged result must be the healed bytes
  // (stale pre-poison data must not resurface through the buffer).
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  ns.ntstore_persist(t, 0, fill_bytes(Platform::kXpLineBytes, 0xaa));

  FaultInjector injector(platform);
  injector.poison(ns, 0);
  ns.ntstore_persist(t, 0, fill_bytes(Platform::kXpLineBytes, 0xbb));

  // One dirty 64 B sub-block, then force it out through the buffer: the
  // eviction is a partial RMW against the healed line.
  ns.ntstore(t, 64, fill_bytes(64, 0xcc));
  ns.sfence(t);
  platform.crash();  // drains buffers; durable image is the merge

  std::vector<std::uint8_t> out(Platform::kXpLineBytes);
  ns.peek(0, out);
  std::vector<std::uint8_t> want(Platform::kXpLineBytes, 0xbb);
  std::fill(want.begin() + 64, want.begin() + 128, 0xcc);
  EXPECT_EQ(out, want);
}

TEST(MediaFault, ArmedInjectorFiresOnExactReadIndex) {
  Platform platform;
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t = fault_thread();
  ns.ntstore_persist(t, 0, fill_bytes(4096, 1));

  FaultInjector injector(platform);
  injector.arm_nth_device_read(3);
  std::vector<std::uint8_t> out(64);
  // Each load of a fresh line is one device read (cache misses).
  ns.load(t, 0, out);
  ns.load(t, 256, out);
  EXPECT_FALSE(platform.media_fault_fired());
  EXPECT_THROW(ns.load(t, 512, out), MediaError);
  EXPECT_TRUE(platform.media_fault_fired());
  EXPECT_TRUE(platform.line_poisoned(ns, 512));

  // The machine check models process death: the platform is frozen until
  // the fault is acknowledged, then the poisoned line is still bad.
  platform.clear_media_fault();
  platform.reset_timing();
  EXPECT_THROW(ns.load(t, 512, out), MediaError);
}

}  // namespace
}  // namespace xp::hw
