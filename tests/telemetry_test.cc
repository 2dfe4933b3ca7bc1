// Telemetry subsystem tests: counter arithmetic, the snapshot/delta
// registry, the conservation laws that tie every byte counter to the
// event counts that produced it, the fixed-cost sampler, and the
// Chrome-trace writer (validity, determinism, truncation).
//
// The conservation laws are the load-bearing part: they hold *exactly*
// (not statistically) because each media transfer increments its byte
// counter and its cause counter in the same call, so any future change
// that breaks the pairing fails here on every seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "lattester/runner.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "xpsim/counters.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

// ------------------------------------------------ counter arithmetic ----

hw::XpCounters make_xp(std::uint64_t base) {
  hw::XpCounters c;
  c.imc_read_bytes = base + 1;
  c.imc_write_bytes = base + 2;
  c.media_read_bytes = base + 3;
  c.media_write_bytes = base + 4;
  c.buffer_hit_reads = base + 5;
  c.buffer_miss_reads = base + 6;
  c.evictions_clean = base + 7;
  c.evictions_full = base + 8;
  c.evictions_partial = base + 9;
  c.ait_misses = base + 10;
  c.wear_migrations = base + 11;
  return c;
}

TEST(Counters, XpPlusMinusRoundTrip) {
  const hw::XpCounters a = make_xp(1000);
  const hw::XpCounters b = make_xp(17);
  hw::XpCounters sum = a;
  sum += b;
  const hw::XpCounters back = sum - b;
  EXPECT_EQ(back.imc_read_bytes, a.imc_read_bytes);
  EXPECT_EQ(back.imc_write_bytes, a.imc_write_bytes);
  EXPECT_EQ(back.media_read_bytes, a.media_read_bytes);
  EXPECT_EQ(back.media_write_bytes, a.media_write_bytes);
  EXPECT_EQ(back.buffer_hit_reads, a.buffer_hit_reads);
  EXPECT_EQ(back.buffer_miss_reads, a.buffer_miss_reads);
  EXPECT_EQ(back.evictions_clean, a.evictions_clean);
  EXPECT_EQ(back.evictions_full, a.evictions_full);
  EXPECT_EQ(back.evictions_partial, a.evictions_partial);
  EXPECT_EQ(back.ait_misses, a.ait_misses);
  EXPECT_EQ(back.wear_migrations, a.wear_migrations);
}

TEST(Counters, DramAndCacheRoundTrip) {
  hw::DramCounters d{100, 200, 300, 400}, dd{10, 20, 30, 40};
  hw::DramCounters ds = d;
  ds += dd;
  const hw::DramCounters db = ds - dd;
  EXPECT_EQ(db.read_bytes, d.read_bytes);
  EXPECT_EQ(db.write_bytes, d.write_bytes);
  EXPECT_EQ(db.row_hits, d.row_hits);
  EXPECT_EQ(db.row_misses, d.row_misses);

  hw::CacheCounters c{1, 2, 3, 4, 5, 6, 7}, cc{10, 20, 30, 40, 50, 60, 70};
  hw::CacheCounters cs = c;
  cs += cc;
  const hw::CacheCounters cb = cs - cc;
  EXPECT_EQ(cb.load_hits, c.load_hits);
  EXPECT_EQ(cb.load_misses, c.load_misses);
  EXPECT_EQ(cb.store_hits, c.store_hits);
  EXPECT_EQ(cb.store_misses, c.store_misses);
  EXPECT_EQ(cb.natural_evictions, c.natural_evictions);
  EXPECT_EQ(cb.writebacks, c.writebacks);
  EXPECT_EQ(cb.explicit_flushes, c.explicit_flushes);
}

TEST(Counters, EwrEdgeCases) {
  hw::XpCounters c;
  // No write traffic at all: nothing was amplified.
  EXPECT_DOUBLE_EQ(c.ewr(), 1.0);
  EXPECT_DOUBLE_EQ(c.write_amplification(), 1.0);
  // Interface writes still coalescing in the buffer: infinite EWR (the
  // old 99.0 sentinel is gone).
  c.imc_write_bytes = 4096;
  EXPECT_TRUE(std::isinf(c.ewr()));
  EXPECT_GT(c.ewr(), 0);
  EXPECT_DOUBLE_EQ(c.write_amplification(), 0.0);
  // Media writes with no interface writes (migration-only interval).
  hw::XpCounters m;
  m.media_write_bytes = 256;
  EXPECT_DOUBLE_EQ(m.ewr(), 0.0);
  EXPECT_TRUE(std::isinf(m.write_amplification()));
}

TEST(Counters, EwrTimesWriteAmpIsOne) {
  hw::XpCounters c;
  c.imc_write_bytes = 64 * 1000;
  c.media_write_bytes = 256 * 900;
  EXPECT_DOUBLE_EQ(c.ewr() * c.write_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(c.ewr(),
                   static_cast<double>(c.imc_write_bytes) /
                       static_cast<double>(c.media_write_bytes));
}

// ------------------------------------------------------- registry -------

TEST(Registry, SnapshotShapeMatchesTopology) {
  Platform platform;
  const telemetry::Snapshot s = telemetry::Snapshot::capture(platform);
  EXPECT_EQ(s.sockets(), platform.timing().sockets);
  EXPECT_EQ(s.channels(), platform.timing().channels_per_socket);
  ASSERT_EQ(s.dram.size(), s.xp.size());
  EXPECT_EQ(s.cache.size(), platform.timing().sockets);
}

TEST(Registry, DeltaMatchesDirectCounterSubtraction) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});

  const telemetry::Snapshot before = telemetry::Snapshot::capture(platform);
  const hw::XpCounters direct_before = ns.xp_counters();
  std::vector<std::uint8_t> buf(4096, 0xab);
  for (int i = 0; i < 64; ++i) ns.ntstore_persist(t, i * 4096, buf);
  const telemetry::Delta d =
      telemetry::Snapshot::capture(platform) - before;
  const hw::XpCounters direct = ns.xp_counters() - direct_before;

  EXPECT_EQ(d.xp_total().imc_write_bytes, direct.imc_write_bytes);
  EXPECT_EQ(d.xp_total().media_write_bytes, direct.media_write_bytes);
  EXPECT_EQ(d.xp_total().media_read_bytes, direct.media_read_bytes);
  EXPECT_GT(d.xp_total().imc_write_bytes, 0u);
  EXPECT_GT(d.persist_events, 0u);
}

TEST(Registry, DeltaGaugesComeFromIntervalEnd) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  const telemetry::Snapshot before = telemetry::Snapshot::capture(platform);
  // Partially dirty one combining line so the dirty-line gauge is live.
  std::vector<std::uint8_t> buf(64, 0x5a);
  ns.ntstore(t, 0, buf);
  const telemetry::Snapshot after = telemetry::Snapshot::capture(platform);
  const telemetry::Delta d = after - before;
  std::size_t end_dirty = 0, delta_dirty = 0;
  for (unsigned s = 0; s < after.sockets(); ++s)
    for (unsigned ch = 0; ch < after.channels(); ++ch) {
      end_dirty += after.xp[s][ch].buffer_dirty_lines;
      delta_dirty += d.xp[s][ch].buffer_dirty_lines;
    }
  EXPECT_GT(end_dirty, 0u) << "no combining line went dirty";
  EXPECT_EQ(delta_dirty, end_dirty) << "gauges must not subtract";
}

TEST(Registry, PersistEventDeltaMatchesPlatform) {
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  const telemetry::Snapshot before = telemetry::Snapshot::capture(platform);
  const std::uint64_t events_before = platform.persist_events();
  std::vector<std::uint8_t> buf(256, 1);
  for (int i = 0; i < 16; ++i) ns.store_persist(t, i * 256, buf);
  const telemetry::Delta d =
      telemetry::Snapshot::capture(platform) - before;
  EXPECT_EQ(d.persist_events, platform.persist_events() - events_before);
  EXPECT_GT(d.persist_events, 0u);
}

// ------------------------------------------------- conservation laws ----
// Every media transfer has exactly one cause the counters also record:
//   media_write_bytes == xpline * (evictions_full + evictions_partial
//                                  + wear_migrations)
//   media_read_bytes  == xpline * (buffer_miss_reads + evictions_partial
//                                  + wear_migrations)
//   imc_read_bytes    == cacheline * (buffer_hit_reads + buffer_miss_reads)
// These hold exactly at any quiescent point, per DIMM and in aggregate.

void expect_conservation(const hw::XpCounters& c, const hw::Timing& tm,
                         const char* what) {
  EXPECT_EQ(c.media_write_bytes,
            tm.xpline * (c.evictions_full + c.evictions_partial +
                         c.wear_migrations))
      << what << ": media writes not explained by evictions+migrations";
  EXPECT_EQ(c.media_read_bytes,
            tm.xpline * (c.buffer_miss_reads + c.evictions_partial +
                         c.wear_migrations))
      << what << ": media reads not explained by misses+RMW+migrations";
  EXPECT_EQ(c.imc_read_bytes,
            tm.cacheline * (c.buffer_hit_reads + c.buffer_miss_reads))
      << what << ": every iMC read must hit or miss the buffer";
}

class ConservationLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationLaws, RandomizedWorkloadConservesBytes) {
  hw::Timing timing;
  timing.wear_threshold = 64;  // low threshold so migrations participate
  Platform platform(timing, /*seed=*/GetParam());
  PmemNamespace& ns = platform.optane(1 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 7});
  sim::Rng rng(GetParam());

  constexpr std::uint64_t kRegion = 256 << 10;
  for (int op = 0; op < 4000; ++op) {
    const std::size_t len = 1 + rng.uniform(512);
    const std::uint64_t off = rng.uniform(kRegion - len);
    std::vector<std::uint8_t> data(len,
                                   static_cast<std::uint8_t>(rng.next()));
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
      case 3:
        ns.persist(t, off, len);
        break;
      case 4: {
        std::vector<std::uint8_t> out(len);
        ns.load(t, off, out);
        break;
      }
    }
  }
  // Hammer one hot XPLine so wear migrations participate in the laws
  // (spread random traffic alone rarely crosses even a low threshold).
  std::vector<std::uint8_t> line(256, 0xcc);
  for (int i = 0; i < 512; ++i) ns.ntstore_persist(t, 0, line);

  const telemetry::Snapshot s = telemetry::Snapshot::capture(platform);
  const hw::XpCounters total = s.xp_total();
  ASSERT_GT(total.media_write_bytes, 0u) << "workload wrote nothing";
  ASSERT_GT(total.wear_migrations, 0u)
      << "wear threshold never reached; migration term untested";
  expect_conservation(total, platform.timing(), "aggregate");
  for (unsigned so = 0; so < s.sockets(); ++so)
    for (unsigned ch = 0; ch < s.channels(); ++ch)
      expect_conservation(s.xp[so][ch].counters, platform.timing(),
                          "per-DIMM");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationLaws,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(ConservationLaws, HoldsForLattesterDeltas) {
  // The laws are linear, so they hold for interval deltas too —
  // lat::Result::xp_delta must satisfy them for any workload.
  Platform platform;
  hw::NamespaceOptions o;
  o.device = hw::Device::kXp;
  o.size = 1ull << 30;
  o.discard_data = true;
  auto& ns = platform.add_namespace(o);
  lat::WorkloadSpec spec;
  spec.op = lat::Op::kMixed;
  spec.pattern = lat::Pattern::kRand;
  spec.access_size = 256;
  spec.threads = 4;
  spec.region_size = o.size;
  spec.duration = sim::us(200);
  const lat::Result r = lat::run(platform, ns, spec);
  ASSERT_GT(r.xp_delta.media_write_bytes, 0u);
  expect_conservation(r.xp_delta, platform.timing(), "lat delta");
  EXPECT_DOUBLE_EQ(r.ewr, r.xp_delta.ewr());
}

// --------------------------------------------------------- session ------

lat::Result seeded_run(Platform& platform, lat::Op op) {
  hw::NamespaceOptions o;
  o.device = hw::Device::kXp;
  o.size = 256ull << 20;
  o.discard_data = true;
  auto& ns = platform.add_namespace(o);
  lat::WorkloadSpec spec;
  spec.op = op;
  spec.pattern = lat::Pattern::kRand;
  spec.access_size = 256;
  spec.threads = 2;
  spec.region_size = o.size;
  spec.duration = sim::us(200);
  spec.seed = 11;
  return lat::run(platform, ns, spec);
}

TEST(Session, AttachesAndDetaches) {
  Platform platform;
  EXPECT_EQ(platform.telemetry(), nullptr);
  {
    telemetry::Session session(platform);
    EXPECT_EQ(platform.telemetry(), &session);
    session.finish();
    EXPECT_EQ(platform.telemetry(), nullptr);
  }
  EXPECT_EQ(platform.telemetry(), nullptr);
}

TEST(Session, NewerSessionSurvivesOldFinish) {
  Platform platform;
  auto first = std::make_unique<telemetry::Session>(platform);
  telemetry::Session second(platform);  // replaces first as the sink
  first->finish();                      // must not detach `second`
  first.reset();
  EXPECT_EQ(platform.telemetry(), &second);
}

TEST(Session, PersistHistogramSumsToPlatformCount) {
  Platform platform;
  telemetry::Session session(platform);
  const std::uint64_t before = platform.persist_events();
  seeded_run(platform, lat::Op::kStoreClwb);
  std::uint64_t histo = 0;
  for (unsigned k = 0; k < hw::kPersistEventKinds; ++k)
    histo += session.persist_count(static_cast<hw::PersistEventKind>(k));
  EXPECT_EQ(histo, platform.persist_events() - before);
  EXPECT_GT(
      session.persist_count(hw::PersistEventKind::kWpqEntry) +
          session.persist_count(hw::PersistEventKind::kSfence),
      0u);
}

TEST(Session, EvictionHistogramMatchesCounters) {
  Platform platform;
  telemetry::Session session(platform);
  seeded_run(platform, lat::Op::kNtStore);
  const hw::XpCounters total =
      telemetry::Snapshot::capture(platform).xp_total();
  // A rewrite flush increments evictions_full in the hardware counters
  // but is distinguished by kind at the sink.
  EXPECT_EQ(session.eviction_count(hw::EvictKind::kFull) +
                session.eviction_count(hw::EvictKind::kRewrite),
            total.evictions_full);
  EXPECT_EQ(session.eviction_count(hw::EvictKind::kPartial),
            total.evictions_partial);
  EXPECT_EQ(session.eviction_count(hw::EvictKind::kClean),
            total.evictions_clean);
  EXPECT_EQ(session.ait_miss_count(), total.ait_misses);
  EXPECT_GT(session.eviction_count(hw::EvictKind::kFull) +
                session.eviction_count(hw::EvictKind::kPartial),
            0u);
}

TEST(Session, TimingNeutral) {
  // A platform with a session attached must produce byte-identical
  // simulated results to one without: sinks observe, never perturb.
  // Besides the mixed run, the simulator's hot paths: sequential loads
  // and ntstores, a 1 MB store+clwb flushed at its end on one DIMM, and
  // 8-thread random loads.
  auto result = [](const lat::Result& r) {
    return std::make_tuple(r.ops, r.bytes, r.latency.count(),
                           r.latency.max(), r.latency.mean(),
                           r.xp_delta.media_write_bytes,
                           r.xp_delta.imc_read_bytes, r.ewr);
  };
  auto mixed = [&](bool with_session) {
    Platform platform(hw::Timing{}, /*seed=*/123);
    std::unique_ptr<telemetry::Session> session;
    if (with_session)
      session = std::make_unique<telemetry::Session>(platform);
    return result(seeded_run(platform, lat::Op::kMixed));
  };
  EXPECT_EQ(mixed(false), mixed(true));

  struct HotPath {
    bool interleaved;
    lat::WorkloadSpec spec;
  };
  constexpr std::uint64_t kRegion = 1ull << 30;
  for (const HotPath& h : {
           HotPath{true, {.op = lat::Op::kLoad, .access_size = 256,
                          .region_size = kRegion, .duration = sim::us(400)}},
           HotPath{true, {.op = lat::Op::kNtStore, .access_size = 256,
                          .region_size = kRegion, .duration = sim::us(400)}},
           HotPath{false, {.op = lat::Op::kStoreClwb, .access_size = 1 << 20,
                           .region_size = kRegion, .flush_every = 0,
                           .duration = sim::ms(2)}},
           HotPath{true, {.op = lat::Op::kLoad, .pattern = lat::Pattern::kRand,
                          .access_size = 256, .region_size = kRegion,
                          .threads = 8, .duration = sim::us(200)}},
       }) {
    SCOPED_TRACE(static_cast<int>(h.spec.op));
    auto run_once = [&](bool with_session) {
      Platform platform;
      std::unique_ptr<telemetry::Session> session;
      if (with_session)
        session = std::make_unique<telemetry::Session>(platform);
      auto& ns = platform.add_namespace({.interleaved = h.interleaved,
                                         .size = kRegion,
                                         .discard_data = true});
      return result(lat::run(platform, ns, h.spec));
    };
    const auto plain = run_once(false);
    EXPECT_GT(std::get<0>(plain), 0u);  // the window completed ops
    EXPECT_EQ(plain, run_once(true));
  }
}

TEST(Session, CrashPointEmitsTraceEvent) {
  Platform platform;
  telemetry::Session session(
      platform, {.trace_path = ::testing::TempDir() + "crash_trace.json"});
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  platform.crash_after(5);
  std::vector<std::uint8_t> buf(64, 9);
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) ns.ntstore_persist(t, i * 64, buf);
      },
      hw::CrashPointHit);
  ASSERT_TRUE(session.tracing());
  EXPECT_NE(session.trace()->to_json().find("\"crash_point\""),
            std::string::npos);
  platform.clear_crash_trigger();
}

TEST(Session, SummaryJsonIsValidAndComplete) {
  Platform platform;
  telemetry::Session session(platform);
  seeded_run(platform, lat::Op::kNtStore);
  session.finish();
  const std::string j = session.summary_json();
  // Structural validity: balanced brackets outside strings, no bare
  // non-finite literals (JSON has no inf/nan).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at byte " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(j.find("inf"), std::string::npos);
  EXPECT_EQ(j.find("nan"), std::string::npos);
  for (const char* key :
       {"\"counters\"", "\"ewr\"", "\"persist_events\"",
        "\"buffer_evictions\"", "\"ait_misses\"", "\"timeline\"",
        "\"dimm_labels\"", "\"sample_interval_us\""})
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  // Fault-free runs must not grow a media-fault section: the summary
  // format is byte-stable unless the injector was actually used.
  EXPECT_EQ(j.find("\"media_faults\""), std::string::npos);
}

TEST(Session, MediaFaultSectionAppearsOnlyWithFaults) {
  Platform platform;
  telemetry::Session session(
      platform, {.trace_path = ::testing::TempDir() + "fault_trace.json"});
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});

  hw::FaultInjector injector(platform, /*seed=*/3);
  injector.poison(ns, 512);
  injector.poison(ns, 256);
  injector.poison(ns, 512);  // idempotent: no second kPoisoned event
  std::vector<std::uint8_t> buf(64);
  EXPECT_THROW(ns.load(t, 256, buf), hw::MediaError);
  platform.clear_media_fault();
  platform.reset_timing();
  const auto bad = platform.ars(ns, 0, ns.size());
  EXPECT_EQ(bad.size(), 2u);

  using hw::MediaFaultKind;
  EXPECT_EQ(session.media_fault_count(MediaFaultKind::kPoisoned), 2u);
  EXPECT_EQ(session.media_fault_count(MediaFaultKind::kUncorrectable), 1u);
  EXPECT_EQ(session.media_fault_count(MediaFaultKind::kScrubFound), 2u);
  // The ARS bad-line list is sorted and deduplicated even across repeated
  // scrubs of the same still-poisoned namespace.
  platform.ars(ns, 0, ns.size());
  ASSERT_EQ(session.ars_bad_lines().size(), 2u);
  EXPECT_EQ(session.ars_bad_lines()[0], 256u);
  EXPECT_EQ(session.ars_bad_lines()[1], 512u);

  session.finish();
  const std::string j = session.summary_json();
  EXPECT_NE(j.find("\"media_faults\""), std::string::npos);
  EXPECT_NE(j.find("\"poisoned\":2"), std::string::npos);
  EXPECT_NE(j.find("\"uncorrectable\":1"), std::string::npos);
  EXPECT_NE(j.find("\"ars_bad_lines\":[256,512]"), std::string::npos);
  // Chrome-trace instants carry the affected line offset.
  ASSERT_TRUE(session.tracing());
  const std::string trace = session.trace()->to_json();
  EXPECT_NE(trace.find("\"uncorrectable\""), std::string::npos);
  EXPECT_NE(trace.find("\"scrub_found\""), std::string::npos);
  EXPECT_NE(trace.find("\"line_off\":256"), std::string::npos);
}

// The instant events ("ph":"i") of a Chrome-trace document, in order.
std::vector<std::string> trace_instants(const std::string& json) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = json.find('[') + 1; i < json.size(); ++i) {
    if (json[i] == '{' && depth++ == 0) start = i;
    if (json[i] != '}' || --depth != 0) continue;
    std::string event = json.substr(start, i + 1 - start);
    if (event.find("\"ph\":\"i\"") != std::string::npos)
      out.push_back(std::move(event));
  }
  return out;
}

TEST(Session, SummaryAndTraceNameEveryEventKind) {
  // One event of every kind of every family, sent straight through the
  // sink interface, pins the bytes each kind leaves in the summary's count
  // sections and in the trace. ARS scrubs and cache invalidations carry
  // t == 0, as the devices emit them.
  Platform platform;
  const std::string path = ::testing::TempDir() + "every_kind_trace.json";
  telemetry::Session session(platform, {.trace_path = path});
  hw::TelemetrySink& sink = session;
  sim::Time t = 0;
  const auto next = [&t] { return t += sim::ns(1); };
  for (unsigned k = 0; k < hw::kPersistEventKinds; ++k)
    sink.persist_event(static_cast<hw::PersistEventKind>(k), next(), 100 + k);
  for (unsigned k = 0; k < 4; ++k)
    sink.buffer_eviction(static_cast<hw::EvictKind>(k), next(), 1, k);
  sink.ait_miss(next(), 0, 5);
  sink.crash_fired(next(), 104);
  for (unsigned k = 0; k < hw::kMediaFaultKinds; ++k) {
    const auto kind = static_cast<hw::MediaFaultKind>(k);
    const bool ars = kind == hw::MediaFaultKind::kScrubFound;
    sink.media_fault(kind, ars ? 0 : next(), 1, 2, 256 * (k + 1));
  }
  sink.media_fault(hw::MediaFaultKind::kScrubFound, 0, 1, 2, 1280);
  const std::uint64_t read_bytes[] = {512, 24, 256, 256, 256};
  for (unsigned k = 0; k < hw::kReadPathEventKinds; ++k) {
    const auto kind = static_cast<hw::ReadPathEventKind>(k);
    const bool untimed = kind == hw::ReadPathEventKind::kCacheInvalidate;
    sink.read_path(kind, untimed ? 0 : next(), read_bytes[k]);
  }
  for (unsigned k = 0; k < hw::kResilienceEventKinds; ++k) {
    const auto kind = static_cast<hw::ResilienceEventKind>(k);
    sink.resilience(kind, next(),
                    kind == hw::ResilienceEventKind::kUnavailable
                        ? hw::kResilienceNoShard
                        : k);
  }
  for (unsigned k = 0; k < sim::kNumSchedPoints; ++k) sink.sched_point(k, 0);
  ASSERT_TRUE(session.finish());
  std::remove(path.c_str());

  const std::string j = session.summary_json();
  const std::size_t from = j.find("\"persist_events\"");
  const std::size_t to = j.find("\"dimm_labels\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  EXPECT_EQ(
      j.substr(from, to - from),
      R"("persist_events":{"wpq_entry":1,"ntstore_drain":1,"writeback":1,)"
      R"("coherence_flush":1,"sfence":1,"total":5},)"
      R"("buffer_evictions":{"clean":1,"full":1,"partial":1,"rewrite":1},)"
      R"("ait_misses":1,"crash_points":1,)"
      R"("media_faults":{"ecc_corrected":1,"poisoned":1,"uncorrectable":1,)"
      R"("cleared_by_write":1,"scrub_found":2,"ars_bad_lines":[1280]},)"
      R"("resilience":{"shards_degraded":1,"shards_quarantined":1,)"
      R"("shards_rebuilding":1,"shards_recovered":1,"failover_reads":1,)"
      R"("op_retries":1,"ops_unavailable":1,"keys_resilvered":1},)"
      R"("read_path":{"combined_fetches":1,"staged_serves":1,)"
      R"("cache_hit_lines":1,"cache_fill_lines":1,"cache_invalidations":1,)"
      R"("combined_fetch_bytes":512,"staged_serve_bytes":24},)"
      R"("schedmc":{"op_begin":1,"fence":1,"batch_commit":1,)"
      R"("cache_invalidate":1,"lock_acquire":1,"lock_release":1,)"
      R"("lane_acquire":1,"lane_release":1,"handoff":1,"total":9},)");

  const std::vector<std::string> expected = {
      R"({"name":"wpq_entry","cat":"persist","ph":"i",)"
      R"("ts":0.001000,"s":"t","pid":0,"tid":0,"args":{"seq":100}})",
      R"({"name":"ntstore_drain","cat":"persist","ph":"i",)"
      R"("ts":0.002000,"s":"t","pid":0,"tid":0,"args":{"seq":101}})",
      R"({"name":"writeback","cat":"persist","ph":"i",)"
      R"("ts":0.003000,"s":"t","pid":0,"tid":0,"args":{"seq":102}})",
      R"({"name":"coherence_flush","cat":"persist","ph":"i",)"
      R"("ts":0.004000,"s":"t","pid":0,"tid":0,"args":{"seq":103}})",
      R"({"name":"sfence","cat":"persist","ph":"i",)"
      R"("ts":0.005000,"s":"t","pid":0,"tid":0,"args":{"seq":104}})",
      R"({"name":"evict_clean","cat":"xpbuffer","ph":"i",)"
      R"("ts":0.006000,"s":"t","pid":1,"tid":0})",
      R"({"name":"evict_full","cat":"xpbuffer","ph":"i",)"
      R"("ts":0.007000,"s":"t","pid":1,"tid":1})",
      R"({"name":"evict_partial","cat":"xpbuffer","ph":"i",)"
      R"("ts":0.008000,"s":"t","pid":1,"tid":2})",
      R"({"name":"evict_rewrite","cat":"xpbuffer","ph":"i",)"
      R"("ts":0.009000,"s":"t","pid":1,"tid":3})",
      R"({"name":"ait_miss","cat":"ait","ph":"i",)"
      R"("ts":0.010000,"s":"t","pid":0,"tid":5})",
      R"({"name":"crash_point","cat":"crashmc","ph":"i",)"
      R"("ts":0.011000,"s":"t","pid":0,"tid":0,"args":{"persist_event":104}})",
      R"({"name":"ecc_corrected","cat":"media_fault","ph":"i",)"
      R"("ts":0.012000,"s":"t","pid":1,"tid":2,"args":{"line_off":256}})",
      R"({"name":"poisoned","cat":"media_fault","ph":"i",)"
      R"("ts":0.013000,"s":"t","pid":1,"tid":2,"args":{"line_off":512}})",
      R"({"name":"uncorrectable","cat":"media_fault","ph":"i",)"
      R"("ts":0.014000,"s":"t","pid":1,"tid":2,"args":{"line_off":768}})",
      R"({"name":"cleared_by_write","cat":"media_fault","ph":"i",)"
      R"("ts":0.015000,"s":"t","pid":1,"tid":2,"args":{"line_off":1024}})",
      R"({"name":"scrub_found","cat":"media_fault","ph":"i",)"
      R"("ts":0.000000,"s":"t","pid":1,"tid":2,"args":{"line_off":1280}})",
      R"({"name":"scrub_found","cat":"media_fault","ph":"i",)"
      R"("ts":0.000000,"s":"t","pid":1,"tid":2,"args":{"line_off":1280}})",
      R"({"name":"combined_fetches","cat":"read_path","ph":"i",)"
      R"("ts":0.016000,"s":"t","pid":0,"tid":0,"args":{"bytes":512}})",
      R"({"name":"staged_serves","cat":"read_path","ph":"i",)"
      R"("ts":0.017000,"s":"t","pid":0,"tid":0,"args":{"bytes":24}})",
      R"({"name":"cache_hit_lines","cat":"read_path","ph":"i",)"
      R"("ts":0.018000,"s":"t","pid":0,"tid":0,"args":{"bytes":256}})",
      R"({"name":"cache_fill_lines","cat":"read_path","ph":"i",)"
      R"("ts":0.019000,"s":"t","pid":0,"tid":0,"args":{"bytes":256}})",
      R"({"name":"cache_invalidations","cat":"read_path","ph":"i",)"
      R"("ts":0.000000,"s":"t","pid":0,"tid":0,"args":{"bytes":256}})",
      R"({"name":"shards_degraded","cat":"resilience","ph":"i",)"
      R"("ts":0.020000,"s":"t","pid":0,"tid":0,"args":{"shard":0}})",
      R"({"name":"shards_quarantined","cat":"resilience","ph":"i",)"
      R"("ts":0.021000,"s":"t","pid":0,"tid":0,"args":{"shard":1}})",
      R"({"name":"shards_rebuilding","cat":"resilience","ph":"i",)"
      R"("ts":0.022000,"s":"t","pid":0,"tid":0,"args":{"shard":2}})",
      R"({"name":"shards_recovered","cat":"resilience","ph":"i",)"
      R"("ts":0.023000,"s":"t","pid":0,"tid":0,"args":{"shard":3}})",
      R"({"name":"failover_reads","cat":"resilience","ph":"i",)"
      R"("ts":0.024000,"s":"t","pid":0,"tid":0,"args":{"shard":4}})",
      R"({"name":"op_retries","cat":"resilience","ph":"i",)"
      R"("ts":0.025000,"s":"t","pid":0,"tid":0,"args":{"shard":5}})",
      R"({"name":"ops_unavailable","cat":"resilience","ph":"i",)"
      R"("ts":0.026000,"s":"t","pid":0,"tid":0,"args":{}})",
      R"({"name":"keys_resilvered","cat":"resilience","ph":"i",)"
      R"("ts":0.027000,"s":"t","pid":0,"tid":0,"args":{"shard":7}})",
  };
  EXPECT_EQ(trace_instants(session.trace()->to_json()), expected);
}

// --------------------------------------------------------- sampler ------

TEST(Sampler, DecimationBoundsMemoryAndKeepsCoverage) {
  Platform platform;
  telemetry::Sampler sampler(platform, {.interval = sim::us(1),
                                        .capacity = 16});
  // Drive far more intervals than the ring holds.
  for (std::uint64_t us = 1; us <= 4096; ++us) sampler.tick(sim::us(us));
  EXPECT_LE(sampler.samples().size(), 16u);
  EXPECT_GE(sampler.samples().size(), 4u);
  EXPECT_GT(sampler.decimations(), 0u);
  EXPECT_GT(sampler.interval(), sim::us(1)) << "interval must coarsen";
  // The surviving timeline still spans the run, and every sample keeps
  // every DIMM (the trace's counter tracks index them all).
  EXPECT_GE(sampler.samples().back().t, sim::us(2048));
  for (const telemetry::Sampler::Sample& s : sampler.samples())
    EXPECT_EQ(s.dimms.size(), sampler.dimms()) << "sample at " << s.t;
}

TEST(Sampler, SamplesAreMonotone) {
  Platform platform;
  PmemNamespace& ns = platform.optane(16 << 20);
  ThreadCtx t({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  telemetry::Sampler sampler(platform, {.interval = sim::us(1),
                                        .capacity = 64});
  std::vector<std::uint8_t> buf(256, 3);
  for (int i = 0; i < 512; ++i) {
    ns.ntstore_persist(t, (i * 256) % (1 << 20), buf);
    sampler.tick(t.now());
  }
  const auto& samples = sampler.samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t, samples[i - 1].t);
    ASSERT_EQ(samples[i].dimms.size(), samples[i - 1].dimms.size());
    for (std::size_t d = 0; d < samples[i].dimms.size(); ++d) {
      EXPECT_GE(samples[i].dimms[d].imc_write_bytes,
                samples[i - 1].dimms[d].imc_write_bytes);
      EXPECT_GE(samples[i].dimms[d].media_write_bytes,
                samples[i - 1].dimms[d].media_write_bytes);
      EXPECT_GE(samples[i].dimms[d].imc_read_bytes,
                samples[i - 1].dimms[d].imc_read_bytes);
      EXPECT_GE(samples[i].dimms[d].media_read_bytes,
                samples[i - 1].dimms[d].media_read_bytes);
    }
  }
}

TEST(Sampler, IgnoresNonMonotoneClocks) {
  // reset_timing() restarts thread clocks at zero on reused platforms;
  // the sampler must not record a sample that goes back in time.
  Platform platform;
  telemetry::Sampler sampler(platform, {.interval = sim::us(1),
                                        .capacity = 16});
  sampler.sample(sim::us(100));
  sampler.sample(sim::us(50));  // stale clock: ignored
  sampler.sample(sim::us(100));  // duplicate: ignored
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_EQ(sampler.samples().back().t, sim::us(100));
}

// ----------------------------------------------------------- trace ------

TEST(Trace, WriterEmitsLoadableJson) {
  telemetry::TraceWriter w;
  w.name_process(0, "socket0");
  w.name_thread(0, 2, "channel2");
  w.instant("ait_miss", "xpdimm", sim::us(1), 0, 2);
  w.counter("queues", sim::us(2), 0, 2, "{\"wpq\":3,\"rpq\":1}");
  w.complete("lattester", "run", sim::us(1), sim::us(9), 0, 0);
  const std::string j = w.to_json();
  EXPECT_EQ(j.find("Infinity"), std::string::npos);
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("\"wpq\":3"), std::string::npos);
  // ts is microseconds with fixed 6-digit fraction: us(2) == 2.000000.
  EXPECT_NE(j.find("\"ts\":2.000000"), std::string::npos);
}

TEST(Trace, TruncationIsRecorded) {
  telemetry::TraceWriter w(/*max_events=*/4);
  for (int i = 0; i < 10; ++i)
    w.instant("e", "cat", sim::us(i), 0, 0);
  EXPECT_EQ(w.events(), 4u);
  EXPECT_EQ(w.dropped(), 6u);
  const std::string j = w.to_json();
  EXPECT_NE(j.find("trace_truncated"), std::string::npos);
  EXPECT_NE(j.find("\"dropped_events\":6"), std::string::npos);
}

TEST(Trace, SameSeedSameTraceBytes) {
  auto trace_once = [] {
    Platform platform(hw::Timing{}, /*seed=*/7);
    telemetry::Session session(
        platform,
        {.trace_path = ::testing::TempDir() + "determinism_trace.json"});
    seeded_run(platform, lat::Op::kMixed);
    session.finish();
    return session.trace()->to_json();
  };
  const std::string a = trace_once();
  const std::string b = trace_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed must give byte-identical traces";
}

TEST(Trace, PointPathInsertsIndexBeforeExtension) {
  EXPECT_EQ(telemetry::trace_point_path("out/run.json", 7),
            "out/run.point0007.json");
  EXPECT_EQ(telemetry::trace_point_path("trace", 3), "trace.point0003");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(telemetry::trace_point_path("a.b/trace", 0),
            "a.b/trace.point0000");
  EXPECT_EQ(telemetry::trace_point_path("", 5), "");
}

TEST(Trace, PathFromArgsAndEnvironment) {
  const char* argv1[] = {"bench", "--trace", "x.json"};
  EXPECT_EQ(telemetry::trace_path_from_args(3,
                                            const_cast<char**>(argv1)),
            "x.json");
  const char* argv2[] = {"bench", "--trace=y.json"};
  EXPECT_EQ(telemetry::trace_path_from_args(2,
                                            const_cast<char**>(argv2)),
            "y.json");
  const char* argv3[] = {"bench"};
  ASSERT_EQ(unsetenv("XP_TRACE"), 0);
  EXPECT_EQ(telemetry::trace_path_from_args(1,
                                            const_cast<char**>(argv3)),
            "");
  ASSERT_EQ(setenv("XP_TRACE", "env.json", 1), 0);
  EXPECT_EQ(telemetry::trace_path_from_args(1,
                                            const_cast<char**>(argv3)),
            "env.json");
  // An explicit argument wins over the environment.
  EXPECT_EQ(telemetry::trace_path_from_args(3,
                                            const_cast<char**>(argv1)),
            "x.json");
  unsetenv("XP_TRACE");
}

TEST(Trace, PathFromArgsRejectsMissingPath) {
  const char* a1[] = {"bench", "--trace"};
  EXPECT_EXIT(telemetry::trace_path_from_args(2, const_cast<char**>(a1)),
              ::testing::ExitedWithCode(2),
              "invalid trace path '' from --trace");
  const char* a2[] = {"bench", "--trace="};
  EXPECT_EXIT(telemetry::trace_path_from_args(2, const_cast<char**>(a2)),
              ::testing::ExitedWithCode(2),
              "invalid trace path '' from --trace");
}

TEST(Trace, PathFromArgsRejectsMissingDirectory) {
  const char* a1[] = {"bench", "--trace", "/no/such/dir/t.json"};
  EXPECT_EXIT(telemetry::trace_path_from_args(3, const_cast<char**>(a1)),
              ::testing::ExitedWithCode(2),
              "invalid trace path '/no/such/dir/t.json' from --trace");
  ASSERT_EQ(setenv("XP_TRACE", "/no/such/dir/t.json", 1), 0);
  const char* a2[] = {"bench"};
  EXPECT_EXIT(telemetry::trace_path_from_args(1, const_cast<char**>(a2)),
              ::testing::ExitedWithCode(2),
              "invalid trace path '/no/such/dir/t.json' from XP_TRACE");
  unsetenv("XP_TRACE");
}

TEST(Trace, FailedWriteNamesThePath) {
  Platform platform;
  const std::string path = ::testing::TempDir() + "no_such_dir/t.json";
  telemetry::Session session(platform, {.trace_path = path});
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(session.finish());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(path),
            std::string::npos);
}

TEST(Trace, FileWriteRoundTrip) {
  Platform platform;
  const std::string path = ::testing::TempDir() + "roundtrip_trace.json";
  telemetry::Session session(platform, {.trace_path = path});
  seeded_run(platform, lat::Op::kNtStore);
  ASSERT_TRUE(session.finish());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    content.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(content, session.trace()->to_json());
  EXPECT_NE(content.find("ntstore_drain"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xp
