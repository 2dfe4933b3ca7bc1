#include "bench.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "lattester/runner.h"
#include "telemetry/session.h"

namespace perfbench {

using namespace xp;

namespace {

constexpr struct {
  Workload w;
  const char* name;
} kWorkloads[] = {
    {Workload::kKvUpdate, "kv-update"},
    {Workload::kKvRead, "kv-read"},
    {Workload::kKvScan, "kv-scan"},
    {Workload::kDeviceCalib, "device-calib"},
};

// Background turns the end-of-run drain may donate before it gives up
// (the run then reports the debt as not drained and fails its check).
constexpr std::uint64_t kMaxDrainTurns = 100000;

// Flush every XPBuffer so media bytes of a phase are counted in full.
void drain_xp_buffers(hw::Platform& p, sim::Time t) {
  for (unsigned s = 0; s < p.timing().sockets; ++s)
    for (unsigned c = 0; c < p.timing().channels_per_socket; ++c) {
      auto& d = p.xp_dimm(s, c);
      d.buffer().flush_all(t, d.counters());
    }
}

// Coarse sampling: the benchmark reads the session's event counts, not
// its timelines.
void attach_session(std::optional<telemetry::Session>& tel,
                    hw::Platform& platform) {
  telemetry::Options opts;
  opts.sample_interval = sim::ms(1);
  tel.emplace(platform, opts);
}

PersistCounts persist_counts(const telemetry::Session& tel) {
  PersistCounts out{};
  for (unsigned k = 0; k < hw::kPersistEventKinds; ++k)
    out[k] = tel.persist_count(static_cast<hw::PersistEventKind>(k));
  return out;
}

std::vector<std::uint64_t> fields(const hw::XpCounters& c) {
  return {c.imc_read_bytes,    c.imc_write_bytes,  c.media_read_bytes,
          c.media_write_bytes, c.buffer_hit_reads, c.buffer_miss_reads,
          c.evictions_clean,   c.evictions_full,   c.evictions_partial,
          c.ait_misses,        c.wear_migrations};
}

std::vector<std::uint64_t> fields(const hw::CacheCounters& c) {
  return {c.load_hits,         c.load_misses, c.store_hits,
          c.store_misses,      c.natural_evictions, c.writebacks,
          c.explicit_flushes};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return w.w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  for (const auto& e : kWorkloads)
    if (e.w == w) return e.name;
  return "?";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double reference_cpu_s() {
  constexpr std::uint64_t kKeys = 1 << 20;
  auto next = [](std::uint64_t& x) {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  static const std::unordered_map<std::uint64_t, std::uint64_t> map = [&] {
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < (1 << 18); ++i) {
      const std::uint64_t k = next(x);
      m[k % kKeys] = k;
    }
    return m;
  }();
  const double c0 = cpu_seconds();
  std::uint64_t x = 2463534242ull, sum = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    const auto it = map.find(next(x) % kKeys);
    if (it != map.end()) sum += it->second;
  }
  const double t = cpu_seconds() - c0;
  static volatile std::uint64_t sink;
  sink = sum;  // keeps the lookups from being optimized away
  return t;
}

double at_reference_speed(double cpu_s, const std::vector<double>& ref_s) {
  return cpu_s * kReferenceCpuS / median(ref_s);
}

// ---- KV mixes ---------------------------------------------------------------

KvConfig kv_config(Workload w, std::uint64_t seed) {
  KvConfig cfg;
  workload::Spec& s = cfg.spec;
  switch (w) {
    case Workload::kKvUpdate:
      // YCSB A, zipfian 0.99: the write path (WAL, memtable flushes,
      // inline L0 compaction, WPQ admission, XPBuffer write-combining)
      // under a shared hot set.
      s = workload::ycsb('A');
      s.records = 20000;
      s.ops = 200000;
      break;
    case Workload::kKvRead:
      // YCSB B with uniform keys over a dataset no cache in front of the
      // media can hold (regime_ok): the get path with no shared hot set.
      s = workload::ycsb('B');
      s.dist = workload::Spec::Dist::kUniform;
      s.records = 80000;
      s.ops = 8000;
      break;
    case Workload::kKvScan:
      // YCSB E: scans of at most 16 rows that merge the memtable and every
      // SSTable of every shard; store logic and the frontend dominate.
      s = workload::ycsb('E');
      s.records = 4000;
      s.ops = 1200;
      break;
    case Workload::kDeviceCalib:
      break;
  }
  s.value_len = 100;
  s.seed = seed;
  return cfg;
}

Regime regime(const KvConfig& cfg) {
  const hw::Timing tm;  // device defaults: the XPBuffer size
  const workload::StoreTuning tuning;  // the read cache a read path holds
  Regime r;
  r.dataset_bytes = static_cast<double>(cfg.spec.records) *
                    static_cast<double>(workload::key_name(0).size() +
                                        cfg.spec.value_len);
  r.over_llc = r.dataset_bytes / static_cast<double>(cfg.llc_lines * 64);
  r.over_xpbuffer =
      r.dataset_bytes /
      static_cast<double>(cfg.shards * tm.xpbuffer_lines *
                          hw::Platform::kXpLineBytes);
  r.over_read_cache =
      r.dataset_bytes /
      static_cast<double>(cfg.shards * tuning.read_cache_lines *
                          hw::Platform::kXpLineBytes);
  return r;
}

bool regime_ok(const Regime& r) {
  return r.over_llc >= kMinOverLlc && r.over_xpbuffer >= kMinOverXpBuffer &&
         r.over_read_cache >= kMinOverReadCache;
}

double CallStats::sim_us_per_call() const {
  double total = 0;
  for (sim::Time t : sim) total += sim::to_us(t);
  return ratio(total, static_cast<double>(calls()));
}

double CallStats::host_us_per_call() const {
  return ratio(host_s * 1e6, static_cast<double>(calls()));
}

template <typename F>
auto TracedStore::span(CallStats& c, sim::ThreadCtx& ctx, F&& f) {
  const sim::Time t0 = ctx.now();
  const Clock::time_point h0 = Clock::now();
  auto r = f();
  c.host_s += seconds_since(h0);
  c.sim.push_back(ctx.now() - t0);
  return r;
}

bool TracedStore::background_turn(sim::ThreadCtx& ctx) {
  return span(spans_.bg, ctx, [&] { return inner_.background_turn(ctx); });
}

workload::OpResult TracedStore::try_put(sim::ThreadCtx& ctx,
                                        std::string_view key,
                                        std::string_view value) {
  return span(spans_.put, ctx,
              [&] { return inner_.try_put(ctx, key, value); });
}

workload::OpResult TracedStore::try_get(sim::ThreadCtx& ctx,
                                        std::string_view key,
                                        std::string* value) {
  return span(spans_.get, ctx,
              [&] { return inner_.try_get(ctx, key, value); });
}

workload::OpResult TracedStore::try_del(sim::ThreadCtx& ctx,
                                        std::string_view key, bool* found) {
  return span(spans_.put, ctx,
              [&] { return inner_.try_del(ctx, key, found); });
}

workload::OpResult TracedStore::try_scan(
    sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
    std::vector<std::pair<std::string, std::string>>* out) {
  const workload::OpResult r = span(
      spans_.scan, ctx, [&] { return inner_.try_scan(ctx, start, n, out); });
  if (r.ok()) spans_.scan.rows += out->size();
  return r;
}

workload::OpResult TracedStore::try_apply_batch(
    sim::ThreadCtx& ctx, std::span<const workload::BatchOp> ops) {
  return span(spans_.put, ctx,
              [&] { return inner_.try_apply_batch(ctx, ops); });
}

double KvSim::sim_kops() const {
  return ratio(static_cast<double>(res.ops) * 1e9,
               static_cast<double>(res.elapsed + drain));
}

double KvSim::media_write_amp(const workload::Spec& spec) const {
  const double user_bytes =
      static_cast<double>(res.updates + res.inserts + res.rmws) *
      static_cast<double>(workload::key_name(0).size() + spec.value_len);
  return ratio(static_cast<double>(delta.xp_total().media_write_bytes),
               user_bytes);
}

bool same_sim(const KvSim& a, const KvSim& b) {
  const workload::Result& x = a.res;
  const workload::Result& y = b.res;
  // corruptions are only counted with the read oracle on; they must be
  // zero on every run anyway (checked separately).
  return x.ops == y.ops && x.reads == y.reads && x.read_hits == y.read_hits &&
         x.updates == y.updates && x.inserts == y.inserts &&
         x.rmws == y.rmws && x.scans == y.scans &&
         x.scanned_items == y.scanned_items &&
         x.typed_errors == y.typed_errors && x.failovers == y.failovers &&
         x.retries == y.retries && x.elapsed == y.elapsed &&
         x.p50 == y.p50 && x.p99 == y.p99 && x.checksum == y.checksum &&
         a.drain == b.drain && a.drain_turns == b.drain_turns &&
         a.drained == b.drained &&
         fields(a.delta.xp_total()) == fields(b.delta.xp_total()) &&
         fields(a.delta.cache_total()) == fields(b.delta.cache_total()) &&
         a.delta.persist_events == b.delta.persist_events;
}

KvRun run_kv(const KvConfig& cfg, bool traced) {
  KvRun out;
  out.ref_s[0] = reference_cpu_s();
  const double c0 = cpu_seconds();
  hw::Timing tm;
  tm.llc_lines = cfg.llc_lines;
  hw::Platform platform(tm, /*seed=*/1);
  const auto shard_ns = workload::ShardedStore::make_namespaces(
      platform, cfg.shards, cfg.shard_bytes);
  workload::ShardedStore store(shard_ns, workload::ShardOptions{});
  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = 1});
  store.create(setup);
  workload::load(store, cfg.spec, setup);
  // The load leaves the LLC and XPBuffers holding its tail; the measured
  // phase starts a fresh timing epoch with the load's media bytes counted.
  platform.reset_timing();
  setup.drain();
  drain_xp_buffers(platform, setup.now());
  out.setup_s = cpu_seconds() - c0;
  out.ref_s[1] = reference_cpu_s();

  std::optional<telemetry::Session> tel;
  if (traced) attach_session(tel, platform);
  TracedStore deco(store);
  workload::StoreIface& target =
      traced ? static_cast<workload::StoreIface&>(deco) : store;
  workload::EngineOptions eo;
  eo.threads = cfg.clients;
  eo.validate_reads = traced;

  const telemetry::Snapshot s0 = telemetry::Snapshot::capture(platform);
  const double c1 = cpu_seconds();
  const Clock::time_point h0 = Clock::now();
  out.sim.res = workload::run(target, cfg.spec, eo);
  out.run_host_s = seconds_since(h0);

  // Honest end-of-run accounting: retire any deferred background work
  // from the moment the last client finished, and charge its time.
  sim::ThreadCtx after({.id = 200, .socket = 0, .mlp = 8, .seed = 2});
  after.advance_to(out.sim.res.elapsed);
  while (out.sim.drain_turns < kMaxDrainTurns && target.background_turn(after))
    ++out.sim.drain_turns;
  out.sim.drained = out.sim.drain_turns < kMaxDrainTurns;
  after.drain();
  out.sim.drain = after.now() - out.sim.res.elapsed;
  out.host_s = cpu_seconds() - c1;
  out.ref_s[2] = reference_cpu_s();

  drain_xp_buffers(platform, after.now());
  out.sim.delta = telemetry::Snapshot::capture(platform) - s0;
  if (tel) {
    tel->finish();
    out.persist = persist_counts(*tel);
    out.spans = deco.spans();
  }
  out.check = store.check(after);
  return out;
}

std::uint64_t failed_ops(const workload::Result& r) {
  return r.typed_errors + r.corruptions;
}

// ---- device calibration -----------------------------------------------------

double CalPoint::err_pct() const {
  return std::abs(sim - paper) / paper * 100.0;
}

double DeviceRun::sim_kops() const {
  return ratio(static_cast<double>(accesses) * 1e9,
               static_cast<double>(window));
}

double DeviceRun::media_write_amp() const {
  return ratio(static_cast<double>(xp.media_write_bytes),
               static_cast<double>(xp.imc_write_bytes));
}

double model_err_pct(const std::vector<CalPoint>& points, Subset s) {
  double sum = 0;
  unsigned n = 0;
  for (const CalPoint& p : points) {
    if ((s == Subset::kTargets && !p.target) ||
        (s == Subset::kHeldBack && p.target))
      continue;
    sum += p.err_pct();
    ++n;
  }
  return ratio(sum, n);
}

bool same_sim(const DeviceRun& a, const DeviceRun& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    if (a.points[i].sim != b.points[i].sim) return false;
  return a.accesses == b.accesses && a.window == b.window &&
         fields(a.xp) == fields(b.xp) && fields(a.cache) == fields(b.cache);
}

std::vector<CalPoint> reference_points() {
  // The paper's Optane values as EXPERIMENTS.md lists them. timing.h is
  // calibrated to the Fig 2 latencies and the per-DIMM (non-interleaved)
  // Fig 4 peaks; the interleaved peaks are held back: nothing is fitted
  // to them.
  return {
      {"fig2_read_seq", "ns", 169, true},
      {"fig2_read_rand", "ns", 305, true},
      {"fig2_ntstore", "ns", 90, true},
      {"fig2_clwb", "ns", 62, true},
      {"fig4_ni_read", "GB/s", 6.6, true},     // 4 threads
      {"fig4_ni_ntstore", "GB/s", 2.3, true},  // 1-4 threads
      {"fig4_read", "GB/s", 39, false},        // 16 threads
      {"fig4_ntstore", "GB/s", 13, false},     // 4-8 threads
      {"fig4_clwb", "GB/s", 10, false},        // 12 threads
  };
}

DeviceRun run_device(std::uint64_t seed, bool traced) {
  DeviceRun out;
  out.points = reference_points();
  out.ref_s[0] = reference_cpu_s();

  // Runs one kernel, folding its windowed accesses and host time in.
  auto measure = [&](hw::Platform& platform, hw::PmemNamespace& ns,
                     const lat::WorkloadSpec& spec) {
    const double c0 = cpu_seconds();
    const lat::Result r = lat::run(platform, ns, spec);
    out.host_s += cpu_seconds() - c0;
    out.accesses += r.ops;
    out.window += r.window;
    return r;
  };
  // Folds a platform's counters (and session) in once its points are done.
  auto retire = [&](hw::Platform& platform, const telemetry::Snapshot& s0,
                    std::optional<telemetry::Session>& tel) {
    drain_xp_buffers(platform, sim::ms(10));
    const telemetry::Delta d = telemetry::Snapshot::capture(platform) - s0;
    out.xp += d.xp_total();
    out.cache += d.cache_total();
    if (tel) {
      tel->finish();
      const PersistCounts p = persist_counts(*tel);
      for (unsigned k = 0; k < hw::kPersistEventKinds; ++k)
        out.persist[k] += p[k];
    }
  };

  // Fig 2: single thread, one access in flight, a fence after every
  // access, the four kernels in turn on one interleaved namespace.
  {
    const double c0 = cpu_seconds();
    hw::Platform platform;
    hw::PmemNamespace& ns = platform.optane(512 << 20);
    out.setup_s += cpu_seconds() - c0;
    std::optional<telemetry::Session> tel;
    if (traced) attach_session(tel, platform);
    const telemetry::Snapshot s0 = telemetry::Snapshot::capture(platform);

    lat::WorkloadSpec spec;
    spec.region_size = 256 << 20;
    spec.threads = 1;
    spec.mlp = 1;
    spec.fence_each_op = true;
    spec.duration = sim::ms(1);
    spec.seed = seed;
    auto idle = [&](std::size_t point, lat::Op op, lat::Pattern pattern) {
      spec.op = op;
      spec.pattern = pattern;
      out.points[point].sim = measure(platform, ns, spec).avg_latency_ns();
    };
    idle(0, lat::Op::kLoad, lat::Pattern::kSeq);
    idle(1, lat::Op::kLoad, lat::Pattern::kRand);
    idle(2, lat::Op::kNtStore, lat::Pattern::kSeq);
    // The line is cache-resident before its store + clwb + fence.
    spec.region_size = 64 << 10;
    idle(3, lat::Op::kStoreClwb, lat::Pattern::kRand);
    retire(platform, s0, tel);
  }

  // Fig 4: 256 B sequential accesses at the paper's peak thread count, each
  // point on a fresh platform.
  struct Peak {
    std::size_t point;
    bool interleaved;
    lat::Op op;
    unsigned threads;
  };
  constexpr Peak kPeaks[] = {
      {4, false, lat::Op::kLoad, 4},      {5, false, lat::Op::kNtStore, 2},
      {6, true, lat::Op::kLoad, 16},      {7, true, lat::Op::kNtStore, 8},
      {8, true, lat::Op::kStoreClwb, 12},
  };
  for (const Peak& p : kPeaks) {
    const double c0 = cpu_seconds();
    hw::Platform platform;
    hw::NamespaceOptions o;
    o.interleaved = p.interleaved;
    o.size = std::uint64_t{8} << 30;
    o.discard_data = true;
    hw::PmemNamespace& ns = platform.add_namespace(o);
    out.setup_s += cpu_seconds() - c0;
    std::optional<telemetry::Session> tel;
    if (traced) attach_session(tel, platform);
    const telemetry::Snapshot s0 = telemetry::Snapshot::capture(platform);

    lat::WorkloadSpec spec;
    spec.op = p.op;
    spec.pattern = lat::Pattern::kSeq;
    spec.access_size = 256;
    spec.threads = p.threads;
    spec.region_size = o.size;
    spec.duration = sim::ms(1);
    spec.seed = seed;
    out.points[p.point].sim = measure(platform, ns, spec).bandwidth_gbps;
    retire(platform, s0, tel);
  }
  out.ref_s[1] = reference_cpu_s();
  return out;
}

// ---- statistics -------------------------------------------------------------

namespace {

Percentile nearest_rank(std::vector<sim::Time>& v, double q) {
  Percentile p;
  p.q = q;
  p.n = v.size();
  if (v.empty()) return p;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  p.us = sim::to_us(v[k]);
  p.valid = true;
  return p;
}

}  // namespace

Percentile p50(std::vector<sim::Time> v) { return nearest_rank(v, 0.5); }

Percentile tail(std::vector<sim::Time> v) {
  for (double q : {0.999, 0.99}) {
    const double beyond =
        static_cast<double>(v.size()) -
        std::ceil(q * static_cast<double>(v.size()));
    if (beyond >= 10) return nearest_rank(v, q);
  }
  Percentile none;
  none.n = v.size();
  return none;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace perfbench
