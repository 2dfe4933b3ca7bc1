// perfbench driver: runs one workload for a host-time budget, prints its
// metrics, and ends with one JSON line holding the result.
//
//   perfbench --workload kv-update|kv-read|kv-scan|device-calib
//             [--seed N] [--seconds S] [--trace 0|1]
//
// A run repeats the workload's fixed-length simulation, each repetition
// from a fresh platform, until --seconds of wall time have passed (and at
// least kMinReps times). Simulated metrics come from the first repetition
// and every later one must repeat them bit for bit; host metrics are the
// median over the repetitions of CPU seconds scaled to reference host
// speed (perfbench::at_reference_speed). --trace 0 reports the end-to-end metrics
// (BENCHMARK.json "end_to_end"). --trace 1 then runs the same workload and
// seed once more with spans around every store call and background turn
// and a telemetry session attached, and reports the per-layer metrics
// ("per_layer") from that traced run, whose simulated results must equal
// the untraced ones exactly.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;
using namespace xp;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<std::string> problems;  // any entry makes the run incorrect
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void require(bool ok, std::string what) {
    if (!ok) problems.push_back(std::move(what));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(
        {std::move(name), std::isfinite(value) ? value : 0, std::move(unit)});
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Calls rep(i) until `budget_s` of host time is spent and at least
// kMinReps repetitions ran.
template <typename F>
int repeat_for(double budget_s, F&& rep) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  while (n < kMaxReps) {
    rep(n++);
    if (n >= kMinReps && seconds_since(t0) >= budget_s) break;
  }
  return n;
}

void print_spread(const char* what, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::printf("  %s: min %.4f median %.4f max %.4f over %zu samples\n", what,
              v.front(), median(v), v.back(), v.size());
}

void print_host(const std::vector<double>& host_s,
                const std::vector<double>& setup_s,
                const std::vector<double>& refs) {
  print_spread("host CPU s per run", host_s);
  print_spread("setup CPU s per run", setup_s);
  print_spread("reference kernel s", refs);
  std::printf("  host speed: %.3fx reference\n", kReferenceCpuS / median(refs));
}

// Inputs of the per-layer metrics. A field a workload has no layer for
// stays zero: the KV mixes have no calibration points, device-calib has
// no store.
struct Layers {
  double ops = 0;  // store calls (KV) or memory accesses (device-calib)
  hw::XpCounters xp;
  hw::CacheCounters cache;
  PersistCounts persist{};
  double ewr_min_dimm = 0;
  TracedStore::Spans spans;
  double host_self_s = 0;
  double drain_turns = 0;
  double drain_us = 0;
  double failed_op_ratio = 0;
  double tracing_overhead_pct = 0;
  std::vector<CalPoint> points;  // empty on the KV mixes
  double host_ns_per_access = 0;
};

void add_percentile(Report& rep, const char* name, const Percentile& p) {
  if (p.valid)
    std::printf("  %-16s %12.4f us  (p%g of %llu samples)\n", name, p.us,
                p.q * 100, static_cast<unsigned long long>(p.n));
  else
    std::printf("  %-16s n/a (%llu samples)\n", name,
                static_cast<unsigned long long>(p.n));
  rep.add(name, p.valid ? p.us : 0, "us");
}

void add_layers(Report& rep, const Layers& l) {
  std::printf("per-layer (traced run):\n");
  add_percentile(rep, "read_p50_us", p50(l.spans.get.sim));
  add_percentile(rep, "read_tail_us", tail(l.spans.get.sim));
  add_percentile(rep, "write_p50_us", p50(l.spans.put.sim));
  add_percentile(rep, "write_tail_us", tail(l.spans.put.sim));
  add_percentile(rep, "scan_p50_us", p50(l.spans.scan.sim));
  add_percentile(rep, "scan_tail_us", tail(l.spans.scan.sim));
  rep.add("failed_op_ratio", l.failed_op_ratio, "ratio");
  rep.add("model_err_pct", model_err_pct(l.points), "%");

  rep.add("workload.host_self_s", l.host_self_s, "s");
  rep.add("workload.tracing_overhead_pct", l.tracing_overhead_pct, "%");

  auto calls = [&](const char* op, const CallStats& c) {
    const std::string base = std::string("store.") + op;
    rep.add(base + ".calls", static_cast<double>(c.calls()), "count");
    rep.add(base + ".sim_us", c.sim_us_per_call(), "us");
    rep.add(base + ".host_us", c.host_us_per_call(), "us");
  };
  calls("get", l.spans.get);
  calls("put", l.spans.put);
  calls("scan", l.spans.scan);
  rep.add("store.scan.rows",
          ratio(static_cast<double>(l.spans.scan.rows),
                static_cast<double>(l.spans.scan.calls())),
          "count");
  double bg_sim_us = 0;
  for (sim::Time t : l.spans.bg.sim) bg_sim_us += sim::to_us(t);
  rep.add("store.bg.turns", l.drain_turns, "count");
  rep.add("store.bg.sim_ms", bg_sim_us / 1e3, "ms");
  rep.add("store.bg.host_ms", l.spans.bg.host_s * 1e3, "ms");
  rep.add("store.debt_drain_us", l.drain_us, "us");

  auto per_op = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), l.ops);
  };
  auto share = [](std::uint64_t part, std::uint64_t rest) {
    return ratio(static_cast<double>(part), static_cast<double>(part + rest));
  };
  rep.add("cache.load_miss_ratio",
          share(l.cache.load_misses, l.cache.load_hits), "ratio");
  rep.add("cache.store_miss_ratio",
          share(l.cache.store_misses, l.cache.store_hits), "ratio");
  rep.add("cache.writebacks_per_op", per_op(l.cache.writebacks), "count");
  rep.add("cache.flushes_per_op", per_op(l.cache.explicit_flushes), "count");
  rep.add("imc.read_bytes_per_op", per_op(l.xp.imc_read_bytes), "B");
  rep.add("imc.write_bytes_per_op", per_op(l.xp.imc_write_bytes), "B");
  rep.add("xpbuffer.read_hit_ratio",
          share(l.xp.buffer_hit_reads, l.xp.buffer_miss_reads), "ratio");
  rep.add("xpbuffer.evict_partial_per_op", per_op(l.xp.evictions_partial),
          "count");
  rep.add("xpbuffer.evict_full_per_op", per_op(l.xp.evictions_full), "count");
  rep.add("ait.misses_per_op", per_op(l.xp.ait_misses), "count");
  rep.add("media.read_bytes_per_op", per_op(l.xp.media_read_bytes), "B");
  rep.add("media.write_bytes_per_op", per_op(l.xp.media_write_bytes), "B");
  rep.add("media.ewr", l.xp.ewr(), "ratio");
  rep.add("media.err", l.xp.err(), "ratio");
  rep.add("media.ewr_min_dimm", l.ewr_min_dimm, "ratio");
  auto persist = [&](hw::PersistEventKind k) {
    return per_op(l.persist[static_cast<unsigned>(k)]);
  };
  rep.add("persist.sfence_per_op", persist(hw::PersistEventKind::kSfence),
          "count");
  rep.add("persist.wpq_entry_per_op", persist(hw::PersistEventKind::kWpqEntry),
          "count");
  rep.add("persist.ntstore_drain_per_op",
          persist(hw::PersistEventKind::kNtStoreDrain), "count");

  rep.add("lattester.host_ns_per_access", l.host_ns_per_access, "ns");
  for (const CalPoint& ref : reference_points()) {
    double err = 0;
    for (const CalPoint& p : l.points)
      if (std::strcmp(p.name, ref.name) == 0) err = p.err_pct();
    rep.add(std::string("calib.") + ref.name + ".err_pct", err, "%");
  }
}

// ---- KV mixes ---------------------------------------------------------------

void run_kv_workload(Workload w, std::uint64_t seed, double seconds,
                     bool trace, Report& rep) {
  const KvConfig cfg = kv_config(w, seed);
  const Regime rg = regime(cfg);
  std::printf(
      "regime: dataset %.2f MiB = %.1fx LLC, %.1fx XPBuffer (%u DIMMs), "
      "%.2fx 2 MiB read cache\n",
      rg.dataset_bytes / (1 << 20), rg.over_llc, rg.over_xpbuffer, cfg.shards,
      rg.over_read_cache);
  if (w == Workload::kKvRead && !regime_ok(rg)) {
    std::fprintf(stderr,
                 "regime guard: kv-read must overflow the LLC %gx, the "
                 "XPBuffers %gx and the read cache %gx\n",
                 kMinOverLlc, kMinOverXpBuffer, kMinOverReadCache);
    std::exit(3);
  }

  std::optional<KvSim> first;
  std::vector<double> setup_s, host_s, refs;
  auto check_run = [&](const KvRun& r, const char* label) {
    const workload::Result& res = r.sim.res;
    rep.attempted += res.ops;
    rep.failed += failed_ops(res);
    const std::string at = std::string(label) + ": ";
    rep.require(res.ops == cfg.spec.ops, at + "ops short of the spec");
    rep.require(failed_ops(res) == 0, at + "failed ops");
    rep.require(res.read_hits == res.reads, at + "a preloaded key missed");
    rep.require(res.scans == 0 || res.scanned_items > 0, at + "empty scans");
    rep.require(r.sim.drained, at + "background debt did not drain");
    rep.require(r.check.ok(), at + "check(): " + r.check.message());
    rep.require(!first || same_sim(*first, r.sim),
                at + "simulated results differ from the first run");
  };

  const int reps = repeat_for(seconds, [&](int i) {
    const KvRun r = run_kv(cfg, /*traced=*/false);
    check_run(r, i == 0 ? "run 1" : "repeat");
    if (!first) first = r.sim;
    setup_s.push_back(r.setup_s);
    host_s.push_back(r.host_s);
    refs.insert(refs.end(), r.ref_s.begin(), r.ref_s.end());
  });
  const KvSim& s = *first;
  const double host = at_reference_speed(median(host_s), refs);
  print_host(host_s, setup_s, refs);
  std::printf(
      "%s seed %llu: %d runs of %llu ops, %u clients, %u shards; checksum "
      "%016llx\n",
      workload_name(w), static_cast<unsigned long long>(seed), reps,
      static_cast<unsigned long long>(s.res.ops), cfg.clients, cfg.shards,
      static_cast<unsigned long long>(s.res.checksum));
  std::printf("  simulated %.3f ms + %.3f us debt drain (%llu turns)\n",
              sim::to_us(s.res.elapsed) / 1e3, sim::to_us(s.drain),
              static_cast<unsigned long long>(s.drain_turns));

  if (!trace) {
    rep.add("sim_kops", s.sim_kops(), "kops/s");
    rep.add("media_write_amp", s.media_write_amp(cfg.spec), "ratio");
    rep.add("host_kops", static_cast<double>(s.res.ops) / host / 1e3,
            "kops/s");
    rep.add("setup_s", at_reference_speed(median(setup_s), refs), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const KvRun t = run_kv(cfg, /*traced=*/true);
  check_run(t, "traced");
  rep.require(t.sim.res.corruptions == 0, "traced: read-oracle corruptions");

  Layers l;
  l.ops = static_cast<double>(t.sim.res.ops);
  l.xp = t.sim.delta.xp_total();
  l.cache = t.sim.delta.cache_total();
  l.persist = t.persist;
  const unsigned channels = static_cast<unsigned>(t.sim.delta.channels());
  for (unsigned sh = 0; sh < cfg.shards; ++sh) {
    // Shard sh sits alone on DIMM (socket 0, channel sh % channels).
    const hw::XpCounters& c = t.sim.delta.xp[0][sh % channels].counters;
    if (c.media_write_bytes == 0) continue;
    if (l.ewr_min_dimm == 0 || c.ewr() < l.ewr_min_dimm)
      l.ewr_min_dimm = c.ewr();
  }
  l.spans = *t.spans;
  l.host_self_s = t.run_host_s - (l.spans.get.host_s + l.spans.put.host_s +
                                  l.spans.scan.host_s);
  l.drain_turns = static_cast<double>(t.sim.drain_turns);
  l.drain_us = sim::to_us(t.sim.drain);
  l.failed_op_ratio = ratio(static_cast<double>(failed_ops(t.sim.res)),
                            static_cast<double>(t.sim.res.ops));
  l.tracing_overhead_pct = (t.host_s / median(host_s) - 1) * 100;
  std::printf("traced run: %.3f CPU s vs %.3f untraced median (%+.1f%%)\n",
              t.host_s, median(host_s), l.tracing_overhead_pct);
  add_layers(rep, l);
}

// ---- device calibration -----------------------------------------------------

void run_device_workload(std::uint64_t seed, double seconds, bool trace,
                         Report& rep) {
  std::optional<DeviceRun> first;
  std::vector<double> setup_s, host_s, refs;
  const int reps = repeat_for(seconds, [&](int) {
    DeviceRun r = run_device(seed, /*traced=*/false);
    rep.attempted += r.accesses;
    rep.require(r.accesses > 0, "no accesses completed");
    for (const CalPoint& p : r.points)
      rep.require(p.sim > 0, std::string(p.name) + ": no measurement");
    rep.require(!first || same_sim(*first, r),
                "simulated results differ from the first run");
    setup_s.push_back(r.setup_s);
    host_s.push_back(r.host_s);
    refs.insert(refs.end(), r.ref_s.begin(), r.ref_s.end());
    if (!first) first = std::move(r);
  });
  const DeviceRun& d = *first;
  const double host = at_reference_speed(median(host_s), refs);
  print_host(host_s, setup_s, refs);
  std::printf("device-calib seed %llu: %d runs, %llu accesses\n",
              static_cast<unsigned long long>(seed), reps,
              static_cast<unsigned long long>(d.accesses));
  std::printf("  %-16s %-10s %10s %10s %8s\n", "point", "role", "paper",
              "model", "err %");
  for (const CalPoint& p : d.points)
    std::printf("  %-16s %-10s %10.2f %10.2f %8.2f  %s\n", p.name,
                p.target ? "target" : "held-back", p.paper, p.sim,
                p.err_pct(), p.unit);
  std::printf("  model error: %.2f%% overall, %.2f%% on targets, %.2f%% held "
              "back\n",
              model_err_pct(d.points),
              model_err_pct(d.points, Subset::kTargets),
              model_err_pct(d.points, Subset::kHeldBack));

  if (!trace) {
    rep.add("sim_kops", d.sim_kops(), "kops/s");
    rep.add("media_write_amp", d.media_write_amp(), "ratio");
    rep.add("host_kops", static_cast<double>(d.accesses) / host / 1e3,
            "kops/s");
    rep.add("setup_s", at_reference_speed(median(setup_s), refs), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const DeviceRun t = run_device(seed, /*traced=*/true);
  rep.attempted += t.accesses;
  rep.require(same_sim(d, t), "traced: simulated results differ");
  Layers l;
  l.ops = static_cast<double>(t.accesses);
  l.xp = t.xp;
  l.cache = t.cache;
  l.persist = t.persist;
  refs.insert(refs.end(), t.ref_s.begin(), t.ref_s.end());
  const double traced = at_reference_speed(t.host_s, refs);
  l.tracing_overhead_pct = (traced / host - 1) * 100;
  l.points = t.points;
  l.host_ns_per_access = host / static_cast<double>(d.accesses) * 1e9;
  std::printf("traced run: %.3f s host vs %.3f s untraced median (%+.1f%%)\n",
              traced, host, l.tracing_overhead_pct);
  add_layers(rep, l);
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv-update|kv-read|kv-scan|device-calib [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

// Parses a whole non-negative decimal number, or exits with usage.
std::uint64_t parse_uint(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0)
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> w;
  std::uint64_t seed = 1;  // the default seed of every workload
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc)
      usage((std::string("missing value for ") + flag).c_str());
    const char* val = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      w = parse_workload(val);
      if (!w) usage((std::string("unknown workload ") + val).c_str());
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = parse_uint(flag, val);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = static_cast<double>(parse_uint(flag, val));
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_uint(flag, val);
      if (t > 1) usage("--trace takes 0 or 1");
      trace = t == 1;
    } else {
      usage((std::string("unknown argument ") + flag).c_str());
    }
  }
  if (!w) usage("--workload is required");

  Report rep;
  if (*w == Workload::kDeviceCalib)
    run_device_workload(seed, seconds, trace, rep);
  else
    run_kv_workload(*w, seed, seconds, trace, rep);

  for (const std::string& p : rep.problems)
    std::printf("INCORRECT: %s\n", p.c_str());
  print_json(rep);
  return rep.problems.empty() ? 0 : 1;
}
