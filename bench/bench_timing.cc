// Wall-clock self-measurement of the sweep engine and simulator hot
// paths. This is the repo's perf trajectory: every run appends hard
// numbers to BENCH_sweep.json, so a future change that regresses the
// simulator's host-side speed (or the sweep engine's scaling) shows up
// as a diff against the committed baseline.
//
// Two kinds of measurements:
//  * sweeps  — miniature fig04/fig05/fig16-style grids run twice, once
//              with jobs=1 (serial baseline) and once with the requested
//              job count. Reports both wall times, the speedup, and
//              whether the two result vectors were bit-identical (the
//              sweep engine's core guarantee).
//  * hot paths — single simulations that stress the optimized inner
//              loops: sequential loads (SparseImage page cache),
//              single-thread runs (scheduler fast path + whole-access
//              steps), and a multi-MB flush-after write (per-step
//              dispatch elimination).
//
// Usage: bench_timing [--jobs N] [--out FILE]   (default FILE:
// BENCH_sweep.json in the working directory).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "lattester/runner.h"
#include "sweep/sweep.h"
#include "telemetry/session.h"
#include "xpsim/platform.h"

namespace {

using namespace xp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cfg {
  hw::Device device = hw::Device::kXp;
  bool interleaved = true;
  lat::Op op = lat::Op::kLoad;
  lat::Pattern pattern = lat::Pattern::kSeq;
  std::size_t access = 256;
  std::size_t flush_every = 64;
  unsigned threads = 1;
  unsigned dimms_per_thread = 0;
  sim::Time duration = sim::ms(1);
};

lat::Result run_cfg_impl(const Cfg& c, bool telemetry,
                         std::string* summary,
                         const telemetry::Options& tel_opts = {}) {
  hw::Platform platform;
  std::unique_ptr<telemetry::Session> tel;
  if (telemetry)
    tel = std::make_unique<telemetry::Session>(platform, tel_opts);
  hw::NamespaceOptions o;
  o.device = c.device;
  o.interleaved = c.interleaved;
  o.size = 8ull << 30;
  o.discard_data = true;
  auto& ns = platform.add_namespace(o);
  lat::WorkloadSpec spec;
  spec.op = c.op;
  spec.pattern = c.pattern;
  spec.access_size = c.access;
  spec.flush_every = c.flush_every;
  spec.threads = c.threads;
  spec.dimms_per_thread = c.dimms_per_thread;
  spec.region_size = o.size;
  spec.duration = c.duration;
  const lat::Result r = lat::run(platform, ns, spec);
  if (tel != nullptr && summary != nullptr) {
    tel->finish();
    *summary = tel->summary_json();
  }
  return r;
}

lat::Result run_cfg(const Cfg& c) { return run_cfg_impl(c, false, nullptr); }

bool results_equal(const std::vector<lat::Result>& a,
                   const std::vector<lat::Result>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ops != b[i].ops || a[i].bytes != b[i].bytes ||
        a[i].bandwidth_gbps != b[i].bandwidth_gbps ||
        a[i].ewr != b[i].ewr ||
        a[i].latency.count() != b[i].latency.count() ||
        a[i].latency.mean() != b[i].latency.mean())
      return false;
  }
  return true;
}

struct SweepEntry {
  std::string name;
  std::size_t points;
  double serial_s;
  double parallel_s;
  bool identical;
};

SweepEntry measure_sweep(const char* name, const sweep::Grid<Cfg>& grid,
                         sweep::Pool& serial, sweep::Pool& parallel) {
  benchutil::row("%-14s %3zu points ...", name, grid.size());
  Clock::time_point t0 = Clock::now();
  const auto base = sweep::run_points(serial, grid, run_cfg);
  const double serial_s = seconds_since(t0);
  t0 = Clock::now();
  const auto par = sweep::run_points(parallel, grid, run_cfg);
  const double parallel_s = seconds_since(t0);
  const bool identical = results_equal(base, par);
  benchutil::row("%-14s serial %.2fs  jobs=%u %.2fs  speedup %.2fx  %s",
                 name, serial_s, parallel.jobs(), parallel_s,
                 serial_s / parallel_s,
                 identical ? "identical" : "MISMATCH");
  return {name, grid.size(), serial_s, parallel_s, identical};
}

struct HotPathEntry {
  std::string name;
  double wall_s;            // telemetry disabled: the canary number
  double telemetry_wall_s;  // same config with a Session attached
  double sim_gbps;
  bool neutral;  // telemetry run produced identical simulated results
};

HotPathEntry measure_hot_path(const char* name, const Cfg& c) {
  Clock::time_point t0 = Clock::now();
  const lat::Result r = run_cfg(c);
  const double wall_s = seconds_since(t0);
  t0 = Clock::now();
  const lat::Result rt = run_cfg_impl(c, true, nullptr);
  const double tel_s = seconds_since(t0);
  const bool neutral = results_equal({r}, {rt});
  benchutil::row("%-24s %.2fs wall  +tel %.2fs  (%.1f simulated GB/s)%s",
                 name, wall_s, tel_s, r.bandwidth_gbps,
                 neutral ? "" : "  TIMING NOT NEUTRAL");
  return {name, wall_s, tel_s, r.bandwidth_gbps, neutral};
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_sweep.json";
  // hardware_concurrency() can under-report inside containers; the
  // driver script passes the real count via --host-cores so the JSON
  // header records the machine the numbers came from.
  unsigned host_cores = std::thread::hardware_concurrency();
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--host-cores") == 0)
      host_cores = static_cast<unsigned>(std::atoi(argv[i + 1]));
  }
  const unsigned jobs = sweep::jobs_from_args(argc, argv);

  benchutil::banner("bench_timing",
                    "sweep engine + simulator hot-path wall clock");
  benchutil::note("host cores %u, jobs %u", host_cores, jobs);

  sweep::Pool serial(1);
  sweep::Pool parallel(jobs);

  // fig04-style: thread scaling, sequential 256 B, all three ops.
  sweep::Grid<Cfg> fig04;
  for (unsigned threads : {1u, 2u, 4u, 8u})
    for (lat::Op op :
         {lat::Op::kLoad, lat::Op::kNtStore, lat::Op::kStoreClwb})
      fig04.add({.device = hw::Device::kXp, .interleaved = false, .op = op,
                 .threads = threads});

  // fig05-style: access-size scaling, random, interleaved.
  sweep::Grid<Cfg> fig05;
  for (std::size_t access : {256u, 4096u, 65536u})
    for (lat::Op op :
         {lat::Op::kLoad, lat::Op::kNtStore, lat::Op::kStoreClwb})
      fig05.add({.op = op, .pattern = lat::Pattern::kRand, .access = access,
                 .threads = 4});

  // fig16-style: DIMM spreading under contention.
  sweep::Grid<Cfg> fig16;
  for (std::size_t access : {256u, 4096u})
    for (unsigned dimms : {1u, 2u, 6u})
      fig16.add({.pattern = lat::Pattern::kRand, .access = access,
                 .threads = 8, .dimms_per_thread = dimms});

  std::vector<SweepEntry> sweeps;
  sweeps.push_back(measure_sweep("fig04_mini", fig04, serial, parallel));
  sweeps.push_back(measure_sweep("fig05_mini", fig05, serial, parallel));
  sweeps.push_back(measure_sweep("fig16_mini", fig16, serial, parallel));

  benchutil::row("");
  std::vector<HotPathEntry> hot;
  // Sequential 1-thread loads: SparseImage page cache + scheduler fast
  // path + whole-access steps, all on the load path.
  hot.push_back(measure_hot_path(
      "seq_load_1thr", {.op = lat::Op::kLoad, .duration = sim::ms(4)}));
  // Non-temporal store stream, the paper's preferred write instruction.
  hot.push_back(measure_hot_path(
      "seq_ntstore_1thr",
      {.op = lat::Op::kNtStore, .duration = sim::ms(4)}));
  // 1 MB writes flushed at the end: one access used to be 2048 scheduler
  // steps through std::function; now it is one step.
  hot.push_back(measure_hot_path(
      "clwb_after_1M_1thr",
      {.interleaved = false, .op = lat::Op::kStoreClwb, .access = 1 << 20,
       .flush_every = 0, .duration = sim::ms(40)}));
  // 8-thread random reads: the heap path the fast path must not hurt.
  hot.push_back(measure_hot_path(
      "rand_load_8thr", {.op = lat::Op::kLoad,
                         .pattern = lat::Pattern::kRand,
                         .threads = 8,
                         .duration = sim::ms(1)}));

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sweep\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"jobs\": %u,\n", jobs);
  std::fprintf(f, "  \"sweeps\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepEntry& s = sweeps[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"points\": %zu, "
                 "\"serial_s\": %.3f, \"parallel_s\": %.3f, "
                 "\"speedup\": %.2f, \"identical\": %s}%s\n",
                 s.name.c_str(), s.points, s.serial_s, s.parallel_s,
                 s.serial_s / s.parallel_s,
                 s.identical ? "true" : "false",
                 i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hot_paths\": [\n");
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const HotPathEntry& h = hot[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_s\": %.3f, "
                 "\"telemetry_wall_s\": %.3f, \"sim_gbps\": %.2f, "
                 "\"telemetry_neutral\": %s}%s\n",
                 h.name.c_str(), h.wall_s, h.telemetry_wall_s, h.sim_gbps,
                 h.neutral ? "true" : "false",
                 i + 1 < hot.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // One instrumented reference run whose summary rides along in the
  // perf log: proof the sampler/registry produce sane numbers on the
  // same workload the canaries time. Sampled every 100 us rather than
  // the default 10 us, so ten samples cover the whole 1 ms run and the
  // file stays small enough to read.
  std::string summary;
  run_cfg_impl({.op = lat::Op::kNtStore, .duration = sim::ms(1)}, true,
               &summary, {.trace_path = "", .sample_interval = sim::us(100)});
  std::fprintf(f, "  \"telemetry_summary\": %s\n", summary.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  benchutil::row("");
  benchutil::note("wrote %s", out_path);

  for (const SweepEntry& s : sweeps)
    if (!s.identical) return 1;  // determinism is part of the contract
  for (const HotPathEntry& h : hot)
    if (!h.neutral) return 1;  // telemetry must not perturb simulation
  return 0;
}
