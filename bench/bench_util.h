// Shared helpers for the benches: trace plumbing, the lattester point
// builder, output formatting, the store-level benches' scaffold and
// Fig 19's cmap overwrite workload.
//
// Every figure bench prints (a) a banner naming the paper figure it
// regenerates, (b) the measured series in the same rows/units the paper
// reports, and (c) where useful, the paper's qualitative expectation for
// eyeballing.
//
// The store-level benches (bench_stores, bench_ycsb) share one command
// line (`--out FILE`, `--mini`, `--host-cores N`, `--jobs N`), the §5.1
// small-LLC regime, the serial-then-parallel determinism guard, and one
// JSON document: header fields, a headline, one object per row, and the
// summary of a telemetry run sampled every 1 ms. Their rows compare with
// a defaulted operator== and hold an idle DIMM's or shard's ratio as an
// empty std::optional, which prints as `null`.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lattester/runner.h"
#include "pmemkv/cmap.h"
#include "sim/scheduler.h"
#include "sweep/sweep.h"
#include "telemetry/session.h"
#include "xpsim/platform.h"

namespace xp::benchutil {

// `--trace <file>` / XP_TRACE plumbing shared by every bench. When
// enabled, each sweep point writes its own Chrome-trace file derived
// from the base path by point index (grid order), so the produced file
// set is identical at any --jobs count. Sessions are timing-neutral:
// traced tables are byte-identical to untraced ones.
struct TraceOpts {
  std::string base;  // empty = tracing disabled

  static TraceOpts from_args(int argc, char** argv) {
    return TraceOpts{telemetry::trace_path_from_args(argc, argv)};
  }
  bool enabled() const { return !base.empty(); }

  // Per-sweep-point session; null when tracing is disabled. Keep the
  // returned handle alive for the duration of the point: its destructor
  // detaches from the platform and writes the trace file.
  std::unique_ptr<telemetry::Session> session(hw::Platform& platform,
                                              std::size_t point) const {
    if (base.empty()) return nullptr;
    telemetry::Options o;
    o.trace_path = telemetry::trace_point_path(base, point);
    return std::make_unique<telemetry::Session>(platform, std::move(o));
  }

  // Sweep point `point` of a lattester bench: `spec` on a fresh platform
  // (cold caches, empty queues) built from `timing`, with one namespace
  // made from `ns_opts` and the point's trace session attached.
  lat::Result run(std::size_t point, const hw::NamespaceOptions& ns_opts,
                  const lat::WorkloadSpec& spec,
                  const hw::Timing& timing = {}) const {
    hw::Platform platform(timing);
    const auto tel = session(platform, point);
    return lat::run(platform, platform.add_namespace(ns_opts), spec);
  }

  // Whole-bench session for single-platform benches.
  std::unique_ptr<telemetry::Session> session(hw::Platform& platform) const {
    if (base.empty()) return nullptr;
    telemetry::Options o;
    o.trace_path = base;
    return std::make_unique<telemetry::Session>(platform, std::move(o));
  }
};

inline void banner(const char* fig, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("================================================================\n");
}

inline void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("  # ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("  ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

inline std::string human_size(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0)
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes >> 20));
  else if (bytes >= 1024 && bytes % 1024 == 0)
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes >> 10));
  else
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  return buf;
}

// ---- Fig 19's cmap overwrite workload (§5.4) -----------------------------

// 4000 keys of 512 B values, loaded by a thread on the pool's socket;
// then server threads read and rewrite random keys in place. Fig 19 and
// bench_stores' pmemkv rows both run it.
class CmapOverwrite {
 public:
  // Creates the pool and the map on `ns`, loads every key, then resets
  // the platform's timing.
  CmapOverwrite(hw::Platform& platform, hw::PmemNamespace& ns)
      : pool_(ns), map_(pool_) {
    sim::ThreadCtx t({.id = 100, .socket = ns.socket(), .mlp = 16,
                      .seed = 1});
    pool_.create(t, 64);
    map_.create(t);
    for (int i = 0; i < kKeys; ++i)
      map_.put(t, "key" + std::to_string(i), std::string(512, 'x'));
    platform.reset_timing();
  }

  // `threads` threads on `socket` overwrite until `window`. Returns the
  // ops run; each moves 1 KB (the value read and its rewrite).
  std::uint64_t run(unsigned socket, unsigned threads, sim::Time window) {
    std::uint64_t ops = 0;
    sim::Scheduler sched;
    for (unsigned j = 0; j < threads; ++j)
      sched.spawn({.id = j, .socket = socket, .mlp = 16, .seed = j + 5},
                  [&, window](sim::ThreadCtx& ctx) {
                    if (ctx.now() >= window) return false;
                    const int k = static_cast<int>(ctx.rng().uniform(kKeys));
                    std::string v;
                    map_.get(ctx, "key" + std::to_string(k), &v);
                    map_.put(ctx, "key" + std::to_string(k),
                             std::string(512, 'y'));
                    ++ops;
                    return true;
                  });
    sched.run();
    return ops;
  }

 private:
  static constexpr int kKeys = 4000;
  pmem::Pool pool_;
  pmemkv::CMap map_;
};

// ---- Store-level benches (bench_stores, bench_ycsb) ---------------------

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

// The argument after the last `name` in argv, or `fallback`.
inline const char* arg_value(int argc, char** argv, const char* name,
                             const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) fallback = argv[i + 1];
  return fallback;
}

struct StoreArgs {
  const char* out;  // the JSON document's path
  bool mini;
  unsigned host_cores;  // recorded in the JSON header
  unsigned jobs;        // the parallel half of the determinism guard

  static StoreArgs parse(int argc, char** argv, const char* default_out) {
    const char* cores = arg_value(argc, argv, "--host-cores", nullptr);
    return {arg_value(argc, argv, "--out", default_out),
            has_flag(argc, argv, "--mini"),
            cores != nullptr ? static_cast<unsigned>(std::atoi(cores))
                             : std::thread::hardware_concurrency(),
            sweep::jobs_from_args(argc, argv)};
  }
};

// The read regime of §5.1: a 32 KB LLC, smaller than every store
// bench's read working set, so repeat reads reach the DIMMs.
inline hw::Timing small_llc_timing() { return {.llc_lines = 512}; }

// The determinism guard: `grid` runs serially, then on `jobs` host
// threads. Returns the serial rows and whether the parallel ones equal
// them (the sweep engine's contract).
template <typename Config, typename Fn>
auto run_serial_then_parallel(const sweep::Grid<Config>& grid, unsigned jobs,
                              Fn&& fn) {
  sweep::Pool serial(1);
  sweep::Pool parallel(jobs);
  auto rows = sweep::run_points(serial, grid, fn);
  const bool identical = rows == sweep::run_points(parallel, grid, fn);
  return std::pair(std::move(rows), identical);
}

template <typename Row>
const Row* find_row(const std::vector<Row>& rows, const char* store,
                    const char* name) {
  for (const Row& r : rows)
    if (r.store == store && r.name == name) return &r;
  return nullptr;
}

// `a`'s metric over `b`'s: 0 when a row is missing or `b`'s is not
// positive.
template <typename Row>
double ratio(const Row* a, const Row* b, double Row::*metric) {
  return a != nullptr && b != nullptr && b->*metric > 0
             ? a->*metric / b->*metric
             : 0;
}

// The summary that ends a store bench's JSON document: `body` runs on
// `platform` under a telemetry session sampled every 1 ms.
template <typename Fn>
std::string telemetry_summary(hw::Platform& platform, Fn&& body) {
  telemetry::Options o;
  o.sample_interval = sim::ms(1);
  telemetry::Session tel(platform, o);
  body();
  tel.finish();
  return tel.summary_json();
}

// `[a,b,...]` at four decimals, with `null` for an empty value.
inline void json_numbers(std::FILE* f,
                         const std::vector<std::optional<double>>& v) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].has_value())
      std::fprintf(f, "%.4f", *v[i]);
    else
      std::fprintf(f, "null");
    if (i + 1 < v.size()) std::fprintf(f, ",");
  }
  std::fprintf(f, "]");
}

// One object per line, written by each row's `json(f)`.
template <typename Row>
void json_objects(std::FILE* f, const std::vector<Row>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    ");
    rows[i].json(f);
    std::fprintf(f, "%s\n", i + 1 < rows.size() ? "," : "");
  }
}

struct Headline {
  const char* key;
  double value;
  int decimals;
};

// Writes a store bench's JSON document to `args.out`: the header, the
// headline, the rows, whatever `extra` writes, and `summary`. Returns
// false when the file cannot be opened.
template <typename Row>
bool write_json(const StoreArgs& args, const char* bench, bool deterministic,
                std::initializer_list<Headline> headline,
                const std::vector<Row>& rows, const std::string& summary,
                const std::function<void(std::FILE*)>& extra = {}) {
  std::FILE* f = std::fopen(args.out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out);
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"host_cores\": %u,\n", args.host_cores);
  std::fprintf(f, "  \"jobs\": %u,\n", args.jobs);
  std::fprintf(f, "  \"mini\": %s,\n", args.mini ? "true" : "false");
  std::fprintf(f, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"headline\": {");
  const char* sep = "";
  for (const Headline& h : headline) {
    std::fprintf(f, "%s\"%s\": %.*f", sep, h.key, h.decimals, h.value);
    sep = ", ";
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"rows\": [\n");
  json_objects(f, rows);
  std::fprintf(f, "  ],\n");
  if (extra) extra(f);
  std::fprintf(f, "  \"telemetry_summary\": %s\n", summary.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  row("");
  note("wrote %s", args.out);
  return true;
}

}  // namespace xp::benchutil
