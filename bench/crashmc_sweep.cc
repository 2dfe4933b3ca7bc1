// Crash-point model-checking sweep over every persistent store.
//
// For each store the explorer runs its deterministic workload once to
// count persist events, then re-runs it crashing at enumerated points
// (exhaustive below the threshold, seeded-sampled above), re-opens the
// store and evaluates its recovery invariants. Reports points-explored
// per second; exits non-zero if any invariant is violated.
//
// --faults switches to the media fault-injection campaign: instead of
// crashing at persist events it poisons the XPLine under enumerated
// device reads (plus --poison-points at-rest scatter points), runs each
// store's repair path, and checks the containment contract — recovery or
// a typed error, never silent corruption. In either mode --checksums
// turns on the optional WAL/log record checksums for the stores that
// have them.
//
// Usage: crashmc_sweep [--points N] [--seed S] [--store NAME] [--trace F]
//                      [--faults] [--poison-points N] [--checksums]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/crashmc/explorer.h"
#include "src/crashmc/workloads.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"

namespace {

// Records every fired crash point as a Chrome-trace instant, one trace
// "process" per store. Attached to each platform the explorer builds.
class CrashTraceSink : public xp::hw::TelemetrySink {
 public:
  explicit CrashTraceSink(xp::telemetry::TraceWriter* writer)
      : writer_(writer) {}

  void begin_store(const std::string& name) {
    pid_ = next_pid_++;
    writer_->name_process(pid_, name);
  }

  void crash_fired(xp::sim::Time t, std::uint64_t seq) override {
    writer_->instant("crash_point", "crashmc", t, pid_, 0,
                     xp::telemetry::trace_args("seq", seq));
  }

  void media_fault(xp::hw::MediaFaultKind kind, xp::sim::Time t,
                   unsigned /*socket*/, unsigned channel,
                   std::uint64_t line_off) override {
    writer_->instant(xp::hw::kMediaFaultNames[static_cast<unsigned>(kind)],
                     "media_fault", t, pid_, channel,
                     xp::telemetry::trace_args("line_off", line_off));
  }

 private:
  xp::telemetry::TraceWriter* writer_;
  unsigned pid_ = 0;
  unsigned next_pid_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = xp::telemetry::trace_path_from_args(argc, argv);
  std::uint64_t points = 200;
  std::uint64_t seed = 1;
  std::uint64_t poison_points = 64;
  bool faults = false;
  bool checksums = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      points = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--poison-points") == 0 && i + 1 < argc) {
      poison_points = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--checksums") == 0) {
      checksums = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      ++i;  // value already consumed by trace_path_from_args
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      // parsed by trace_path_from_args
    } else {
      std::fprintf(stderr,
                   "usage: %s [--points N] [--seed S] [--store NAME] "
                   "[--trace FILE] [--faults] [--poison-points N] "
                   "[--checksums]\n",
                   argv[0]);
      return 2;
    }
  }

  xp::telemetry::TraceWriter writer;
  CrashTraceSink sink(&writer);
  xp::crashmc::Options opts;
  opts.max_exhaustive = points;
  opts.samples = points;
  opts.seed = seed;
  opts.poison_points = poison_points;
  if (!trace_path.empty()) opts.sink = &sink;

  // The two modes differ in the sweep, the header, the event column and
  // the fault mode's poisoned column; the loop is shared.
  const char* what = faults ? "fault" : "crash";
  const auto explore =
      faults ? xp::crashmc::explore_faults : xp::crashmc::explore;
  if (faults) {
    std::printf(
        "# crashmc_sweep --faults: <= %llu read points + %llu at-rest "
        "points per store, seed %llu, checksums %s\n",
        static_cast<unsigned long long>(points),
        static_cast<unsigned long long>(poison_points),
        static_cast<unsigned long long>(seed), checksums ? "on" : "off");
    std::printf("%-16s %10s %10s %10s %10s %11s %12s\n", "store", "reads",
                "points", "fired", "poisoned", "violations", "points/sec");
  } else {
    std::printf("# crashmc_sweep: <= %llu crash points per store, "
                "seed %llu%s\n",
                static_cast<unsigned long long>(points),
                static_cast<unsigned long long>(seed),
                checksums ? ", checksums on" : "");
    std::printf("%-16s %10s %10s %10s %11s %12s\n", "store", "events",
                "points", "fired", "violations", "points/sec");
  }

  bool failed = false;
  std::uint64_t total_points = 0;
  for (auto& target : xp::crashmc::all_targets(checksums)) {
    if (!only.empty() && target->name() != only) continue;
    if (opts.sink) sink.begin_store(target->name());
    const xp::crashmc::Result r = explore(*target, opts);
    std::printf("%-16s %10llu %10llu %10llu", target->name().c_str(),
                static_cast<unsigned long long>(r.total_events),
                static_cast<unsigned long long>(r.points_explored),
                static_cast<unsigned long long>(r.fired));
    if (faults)
      std::printf(" %10llu", static_cast<unsigned long long>(r.lines_poisoned));
    std::printf(" %11zu %12.1f\n", r.violations.size(), r.points_per_sec());
    total_points += r.points_explored;
    for (const auto& v : r.violations) {
      std::fprintf(stderr, "VIOLATION %s @ %s point %llu: %s\n",
                   target->name().c_str(), what,
                   static_cast<unsigned long long>(v.point),
                   v.detail.c_str());
      failed = true;
    }
  }
  std::printf("# total %s points explored: %llu\n", what,
              static_cast<unsigned long long>(total_points));
  if (!trace_path.empty()) {
    if (!writer.write_file(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_path.c_str());
      return 2;
    }
    std::printf("# trace: %s (%zu events)\n", trace_path.c_str(),
                writer.events());
  }
  return failed ? 1 : 0;
}
