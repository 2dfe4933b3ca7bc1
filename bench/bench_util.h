// Shared helpers for the figure-reproduction benches: trace plumbing,
// the lattester point builder, and output formatting.
//
// Every bench prints (a) a banner naming the paper figure it regenerates,
// (b) the measured series in the same rows/units the paper reports, and
// (c) where useful, the paper's qualitative expectation for eyeballing.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "lattester/runner.h"
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

}  // namespace xp::benchutil
