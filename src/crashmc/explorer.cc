#include "crashmc/explorer.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "sim/rng.h"
#include "xpsim/fault.h"

namespace xp::crashmc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The one point loop. A baseline run counts the events (persist events,
// or device reads under `faults`) and must itself pass recovery
// (re-opening a cleanly written store is a recovery too); then each
// chosen point rebuilds the world, arms the trigger (crash_after, or
// arm_read_fault under `faults`), runs until it fires, disarms, and
// checks.
void sweep_points(Target& target, const Options& opts, bool faults,
                  Result& r) {
  const auto events = [faults](const hw::Platform& p) {
    return faults ? p.device_reads() : p.persist_events();
  };
  {
    hw::Platform& platform = target.reset();
    if (opts.sink) platform.attach_telemetry(opts.sink);
    const std::uint64_t before = events(platform);
    target.run();
    r.total_events = events(platform) - before;
    platform.reset_timing();
    ++r.points_explored;
    if (std::string err = target.recover_and_check(); !err.empty())
      r.violations.push_back({0, "baseline run: " + err});
  }

  for (const std::uint64_t k : choose_points(
           r.total_events, opts.max_exhaustive, opts.samples, opts.seed)) {
    hw::Platform& platform = target.reset();
    if (opts.sink) platform.attach_telemetry(opts.sink);
    if (faults)
      platform.arm_read_fault(k);
    else
      platform.crash_after(k);
    bool typed = false;
    try {
      target.run();
    } catch (const hw::CrashPointHit&) {
    } catch (const hw::MediaError&) {
      if (!faults) throw;  // no fault was planted: a real failure
      typed = true;
    }
    const bool fired =
        faults ? platform.media_fault_fired() : platform.crash_fired();
    // Disarm (and unfreeze after a fault; its poison stays).
    if (faults)
      platform.clear_media_fault();
    else
      platform.clear_crash_trigger();
    platform.reset_timing();
    r.fired += fired ? 1 : 0;
    r.typed_errors += typed ? 1 : 0;
    ++r.points_explored;
    std::string err;
    if (!faults || !fired)
      err = target.recover_and_check();
    else if (!typed)
      // The workload swallowed the machine check — that hides media
      // failure from the application and is itself a violation.
      err = "MediaError was caught by the workload";
    else
      err = target.repair_and_check();
    if (!err.empty()) r.violations.push_back({k, err});
  }
}

}  // namespace

std::vector<std::uint64_t> choose_points(std::uint64_t total,
                                         std::uint64_t max_exhaustive,
                                         std::uint64_t samples,
                                         std::uint64_t seed) {
  std::vector<std::uint64_t> points;
  if (total == 0) return points;
  if (total <= max_exhaustive || samples >= total) {
    points.resize(static_cast<std::size_t>(total));
    for (std::uint64_t k = 0; k < total; ++k) points[k] = k + 1;
    return points;
  }
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + total);
  std::unordered_set<std::uint64_t> seen;
  while (seen.size() < samples) seen.insert(1 + rng.uniform(total));
  points.assign(seen.begin(), seen.end());
  std::sort(points.begin(), points.end());
  return points;
}

Result explore(Target& target, const Options& opts) {
  const auto t0 = Clock::now();
  Result r;
  sweep_points(target, opts, /*faults=*/false, r);
  r.seconds = seconds_since(t0);
  return r;
}

Result explore_faults(Target& target, const Options& opts) {
  const auto t0 = Clock::now();
  Result r;
  sweep_points(target, opts, /*faults=*/true, r);

  // At-rest poison: run cleanly, plant seeded scatter poison, then
  // recovery must contain it.
  for (std::uint64_t i = 0; i < opts.poison_points; ++i) {
    hw::Platform& platform = target.reset();
    if (opts.sink) platform.attach_telemetry(opts.sink);
    target.run();
    platform.reset_timing();
    hw::FaultInjector injector(platform, opts.seed + 0x9e37 * (i + 1));
    const unsigned lines = 1 + static_cast<unsigned>(i % 3);
    const auto ns = target.namespaces();
    hw::PmemNamespace& victim = *ns[i % ns.size()];
    injector.poison_random(victim, 0, victim.size(), lines);
    r.lines_poisoned += lines;
    ++r.points_explored;
    if (std::string err = target.repair_and_check(); !err.empty())
      r.violations.push_back(
          {r.total_events + 1 + i, "at-rest poison: " + err});
  }
  r.seconds = seconds_since(t0);
  return r;
}

}  // namespace xp::crashmc
