#include "crashmc/faultcampaign.h"

#include <chrono>

#include "xpsim/fault.h"

namespace xp::crashmc {

FaultResult explore_faults(Target& target, const FaultOptions& opts) {
  FaultResult r;
  const auto t0 = std::chrono::steady_clock::now();

  // Baseline: a fault-free run measures the device-read count and must
  // pass the ordinary crash-free recovery check.
  {
    hw::Platform& platform = target.reset();
    if (opts.sink) platform.attach_telemetry(opts.sink);
    const std::uint64_t before = platform.device_reads();
    target.run();
    r.total_reads = platform.device_reads() - before;
    platform.reset_timing();
    ++r.points_explored;
    if (std::string err = target.recover_and_check(); !err.empty())
      r.violations.push_back({0, "fault-free run: " + err});
  }

  if (opts.keep_going || r.violations.empty()) {
    for (const std::uint64_t k :
         choose_points(r.total_reads, opts.max_exhaustive, opts.samples,
                       opts.seed)) {
      hw::Platform& platform = target.reset();
      if (opts.sink) platform.attach_telemetry(opts.sink);
      hw::FaultInjector injector(platform, opts.seed);
      injector.arm_nth_device_read(k);
      bool typed = false;
      try {
        target.run();
      } catch (const hw::MediaError&) {
        typed = true;
      }
      const bool fired = platform.media_fault_fired();
      platform.clear_media_fault();  // disarm/unfreeze; poison stays
      platform.reset_timing();
      if (fired) ++r.faults_fired;
      if (typed) ++r.typed_errors;
      ++r.points_explored;
      if (fired && !typed) {
        // The workload swallowed the machine check — that hides media
        // failure from the application and is itself a violation.
        r.violations.push_back({k, "MediaError was caught by the workload"});
        if (!opts.keep_going) break;
        continue;
      }
      std::string err =
          fired ? target.repair_and_check() : target.recover_and_check();
      if (!err.empty()) {
        r.violations.push_back({k, err});
        if (!opts.keep_going) break;
      }
    }
  }

  // Phase two: at-rest poison. Run cleanly, plant seeded scatter poison,
  // then recovery must contain it. Violation points are reported past the
  // read-index space as total_reads + 1 + i.
  for (std::uint64_t i = 0;
       i < opts.poison_points && (opts.keep_going || r.violations.empty());
       ++i) {
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
      r.violations.push_back({r.total_reads + 1 + i, "at-rest poison: " + err});
  }

  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace xp::crashmc
