// Crash-point and media-fault model checking over the simulator (the
// paper's §2.1 persistence contract, exercised at every durability
// boundary, and its error model: uncorrectable XPLines surfacing as
// poison).
//
// The simulator is deterministic: replaying a workload from a fresh
// Platform reproduces the exact same sequence of persist events (WPQ
// entries, ntstore drains, sfence retirements) and of device reads (XP
// cache fills and RFOs). That turns exhaustive crash and fault testing
// into a pure-software model checker with one point loop:
//
//  * explore() enumerates persist events: for each chosen index k,
//    rebuild the world, arm Platform::crash_after(k), run the workload
//    until the crash fires, then re-open the store from the durable
//    image, run its recovery path, and evaluate its invariants.
//  * explore_faults() enumerates device reads: arming the k-th read to
//    fail (Platform::arm_read_fault) turns "a line goes bad under load"
//    into a replayable point — read k poisons the line it touches, the
//    platform crashes and freezes (the process dies at the machine
//    check), and the store's repair path must honor the containment
//    contract: every point ends in full recovery or a *typed*, reported
//    error, never silent corruption. Committed data may be lost to bad
//    media, but only when the store says so (RecoveryInfo / Status), and
//    a recovered value must be one the workload actually wrote. Points
//    past the workload's read count fire nothing and must recover
//    bit-exactly, which doubles as a check that an armed-but-idle
//    injector perturbs nothing. A second, at-rest phase then plants
//    seeded poison after a clean run (Options::poison_points).
//
// Exhaustive below Options::max_exhaustive total events, seeded-sampled
// above it; either way every explored point is a *distinct* machine
// state, and violations carry the exact point for replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xpsim/platform.h"

namespace xp::crashmc {

struct Options {
  // Enumerate every point when the workload's total event count is at
  // most this; otherwise sample `samples` distinct points.
  std::uint64_t max_exhaustive = 512;
  std::uint64_t samples = 256;
  std::uint64_t seed = 1;
  // explore_faults() only: this many at-rest points — run the workload
  // cleanly, then scatter 1-3 seeded poison lines across one of the
  // target's namespaces (point i hits namespace i mod count) and demand
  // the containment contract from repair. These points target the
  // *recovery* read sites (and lines the workload itself never
  // re-reads), which the armed-read phase cannot reach. 0 skips them.
  std::uint64_t poison_points = 0;
  // Optional telemetry sink attached to every platform the explorer
  // builds (each reset() makes a fresh one); crash points and media
  // fault events land in it. Must outlive the sweep; sinks are
  // timing-neutral, so attaching one cannot change which machine state a
  // point hits.
  hw::TelemetrySink* sink = nullptr;
};

struct Violation {
  std::uint64_t point = 0;  // the armed event index; 0 = baseline run
  std::string detail;
};

struct Result {
  // Persist events (explore) or device reads (explore_faults) in the
  // crash-free baseline run.
  std::uint64_t total_events = 0;
  std::uint64_t points_explored = 0;  // includes the baseline run
  std::uint64_t fired = 0;            // points where the crash/fault fired
  std::uint64_t typed_errors = 0;     // MediaError unwound the workload
  std::uint64_t lines_poisoned = 0;   // at-rest lines planted
  std::vector<Violation> violations;  // failed recovery / silent corruption
  double seconds = 0.0;

  bool ok() const { return violations.empty(); }
  double points_per_sec() const {
    return seconds > 0 ? static_cast<double>(points_explored) / seconds : 0;
  }
};

// One store wired into the explorer. reset() must build a *fresh,
// deterministic* world each time: same platform seed, same workload
// schedule, so point k always hits the same machine state.
class Target {
 public:
  virtual ~Target() = default;

  virtual std::string name() const = 0;

  // Build a new platform + namespace + store and run any setup (format /
  // create / initial data). Called once per explored point, before the
  // trigger is armed — setup events are not points.
  virtual hw::Platform& reset() = 0;

  // The namespaces holding the store's persistent image (valid after
  // reset()); tests snapshot the durable image from them, and the fault
  // sweep rotates at-rest poison over them.
  virtual std::vector<hw::PmemNamespace*> namespaces() = 0;

  // Run the mutation workload to completion. CrashPointHit or MediaError
  // may unwind it at any armed point; the target must not catch them.
  virtual void run() = 0;

  // Post-crash: re-open the store from the durable image with fresh
  // objects (as a restarted process would), run its recovery path, and
  // check every invariant. Returns "" when all hold, else a diagnostic.
  virtual std::string recover_and_check() = 0;

  // Post-media-fault: re-open from the possibly poisoned durable image
  // with fresh objects, run the store's repair/scrub path, and check.
  // Media damage may cost committed data, but only *reported* loss is
  // acceptable — an unreported divergence from the crash-consistent
  // states, or any recovered value that was never written, is silent
  // corruption. Returns "" when that holds.
  virtual std::string repair_and_check() { return recover_and_check(); }
};

// Distinct points to explore in [1, total]: all of them when total <=
// max_exhaustive (or samples covers them), otherwise `samples` distinct
// seeded draws, sorted. Shared by both sweeps here and schedmc's crash
// composition.
std::vector<std::uint64_t> choose_points(std::uint64_t total,
                                         std::uint64_t max_exhaustive,
                                         std::uint64_t samples,
                                         std::uint64_t seed);

// Sweep crashes across `target`'s persist events; every point runs
// Target::recover_and_check(). Ignores Options::poison_points.
Result explore(Target& target, const Options& opts = {});

// Sweep media faults across `target`'s device reads, then the at-rest
// points. Every fired read point runs Target::repair_and_check() (a
// workload that swallowed the MediaError is itself a violation);
// unfired points must pass Target::recover_and_check(). At-rest
// violations are reported past the read-index space, at total_events +
// 1 + i.
Result explore_faults(Target& target, const Options& opts = {});

}  // namespace xp::crashmc
