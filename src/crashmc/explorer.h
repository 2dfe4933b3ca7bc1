// Crash-point model checking over the simulator (the paper's §2.1
// persistence contract, exercised at every durability boundary).
//
// The simulator is deterministic: replaying a workload from a fresh
// Platform reproduces the exact same sequence of persist events (WPQ
// entries, ntstore drains, sfence retirements). That turns exhaustive
// crash testing into a pure-software model checker: for each enumerated
// event index k, rebuild the world, arm Platform::crash_after(k), run the
// workload until the crash fires, then re-open the store from the durable
// image, run its recovery path, and evaluate its invariants.
//
// Exhaustive below Options::max_exhaustive total events, seeded-sampled
// above it; either way every explored point is a *distinct* machine
// state, and violations carry the exact crash point for replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xpsim/platform.h"

namespace xp::crashmc {

struct Options {
  // Enumerate every crash point when the workload's total persist-event
  // count is at most this; otherwise sample `samples` distinct points.
  std::uint64_t max_exhaustive = 512;
  std::uint64_t samples = 256;
  std::uint64_t seed = 1;
  // Keep exploring after a violation (collect all of them) or stop at the
  // first one.
  bool keep_going = true;
  // Optional telemetry sink attached to every platform the explorer
  // builds (each reset() makes a fresh one). Must outlive explore();
  // sinks are timing-neutral, so attaching one cannot change which
  // machine state a crash point hits.
  hw::TelemetrySink* sink = nullptr;
};

struct Violation {
  std::uint64_t point = 0;  // crash_after argument; 0 = crash-free run
  std::string detail;
};

struct Result {
  std::uint64_t total_events = 0;    // persist events in a crash-free run
  std::uint64_t points_explored = 0; // includes the crash-free baseline run
  std::uint64_t crashes_fired = 0;
  std::vector<Violation> violations;
  double seconds = 0.0;

  bool ok() const { return violations.empty(); }
  double points_per_sec() const {
    return seconds > 0 ? static_cast<double>(points_explored) / seconds : 0;
  }
};

// One store wired into the explorer. reset() must build a *fresh,
// deterministic* world each time: same platform seed, same workload
// schedule, so crash point k always hits the same machine state.
class Target {
 public:
  virtual ~Target() = default;

  virtual std::string name() const = 0;

  // Build a new platform + namespace + store and run any setup (format /
  // create / initial data). Called once per explored point, before the
  // crash trigger is armed — setup persist events are not crash points.
  virtual hw::Platform& reset() = 0;

  // The namespaces holding the store's persistent image (valid after
  // reset()); tests snapshot the durable image from them, and the fault
  // campaign rotates at-rest poison over them.
  virtual std::vector<hw::PmemNamespace*> namespaces() = 0;

  // Run the mutation workload to completion. CrashPointHit may unwind it
  // at any durability boundary; the target must not catch it.
  virtual void run() = 0;

  // Post-crash: re-open the store from the durable image with fresh
  // objects (as a restarted process would), run its recovery path, and
  // check every invariant. Returns "" when all hold, else a diagnostic.
  virtual std::string recover_and_check() = 0;

  // Post-media-fault (see faultcampaign.h): re-open from the possibly
  // poisoned durable image with fresh objects, run the store's
  // repair/scrub path, and check. Media damage may cost committed data,
  // but only *reported* loss is acceptable — an unreported divergence
  // from the crash-consistent states, or any recovered value that was
  // never written, is silent corruption. Returns "" when that holds.
  virtual std::string repair_and_check() { return recover_and_check(); }
};

// Distinct points to explore in [1, total]: all of them when total <=
// max_exhaustive (or samples covers them), otherwise `samples` distinct
// seeded draws, sorted. Shared by the crash explorer and fault campaign.
std::vector<std::uint64_t> choose_points(std::uint64_t total,
                                         std::uint64_t max_exhaustive,
                                         std::uint64_t samples,
                                         std::uint64_t seed);

Result explore(Target& target, const Options& opts = {});

}  // namespace xp::crashmc
