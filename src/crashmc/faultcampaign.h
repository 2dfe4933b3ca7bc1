// Media fault-injection campaigns over the crashmc targets (the paper's
// §2.1 error model: uncorrectable XPLines surfacing as poison).
//
// The crash explorer enumerates *persist* events; this harness enumerates
// *device reads*. The simulator counts every XP cache fill and RFO, so
// arming the n-th device read to fail (FaultInjector::arm_nth_device_read)
// turns "a line goes bad under load" into an enumerable, replayable point
// space: for each chosen read index k, rebuild the world, run the
// workload until read k poisons the line it touches (the platform
// crashes and freezes, modeling the process dying at the machine check),
// then re-open the store from the poisoned durable image, run its repair
// path, and verify the containment contract:
//
//   every point ends in full recovery or a *typed*, reported error —
//   never silent corruption. Committed data may be lost to bad media,
//   but only when the store says so (RecoveryInfo / Status), and a
//   recovered value must be one the workload actually wrote.
//
// Points past the workload's read count fire nothing; the harness then
// requires byte-exact crash-free recovery, which doubles as a regression
// check that an armed-but-idle injector perturbs nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crashmc/explorer.h"

namespace xp::crashmc {

struct FaultOptions {
  // Enumerate every device read when the workload's total is at most
  // this; otherwise sample `samples` distinct read indices.
  std::uint64_t max_exhaustive = 512;
  std::uint64_t samples = 256;
  std::uint64_t seed = 1;
  // Second phase: this many at-rest points — run the workload cleanly,
  // then scatter 1-3 seeded poison lines across one of the target's
  // namespaces (point i hits namespace i mod count) and demand
  // the same contract from repair. These points target the *recovery*
  // read sites (and lines the workload itself never re-reads), which the
  // armed-read phase cannot reach. 0 skips the phase.
  std::uint64_t poison_points = 0;
  bool keep_going = true;
  // Optional telemetry sink attached to every platform built (media
  // fault events land in its counters). Must outlive explore_faults().
  hw::TelemetrySink* sink = nullptr;
};

struct FaultResult {
  std::uint64_t total_reads = 0;     // device reads in a fault-free run
  std::uint64_t points_explored = 0; // includes the fault-free baseline
  std::uint64_t faults_fired = 0;    // points where the poison landed
  std::uint64_t typed_errors = 0;    // MediaError unwound the workload
  std::uint64_t lines_poisoned = 0;  // at-rest lines planted in phase two
  std::vector<Violation> violations; // silent corruption / failed repair
  double seconds = 0.0;

  bool ok() const { return violations.empty(); }
};

// Sweep media faults across `target`'s device reads. Every fired point
// runs Target::repair_and_check(); unfired points (k past the workload)
// must recover bit-exactly via Target::recover_and_check().
FaultResult explore_faults(Target& target, const FaultOptions& opts = {});

}  // namespace xp::crashmc
