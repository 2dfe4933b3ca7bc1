// Schedule exploration over concurrent store workloads (schedmc).
//
// A Target packages one store family as a concurrent workload: fresh
// platform + store per run, a set of logical-thread bodies that record
// into a History, a sequential-map view of the live store, and a
// recovery path that rebuilds the store from the (possibly crashed)
// durable image.
//
// explore() drives the Target through three phases:
//   1. PCT: `pct_schedules` runs under seeded random-priority schedules
//      (PctPolicy), each history checked for linearizability against the
//      live store state.
//   2. Preemption-bounded DFS: replay-based exhaustive search — branch
//      the recorded decision prefix at every yield point within the
//      branch horizon, bounded by preemption count and run budget.
//   3. Crash composition: for the first `crash_schedules` PCT schedules,
//      replay the identical interleaving with a crash armed at
//      crashmc::choose_points-selected persist events, recover with
//      fresh objects, and require the history to have a linearizable
//      prefix that explains the recovered state exactly (crash-mode
//      check in history.h) — a crash at any (schedule, persist-event)
//      pair must still look like a clean prefix.
//
// Every phase is deterministic: the same Options always explore the same
// schedules, crash points, and verdicts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "schedmc/history.h"
#include "schedmc/interleave.h"

namespace xp::hw {
class Platform;
}

namespace xp::schedmc {

// One store family as a concurrent, crash-recoverable workload.
class Target {
 public:
  virtual ~Target() = default;

  virtual const char* name() const = 0;

  // Build a fresh platform + store and clear the history. Called before
  // every run.
  virtual void reset() = 0;

  virtual hw::Platform& platform() = 0;
  virtual History& history() = 0;

  // The logical threads of one run; bodies record into history(). Spec
  // ids must equal their index.
  virtual std::vector<ThreadSpec> specs() = 0;

  // Sequential-map view of the live store (valid after a completed run).
  virtual std::map<std::string, std::string> live_state() = 0;

  // Rebuild the store from the durable image with fresh objects and
  // return its state; false + *error on a recovery failure.
  virtual bool recover(std::map<std::string, std::string>* out,
                       std::string* error) = 0;

  // Pre-populated keys present before any recorded op (default none).
  virtual std::map<std::string, std::string> initial_state() { return {}; }
};

struct Violation {
  std::string target;
  std::string kind;  // "linearizability", "deadlock", "error", "recovery"
  std::uint64_t schedule_seed = 0;  // PCT seed (0 for DFS/replayed runs)
  std::uint64_t signature = 0;      // schedule signature
  std::uint64_t crash_point = 0;    // persist-event index (0 = live run)
  std::string detail;
};

// The budgets a caller chooses; the shape of each phase's search (PCT
// depth and horizon, the DFS preemption bound and branch horizon, crash
// points per schedule) is fixed by constants in explorer.cc.
struct Options {
  std::uint64_t seed = 1;
  unsigned pct_schedules = 200;  // phase 1: PCT runs
  unsigned dfs_schedules = 64;   // phase 2: DFS run budget
  unsigned crash_schedules = 0;  // phase 3: PCT schedules to crash-sweep
  bool keep_going = false;  // collect every violation instead of stopping
};

struct Result {
  std::uint64_t schedules_run = 0;       // live interleavings executed
  std::uint64_t distinct_schedules = 0;  // unique schedule signatures
  std::uint64_t crash_runs = 0;          // (schedule, crash point) pairs
  std::uint64_t recoveries_checked = 0;
  std::uint64_t histories_checked = 0;
  std::uint64_t checker_states = 0;  // linearization search nodes
  std::uint64_t deadlocks = 0;
  double seconds = 0.0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

Result explore(Target& target, const Options& opts);

// Render a result for logs/assert messages.
std::string summarize(const Result& r);

}  // namespace xp::schedmc
