// Deterministic thread interleaving for the schedule explorer (schedmc).
//
// The Interleaver runs each logical sim::ThreadCtx on its own host
// thread, strictly serialized by a run token: exactly one thread is
// runnable at any instant, and every handoff goes through one mutex, so
// the execution is data-race-free by construction (TSan-clean) and the
// interleaving is decided entirely by a SchedulePolicy. At every
// announced sim::SchedPoint (fence retirement, lock acquire/release,
// batch commit, lane admission, ...) the policy picks the next thread
// from the runnable set; because the decision depends only on the
// policy's seed and the yield sequence, the same (policy, workload)
// pair always reproduces the same schedule — the determinism the
// explorer's replay-based search relies on.
//
// SchedLock acquisition is a blocking decision: the hook parks the
// caller while another thread owns the lock and wakes it when the owner
// releases, so mutual exclusion is real under exploration while
// remaining free on production paths (no hook installed).
//
// Aborts: when a crash fires (hw::CrashPointHit), a deadlock is
// detected, or a thread dies on an unexpected exception, the run aborts.
// Every other thread receives AbortRun at its next yield — but never
// while it is already unwinding an exception (yields during unwinding
// return immediately and schedule nothing), so destructor-driven
// cleanup (Tx rollback against the frozen platform) stays safe.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/scheduler.h"
#include "xpsim/telemetry_sink.h"

namespace xp::hw {
class Platform;
}

namespace xp::schedmc {

// Thrown into logical threads to unwind an aborted run. Not derived from
// std::exception on purpose: workload code that catches std::exception
// must not swallow it.
struct AbortRun {};

// Picks the next thread at every yield point. Implementations must be
// pure functions of (construction seed, call sequence) — no host
// entropy — so a schedule replays exactly.
class SchedulePolicy {
 public:
  static constexpr unsigned kNone = ~0u;

  virtual ~SchedulePolicy() = default;

  // `current` is the thread that just yielded (kNone when it blocked,
  // finished, or the run is starting). `runnable` is non-empty and
  // sorted ascending. `decision` counts prior decisions this run.
  // Must return a member of `runnable`.
  virtual unsigned pick(unsigned current, const std::vector<unsigned>& runnable,
                        std::uint64_t decision, sim::SchedPoint point) = 0;
};

// PCT-style random-priority scheduling (Burckhardt et al.): each thread
// gets a distinct random priority; the highest-priority runnable thread
// always runs; at `depth`-1 pre-chosen decision indices the current
// thread's priority drops below all others. Depth d probabilistically
// covers every bug of preemption depth < d.
class PctPolicy final : public SchedulePolicy {
 public:
  PctPolicy(std::uint64_t seed, unsigned nthreads, unsigned depth,
            std::uint64_t horizon);

  unsigned pick(unsigned current, const std::vector<unsigned>& runnable,
                std::uint64_t decision, sim::SchedPoint point) override;

 private:
  std::vector<int> prio_;
  std::vector<std::uint64_t> change_points_;  // sorted decision indices
  int next_low_;
};

// Replays a recorded decision prefix, then runs non-preemptively (keep
// the current thread whenever it is runnable). The explorer's
// preemption-bounded DFS branches by extending prefixes.
class ReplayPolicy final : public SchedulePolicy {
 public:
  explicit ReplayPolicy(std::vector<unsigned> prefix)
      : prefix_(std::move(prefix)) {}

  unsigned pick(unsigned current, const std::vector<unsigned>& runnable,
                std::uint64_t decision, sim::SchedPoint point) override;

 private:
  std::vector<unsigned> prefix_;
};

struct ThreadSpec {
  sim::ThreadCtx::Options opts;
  std::function<void(sim::ThreadCtx&)> body;
};

class Interleaver final : public sim::SchedHook {
 public:
  // Runaway guard: past this many decisions a run finishes serially.
  static constexpr std::uint64_t kMaxDecisions = std::uint64_t{1} << 20;

  struct Options {
    // Adopt this platform's debug image-owner latch on every token
    // handoff (required whenever the bodies touch a Platform).
    hw::Platform* platform = nullptr;
    hw::TelemetrySink* sink = nullptr;  // schedule-point counters
    // Record the runnable set for the first N decisions (DFS branching).
    std::size_t record_runnable = 512;
  };

  struct RunResult {
    std::vector<unsigned> trace;  // decision sequence (replayable)
    std::vector<std::vector<unsigned>> runnable_at;  // per early decision
    std::uint64_t signature = 0;  // hash of (thread, point) decisions
    std::uint64_t decisions = 0;
    std::uint64_t preemptions = 0;
    std::array<std::uint64_t, sim::kNumSchedPoints> points{};
    bool crashed = false;       // a CrashPointHit fired mid-run
    bool deadlocked = false;    // every live thread blocked on a SchedLock
    bool budget_exhausted = false;  // kMaxDecisions hit; finished serially
    std::string error;          // unexpected exception text ("" = none)
  };

  // Run the specs to completion (or abort) under `policy`. Reentrant per
  // object: each call resets all run state.
  RunResult run(const std::vector<ThreadSpec>& specs, SchedulePolicy& policy,
                const Options& opts);

  // ---- sim::SchedHook -----------------------------------------------------
  void yield(sim::ThreadCtx& ctx, sim::SchedPoint point) override;
  void lock(sim::ThreadCtx& ctx, const void* id) override;
  void unlock(sim::ThreadCtx& ctx, const void* id) override;

 private:
  enum class TState : unsigned char { kReady, kBlocked, kDone };
  static constexpr unsigned kNobody = ~0u;

  void thread_main(unsigned self, const std::function<void(sim::ThreadCtx&)>& body);
  // All private helpers below require mu_ held.
  unsigned decide(unsigned current, sim::SchedPoint point);
  void grant(unsigned next);
  void grant_next_for_abort();
  void wait_for_token(std::unique_lock<std::mutex>& lk, unsigned self);
  void finish(unsigned self);
  void adopt_platform() const;

  std::mutex mu_;
  std::condition_variable cv_;
  Options opts_;
  SchedulePolicy* policy_ = nullptr;

  std::vector<std::unique_ptr<sim::ThreadCtx>> ctxs_;
  std::vector<TState> state_;
  std::vector<const void*> blocked_on_;
  std::map<const void*, unsigned> lock_owner_;
  unsigned active_ = kNobody;
  bool abort_ = false;
  bool all_done_ = false;

  std::vector<unsigned> trace_;
  std::vector<std::vector<unsigned>> runnable_at_;
  std::uint64_t signature_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t preemptions_ = 0;
  std::array<std::uint64_t, sim::kNumSchedPoints> points_{};
  bool crashed_ = false;
  bool deadlocked_ = false;
  bool budget_exhausted_ = false;
  std::string error_;
};

}  // namespace xp::schedmc
