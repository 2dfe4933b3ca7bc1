#include "schedmc/interleave.h"

#include <algorithm>
#include <cassert>
#include <exception>

#include "sim/rng.h"
#include "xpsim/platform.h"

namespace xp::schedmc {

// ---------------------------------------------------------------- PCT ----

PctPolicy::PctPolicy(std::uint64_t seed, unsigned nthreads, unsigned depth,
                     std::uint64_t horizon) {
  assert(depth >= 1);
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ca1ab1eULL);
  // Distinct random base priorities in [depth, depth + n): always above
  // every change-point priority, which counts down from depth - 1.
  prio_.resize(nthreads);
  for (unsigned i = 0; i < nthreads; ++i)
    prio_[i] = static_cast<int>(depth + i);
  for (unsigned i = nthreads; i > 1; --i)
    std::swap(prio_[i - 1], prio_[static_cast<std::size_t>(rng.uniform(i))]);
  for (unsigned d = 1; d < depth; ++d)
    change_points_.push_back(rng.uniform(horizon ? horizon : 1));
  std::sort(change_points_.begin(), change_points_.end());
  next_low_ = static_cast<int>(depth) - 1;
}

unsigned PctPolicy::pick(unsigned current,
                         const std::vector<unsigned>& runnable,
                         std::uint64_t decision, sim::SchedPoint /*point*/) {
  if (current != kNone &&
      std::binary_search(change_points_.begin(), change_points_.end(),
                         decision))
    prio_[current] = next_low_--;
  unsigned best = runnable.front();
  for (const unsigned t : runnable)
    if (prio_[t] > prio_[best]) best = t;
  return best;
}

// ------------------------------------------------------------- Replay ----

unsigned ReplayPolicy::pick(unsigned current,
                            const std::vector<unsigned>& runnable,
                            std::uint64_t decision, sim::SchedPoint /*point*/) {
  const auto has = [&runnable](unsigned t) {
    return std::find(runnable.begin(), runnable.end(), t) != runnable.end();
  };
  if (decision < prefix_.size() && has(prefix_[decision]))
    return prefix_[decision];
  if (current != kNone && has(current)) return current;
  return runnable.front();
}

// -------------------------------------------------------- Interleaver ----

Interleaver::RunResult Interleaver::run(const std::vector<ThreadSpec>& specs,
                                        SchedulePolicy& policy,
                                        const Options& opts) {
  const unsigned n = static_cast<unsigned>(specs.size());
  assert(n >= 1);
  opts_ = opts;
  policy_ = &policy;
  ctxs_.clear();
  state_.assign(n, TState::kReady);
  blocked_on_.assign(n, nullptr);
  lock_owner_.clear();
  active_ = kNobody;
  abort_ = false;
  all_done_ = false;
  trace_.clear();
  runnable_at_.clear();
  signature_ = 0xcbf29ce484222325ULL;
  decisions_ = 0;
  preemptions_ = 0;
  points_.fill(0);
  crashed_ = false;
  deadlocked_ = false;
  budget_exhausted_ = false;
  error_.clear();

  ctxs_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    // ctx.id() is the interleaver's thread identity; it must match the
    // spec's index or scheduling decisions would target the wrong thread.
    assert(specs[i].opts.id == i);
    ctxs_.push_back(std::make_unique<sim::ThreadCtx>(specs[i].opts));
    ctxs_.back()->set_sched_hook(this);
  }

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads.emplace_back(
        [this, i, &specs] { thread_main(i, specs[i].body); });

  {
    std::unique_lock<std::mutex> lk(mu_);
    const unsigned first =
        decide(SchedulePolicy::kNone, sim::SchedPoint::kOpBegin);
    grant(first == kNobody ? 0 : first);
  }
  for (auto& t : threads) t.join();
  adopt_platform();  // the calling host thread owns the image again

  RunResult r;
  r.trace = std::move(trace_);
  r.runnable_at = std::move(runnable_at_);
  r.signature = signature_;
  r.decisions = decisions_;
  r.preemptions = preemptions_;
  r.points = points_;
  r.crashed = crashed_;
  r.deadlocked = deadlocked_;
  r.budget_exhausted = budget_exhausted_;
  r.error = error_;
  return r;
}

void Interleaver::thread_main(
    unsigned self, const std::function<void(sim::ThreadCtx&)>& body) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return active_ == self; });
    adopt_platform();
  }
  try {
    body(*ctxs_[self]);
  } catch (const AbortRun&) {
    // Normal unwind of an aborted run.
  } catch (const hw::CrashPointHit&) {
    std::lock_guard<std::mutex> g(mu_);
    crashed_ = true;
    abort_ = true;
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> g(mu_);
    if (error_.empty()) error_ = e.what();
    abort_ = true;
  } catch (...) {
    std::lock_guard<std::mutex> g(mu_);
    if (error_.empty()) error_ = "unknown exception";
    abort_ = true;
  }
  finish(self);
}

unsigned Interleaver::decide(unsigned current, sim::SchedPoint point) {
  std::vector<unsigned> runnable;
  for (unsigned i = 0; i < state_.size(); ++i)
    if (state_[i] == TState::kReady) runnable.push_back(i);
  if (runnable.empty()) {
    // Every live thread is blocked on a SchedLock: a real deadlock in
    // the explored schedule. Abort and unwind everyone.
    deadlocked_ = true;
    abort_ = true;
    return kNobody;
  }
  if (budget_exhausted_ || decisions_ >= kMaxDecisions) {
    // Out of decision budget: stop branching and finish the run serially
    // (keep the current thread while it can run).
    budget_exhausted_ = true;
    if (current != SchedulePolicy::kNone &&
        std::find(runnable.begin(), runnable.end(), current) !=
            runnable.end())
      return current;
    return runnable.front();
  }
  unsigned choice = policy_->pick(current, runnable, decisions_, point);
  if (std::find(runnable.begin(), runnable.end(), choice) == runnable.end())
    choice = runnable.front();
  if (trace_.size() < opts_.record_runnable)
    runnable_at_.push_back(runnable);
  trace_.push_back(choice);
  // Schedule signature: position-sensitive hash over (thread, point)
  // decisions. No host addresses, so equal schedules hash equally across
  // runs and processes.
  signature_ = (signature_ ^ ((static_cast<std::uint64_t>(choice) << 8) ^
                              static_cast<std::uint64_t>(point) ^ 0x9e37)) *
               0x100000001b3ULL;
  if (current != SchedulePolicy::kNone && choice != current &&
      std::find(runnable.begin(), runnable.end(), current) != runnable.end())
    ++preemptions_;
  ++decisions_;
  return choice;
}

void Interleaver::grant(unsigned next) {
  active_ = next;
  cv_.notify_all();
}

void Interleaver::grant_next_for_abort() {
  for (unsigned i = 0; i < state_.size(); ++i) {
    if (state_[i] != TState::kDone) {
      grant(i);
      return;
    }
  }
  all_done_ = true;
  active_ = kNobody;
  cv_.notify_all();
}

void Interleaver::wait_for_token(std::unique_lock<std::mutex>& lk,
                                 unsigned self) {
  cv_.wait(lk, [&] { return active_ == self; });
  adopt_platform();
}

void Interleaver::finish(unsigned self) {
  std::unique_lock<std::mutex> lk(mu_);
  state_[self] = TState::kDone;
  const bool alldone =
      std::all_of(state_.begin(), state_.end(),
                  [](TState s) { return s == TState::kDone; });
  if (alldone) {
    all_done_ = true;
    active_ = kNobody;
    cv_.notify_all();
    return;
  }
  if (abort_) {
    grant_next_for_abort();
    return;
  }
  // Thread completion hands the token onward — a recorded decision like
  // any other, so replays reproduce it.
  const unsigned next =
      decide(SchedulePolicy::kNone, sim::SchedPoint::kOpBegin);
  if (next == kNobody) {
    grant_next_for_abort();  // the rest deadlocked; unwind them
    return;
  }
  grant(next);
}

void Interleaver::adopt_platform() const {
  if (opts_.platform != nullptr) opts_.platform->adopt_host_owner();
}

void Interleaver::yield(sim::ThreadCtx& ctx, sim::SchedPoint point) {
  // Never schedule while an exception unwinds: cleanup code (Tx rollback
  // after a crash) must run to completion on its own thread, and AbortRun
  // must not be thrown across it.
  if (std::uncaught_exceptions() > 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  ++points_[static_cast<unsigned>(point)];
  if (opts_.sink != nullptr)
    opts_.sink->sched_point(static_cast<unsigned>(point), ctx.id());
  if (abort_) throw AbortRun{};
  const unsigned self = ctx.id();
  const unsigned next = decide(self, point);
  if (next == kNobody) throw AbortRun{};  // unreachable: self is runnable
  if (next != self) {
    grant(next);
    wait_for_token(lk, self);
    if (abort_) throw AbortRun{};
  }
}

void Interleaver::lock(sim::ThreadCtx& ctx, const void* id) {
  if (std::uncaught_exceptions() > 0) return;  // cleanup never blocks
  std::unique_lock<std::mutex> lk(mu_);
  ++points_[static_cast<unsigned>(sim::SchedPoint::kLockAcquire)];
  if (opts_.sink != nullptr)
    opts_.sink->sched_point(
        static_cast<unsigned>(sim::SchedPoint::kLockAcquire), ctx.id());
  if (abort_) throw AbortRun{};
  const unsigned self = ctx.id();
  // Acquisition is a decision point even when uncontended: whether the
  // caller keeps running into its critical section is up to the policy.
  const unsigned next = decide(self, sim::SchedPoint::kLockAcquire);
  if (next != kNobody && next != self) {
    grant(next);
    wait_for_token(lk, self);
    if (abort_) throw AbortRun{};
  }
  while (lock_owner_.count(id) != 0) {
    state_[self] = TState::kBlocked;
    blocked_on_[self] = id;
    const unsigned n2 =
        decide(SchedulePolicy::kNone, sim::SchedPoint::kLockAcquire);
    if (n2 == kNobody)
      grant_next_for_abort();  // deadlock: wake threads one by one to unwind
    else
      grant(n2);
    wait_for_token(lk, self);
    if (abort_) throw AbortRun{};
    // unlock() marked us ready before we could be granted; another woken
    // waiter may have re-taken the lock first, so re-check.
  }
  lock_owner_[id] = self;
}

void Interleaver::unlock(sim::ThreadCtx& ctx, const void* id) {
  std::unique_lock<std::mutex> lk(mu_);
  ++points_[static_cast<unsigned>(sim::SchedPoint::kLockRelease)];
  if (opts_.sink != nullptr)
    opts_.sink->sched_point(
        static_cast<unsigned>(sim::SchedPoint::kLockRelease), ctx.id());
  const unsigned self = ctx.id();
  const auto it = lock_owner_.find(id);
  if (it == lock_owner_.end()) return;  // lock() was a no-op mid-unwind
  assert(it->second == self);
  (void)self;
  lock_owner_.erase(it);
  for (unsigned j = 0; j < state_.size(); ++j) {
    if (state_[j] == TState::kBlocked && blocked_on_[j] == id) {
      state_[j] = TState::kReady;
      blocked_on_[j] = nullptr;
    }
  }
  // Releases on cleanup paths and aborting runs schedule nothing — this
  // is reached from destructors (SchedLockGuard), where an AbortRun may
  // only be raised when no other exception is in flight.
  if (std::uncaught_exceptions() > 0 || abort_) return;
  const unsigned next = decide(self, sim::SchedPoint::kLockRelease);
  if (next != kNobody && next != self) {
    grant(next);
    wait_for_token(lk, self);
    if (abort_) throw AbortRun{};
  }
}

}  // namespace xp::schedmc
