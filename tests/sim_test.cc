// Unit tests for the discrete-event kernel: time, RNG, resources,
// histograms, scheduler/ThreadCtx, and the flat index and ring behind the
// simulator's per-access structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/flat_index.h"
#include "sim/histogram.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simtime.h"

namespace xp::sim {
namespace {

// ---------------------------------------------------------------- simtime
TEST(SimTime, UnitsCompose) {
  EXPECT_EQ(ns(1), 1000u * kPicosecond);
  EXPECT_EQ(us(1), 1000u * ns(1));
  EXPECT_EQ(ms(1), 1000u * us(1));
  EXPECT_EQ(kSecond, 1000u * kMillisecond);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(to_ns(ns(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_us(us(3)), 3.0);
  EXPECT_NEAR(to_s(kSecond), 1.0, 1e-12);
}

TEST(SimTime, BandwidthHelper) {
  // 1 GB in 1 s = 1 GB/s.
  EXPECT_NEAR(gbps(1'000'000'000ULL, kSecond), 1.0, 1e-9);
  // 64 B in 4 ns = 16 GB/s.
  EXPECT_NEAR(gbps(64, ns(4)), 16.0, 1e-9);
  EXPECT_DOUBLE_EQ(gbps(100, 0), 0.0);
}

TEST(SimTime, TransferTime) {
  EXPECT_EQ(transfer_time(64, 16.0), ns(4));
  EXPECT_EQ(transfer_time(256, 1.0), ns(256));
}

// -------------------------------------------------------------------- rng
TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInBounds) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
  }
  EXPECT_EQ(r.uniform(0), 0u);
  EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(11);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliRate) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (r.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

// --------------------------------------------------------------- resource
TEST(Resource, SingleServerSerializes) {
  Resource r(1);
  auto g1 = r.acquire(0, ns(10));
  EXPECT_EQ(g1.start, 0u);
  EXPECT_EQ(g1.end, ns(10));
  auto g2 = r.acquire(0, ns(10));  // arrives at 0, must wait
  EXPECT_EQ(g2.start, ns(10));
  EXPECT_EQ(g2.end, ns(20));
}

TEST(Resource, IdleServerStartsAtArrival) {
  Resource r(1);
  r.acquire(0, ns(5));
  auto g = r.acquire(ns(100), ns(5));
  EXPECT_EQ(g.start, ns(100));
}

TEST(Resource, MultipleServersOverlap) {
  Resource r(3);
  auto a = r.acquire(0, ns(10));
  auto b = r.acquire(0, ns(10));
  auto c = r.acquire(0, ns(10));
  EXPECT_EQ(a.start, 0u);
  EXPECT_EQ(b.start, 0u);
  EXPECT_EQ(c.start, 0u);
  auto d = r.acquire(0, ns(10));  // 4th waits for earliest
  EXPECT_EQ(d.start, ns(10));
}

TEST(Resource, ThroughputMatchesServersOverService) {
  // k servers with service s sustain k/s requests per unit time.
  Resource r(6);
  const Time service = ns(231);
  Time last_end = 0;
  const int n = 6000;
  for (int i = 0; i < n; ++i) last_end = r.acquire(0, service).end;
  const double per_req = static_cast<double>(last_end) / n;
  EXPECT_NEAR(per_req, static_cast<double>(service) / 6, 1.0);
}

TEST(Resource, NextFreeReportsEarliest) {
  Resource r(2);
  r.acquire(0, ns(10));
  EXPECT_EQ(r.next_free(0), 0u);  // second server idle
  r.acquire(0, ns(20));
  EXPECT_EQ(r.next_free(0), ns(10));
  EXPECT_EQ(r.next_free(ns(15)), ns(15));
}

TEST(Resource, BusyAtCountsActive) {
  Resource r(4);
  r.acquire(0, ns(10));
  r.acquire(0, ns(20));
  EXPECT_EQ(r.busy_at(ns(5)), 2u);
  EXPECT_EQ(r.busy_at(ns(15)), 1u);
  EXPECT_EQ(r.busy_at(ns(25)), 0u);
}

TEST(Resource, ResetClears) {
  Resource r(1);
  r.acquire(0, ns(100));
  r.reset();
  EXPECT_EQ(r.acquire(0, ns(1)).start, 0u);
}

// ----------------------------------------------------------- BoundedQueue
TEST(BoundedQueue, AdmitsUpToDepthImmediately) {
  BoundedQueue q(3);
  EXPECT_EQ(q.admission_time(ns(5)), ns(5));
  q.push(ns(100));
  q.push(ns(200));
  q.push(ns(300));
  // Queue full: admission waits for the oldest entry to drain.
  EXPECT_EQ(q.admission_time(ns(5)), ns(100));
  q.push(ns(400));
  EXPECT_EQ(q.admission_time(ns(5)), ns(200));
}

TEST(BoundedQueue, AdmissionNeverBeforeArrival) {
  BoundedQueue q(1);
  q.push(ns(10));
  EXPECT_EQ(q.admission_time(ns(50)), ns(50));
}

TEST(BoundedQueue, OutOfOrderDrainsFreeEarliestSlot) {
  BoundedQueue q(2);
  q.push(ns(100));
  q.push(ns(50));  // completions may be reported out of order
  q.push(ns(60));
  // Queue over-full: admission waits for the earliest remaining drain.
  EXPECT_EQ(q.admission_time(0), ns(50));
  EXPECT_EQ(q.admission_time(0), ns(60));
}

TEST(BoundedQueue, DrainedEntriesLeaveQueue) {
  BoundedQueue q(2);
  q.push(ns(10));
  q.push(ns(20));
  // At t=30 both entries have drained: admission is immediate.
  EXPECT_EQ(q.admission_time(ns(30)), ns(30));
  EXPECT_EQ(q.occupancy(), 0u);
}

// -------------------------------------------------------------- histogram
TEST(Histogram, CountMinMaxMean) {
  Histogram h;
  h.record(ns(10));
  h.record(ns(20));
  h.record(ns(30));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), ns(10));
  EXPECT_EQ(h.max(), ns(30));
  EXPECT_NEAR(h.mean(), static_cast<double>(ns(20)), 1.0);
}

TEST(Histogram, PercentileExactSmall) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<Time>(i));
  // Small values fall in exact linear buckets.
  EXPECT_EQ(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, PercentileBoundedRelativeError) {
  Histogram h;
  for (int i = 0; i < 100000; ++i) h.record(ns(100));
  h.record(ns(50000));  // a rare outlier
  const Time p50 = h.percentile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), static_cast<double>(ns(100)),
              0.05 * static_cast<double>(ns(100)));
  EXPECT_EQ(h.percentile(1.0), ns(50000));
}

TEST(Histogram, TailPercentilesSeeOutliers) {
  Histogram h;
  for (int i = 0; i < 99990; ++i) h.record(ns(100));
  for (int i = 0; i < 10; ++i) h.record(us(50));
  // 99.99th percentile should reach into the outliers.
  EXPECT_GT(h.percentile(0.99995), ns(40000));
  EXPECT_LT(h.percentile(0.999), ns(200));
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.record(ns(10));
  b.record(ns(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), ns(10));
  EXPECT_EQ(a.max(), ns(1000));
}

TEST(Histogram, StddevZeroForConstant) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(ns(42));
  EXPECT_NEAR(h.stddev(), 0.0, 1e-6);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(ns(10));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, RecordNWeighted) {
  Histogram h;
  h.record_n(ns(10), 99);
  h.record_n(ns(1000), 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.percentile(0.5), ns(20));
  EXPECT_GT(h.percentile(0.999), ns(500));
}

// -------------------------------------------------------------- ThreadCtx
TEST(ThreadCtx, ClockAdvances) {
  ThreadCtx ctx({.id = 1, .socket = 0, .mlp = 4, .seed = 9});
  EXPECT_EQ(ctx.now(), 0u);
  ctx.advance_by(ns(10));
  EXPECT_EQ(ctx.now(), ns(10));
  ctx.advance_to(ns(5));  // never goes backward
  EXPECT_EQ(ctx.now(), ns(10));
  ctx.advance_to(ns(50));
  EXPECT_EQ(ctx.now(), ns(50));
}

TEST(ThreadCtx, MlpWindowAllowsOverlap) {
  ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 4, .seed = 1});
  // 4 accesses, each taking 100 ns, issue gap 1 ns: with MLP 4 the thread
  // does not stall until the window fills.
  for (int i = 0; i < 4; ++i) {
    Time t = ctx.begin_access(ns(1));
    ctx.complete_access(t + ns(100));
  }
  EXPECT_EQ(ctx.now(), ns(4));  // only issue gaps so far
  // 5th access must wait for the first completion.
  Time t5 = ctx.begin_access(ns(1));
  EXPECT_EQ(t5, ns(101));
}

TEST(ThreadCtx, MlpOneSerializes) {
  ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 1, .seed = 1});
  Time t1 = ctx.begin_access(ns(1));
  ctx.complete_access(t1 + ns(100));
  Time t2 = ctx.begin_access(ns(1));
  EXPECT_EQ(t2, t1 + ns(100));
}

TEST(ThreadCtx, DrainWaitsForAll) {
  ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 8, .seed = 1});
  Time t = ctx.begin_access(ns(1));
  ctx.complete_access(t + ns(500));
  ctx.drain();
  EXPECT_EQ(ctx.now(), t + ns(500));
  EXPECT_FALSE(ctx.has_inflight());
}

TEST(ThreadCtx, CompletionsRetireInOrder) {
  ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 2, .seed = 1});
  Time t1 = ctx.begin_access(ns(1));
  ctx.complete_access(t1 + ns(100));
  Time t2 = ctx.begin_access(ns(1));
  ctx.complete_access(t2 + ns(1));  // completes "before" first: clamped
  ctx.begin_access(ns(1));
  // Third access had to wait for the first completion (FIFO retire).
  EXPECT_GE(ctx.now(), t1 + ns(100));
}

// The MLP window as a std::deque, the way ThreadCtx kept it before its
// ring: the ring must give the same issue times in every regime.
struct DequeWindow {
  unsigned mlp;
  Time now = 0;
  std::deque<Time> inflight;
  Time begin_access(Time gap) {
    Time t = now + gap;
    if (inflight.size() >= mlp) {
      if (inflight.front() > t) t = inflight.front();
      inflight.pop_front();
    }
    now = t;
    return t;
  }
  void complete_access(Time done) {
    if (!inflight.empty() && done < inflight.back()) done = inflight.back();
    inflight.push_back(done);
  }
  void drain() {
    if (!inflight.empty()) {
      now = std::max(now, inflight.back());
      inflight.clear();
    }
  }
};

TEST(ThreadCtx, RingWindowMatchesDeque) {
  // Widths past the ring's first allocation (8), a shrink that leaves
  // completions in flight, a widen after it, and fences in between.
  ThreadCtx ctx({.id = 0, .socket = 0, .mlp = 20, .seed = 1});
  DequeWindow ref{20, 0, {}};
  Rng rng(7);
  const unsigned widths[] = {20, 2, 32, 1, 12, 64};
  for (int step = 0; step < 20000; ++step) {
    if (step % 1500 == 0) {
      const unsigned m = widths[(step / 1500) % std::size(widths)];
      ctx.set_mlp(m);
      ref.mlp = m;
    }
    if (rng.uniform(97) == 0) {
      ctx.drain();
      ref.drain();
    }
    const Time gap = ns(rng.uniform(3));
    const Time t = ctx.begin_access(gap);
    ASSERT_EQ(t, ref.begin_access(gap)) << "step " << step;
    const Time done = t + ns(5 + rng.uniform(600));
    ctx.complete_access(done);
    ref.complete_access(done);
    ASSERT_EQ(ctx.now(), ref.now) << "step " << step;
  }
  ctx.drain();
  ref.drain();
  EXPECT_EQ(ctx.now(), ref.now);
}

// --------------------------------------------------------------- FlatIndex
TEST(FlatIndex, TracksASwapRemovedArray) {
  // Keys in a dense array with swap-remove, as every owner keeps them;
  // keys share low and high bits so probe runs collide and wrap.
  struct Slot {
    std::uint64_t key;
  };
  std::vector<Slot> slots;
  FlatIndex index;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Rng rng(11);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = rng.uniform(3000) << 6;
    const auto it = ref.find(key);
    ASSERT_EQ(index.find(key, slots, &Slot::key),
              it == ref.end() ? FlatIndex::kNone : it->second);
    if (it == ref.end() && rng.uniform(3) != 0) {
      const auto slot = static_cast<std::uint32_t>(slots.size());
      index.insert(key, slot);
      slots.push_back({key});
      ref[key] = slot;
    } else if (it != ref.end()) {
      const std::uint32_t slot = it->second;
      index.erase(key, slot);
      ref.erase(it);
      const auto last = static_cast<std::uint32_t>(slots.size() - 1);
      if (slot != last) {
        slots[slot] = slots[last];
        index.move(slots[slot].key, last, slot);
        ref[slots[slot].key] = slot;
      }
      slots.pop_back();
    }
    ASSERT_EQ(index.size(), ref.size());
    if (step % 20000 == 0) {
      for (const auto& [k, s] : ref)
        ASSERT_EQ(index.find(k, slots, &Slot::key), s);
    }
  }
  index.clear();
  EXPECT_EQ(index.find(slots.empty() ? 0 : slots[0].key, slots, &Slot::key),
            FlatIndex::kNone);
}

// -------------------------------------------------------------- scheduler
TEST(Scheduler, RunsAllThreadsToCompletion) {
  Scheduler sched;
  int done = 0;
  for (unsigned i = 0; i < 5; ++i) {
    sched.spawn({.id = i, .socket = 0, .mlp = 1, .seed = i},
                [&done, n = 0](ThreadCtx& ctx) mutable {
                  ctx.advance_by(ns(10));
                  if (++n == 3) {
                    ++done;
                    return false;
                  }
                  return true;
                });
  }
  sched.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(sched.live_threads(), 0u);
}

TEST(Scheduler, InterleavesByLocalTime) {
  // Thread A advances 10 ns per step, B 100 ns per step: the scheduler
  // must run A about 10x as often between B's steps. We verify global
  // time-ordering of execution.
  Scheduler sched;
  std::vector<std::pair<Time, unsigned>> trace;
  auto make_step = [&trace](Time step_len, int steps) {
    return [&trace, step_len, steps](ThreadCtx& ctx) mutable {
      trace.emplace_back(ctx.now(), ctx.id());
      ctx.advance_by(step_len);
      return --steps > 0;
    };
  };
  sched.spawn({.id = 0, .socket = 0, .mlp = 1, .seed = 1},
              make_step(ns(10), 30));
  sched.spawn({.id = 1, .socket = 0, .mlp = 1, .seed = 2},
              make_step(ns(100), 3));
  sched.run();
  // Steps were executed in nondecreasing local-time order.
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].first, trace[i - 1].first);
}

TEST(Scheduler, SpawnDuringRunLeavesFastPath) {
  // With one live thread the scheduler steps it in a tight loop; a step
  // that spawns a second thread must break out so the new thread (clock
  // 0) runs before the spawner's later steps.
  Scheduler sched;
  std::vector<std::pair<Time, unsigned>> trace;
  sched.spawn({.id = 0, .socket = 0, .mlp = 1, .seed = 1},
              [&](ThreadCtx& ctx) mutable {
                trace.emplace_back(ctx.now(), ctx.id());
                ctx.advance_by(ns(10));
                if (trace.size() == 3) {
                  sched.spawn({.id = 1, .socket = 0, .mlp = 1, .seed = 2},
                              [&](ThreadCtx& child) {
                                trace.emplace_back(child.now(), child.id());
                                child.advance_by(ns(5));
                                return child.now() < ns(15);
                              });
                }
                return ctx.now() < ns(100);
              });
  sched.run();
  EXPECT_EQ(sched.live_threads(), 0u);
  // The child starts at clock 0 — far behind the spawner — so its three
  // steps (0, 5, 10 ns) must run immediately after the spawning step,
  // before any later parent step.
  ASSERT_GE(trace.size(), 6u);
  EXPECT_EQ(trace[2], (std::pair<Time, unsigned>{ns(20), 0u}));
  EXPECT_EQ(trace[3], (std::pair<Time, unsigned>{ns(0), 1u}));
  EXPECT_EQ(trace[4], (std::pair<Time, unsigned>{ns(5), 1u}));
  EXPECT_EQ(trace[5], (std::pair<Time, unsigned>{ns(10), 1u}));
  int child_steps = 0;
  for (const auto& [t, id] : trace) child_steps += id == 1;
  EXPECT_EQ(child_steps, 3);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  sched.spawn({.id = 0, .socket = 0, .mlp = 1, .seed = 1},
              [](ThreadCtx& ctx) {
                ctx.advance_by(ns(10));
                return true;  // endless
              });
  sched.run_until(us(1));
  EXPECT_GE(sched.frontier(), us(1));
  EXPECT_EQ(sched.live_threads(), 1u);
}

TEST(Scheduler, FrontierTracksEarliestThread) {
  Scheduler sched;
  sched.spawn({.id = 0, .socket = 0, .mlp = 1, .seed = 1},
              [](ThreadCtx& ctx) {
                ctx.advance_by(ns(7));
                return ctx.now() < ns(70);
              });
  sched.run_until(ns(30));
  EXPECT_GE(sched.frontier(), ns(30));
  EXPECT_LE(sched.frontier(), ns(70));
}

}  // namespace
}  // namespace xp::sim
