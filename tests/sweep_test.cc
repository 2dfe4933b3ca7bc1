// Tests for the host-parallel sweep engine: pool mechanics, job-count
// resolution, and the core guarantee that parallel sweeps produce
// bit-identical results to serial ones.
#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "lattester/runner.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

TEST(Pool, CoversEveryIndexExactlyOnce) {
  sweep::Pool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Pool, JobsOneRunsOnCallerThread) {
  sweep::Pool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.for_each_index(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(Pool, EmptyBatchIsANoop) {
  sweep::Pool pool(2);
  pool.for_each_index(0, [&](std::size_t) { FAIL(); });
}

TEST(Pool, ReusableAcrossBatches) {
  sweep::Pool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_each_index(10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
  }
}

// Regression test for a batch-reuse race: a worker still waking up from
// one batch must never claim an index of the next batch (and invoke the
// by-then-destroyed function object). Thousands of tiny back-to-back
// batches maximize the window where a stale worker races the reset.
TEST(Pool, RapidBatchTurnoverIsSafe) {
  sweep::Pool pool(4);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::atomic<int>> hits(3);
    pool.for_each_index(hits.size(),
                        [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(Pool, RethrowsFirstException) {
  sweep::Pool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.for_each_index(8,
                          [&](std::size_t i) {
                            if (i == 3) throw std::runtime_error("boom");
                            ++completed;
                          }),
      std::runtime_error);
  // Remaining points still ran; the batch finishes before rethrowing.
  EXPECT_EQ(completed.load(), 7);
}

TEST(Jobs, FlagParsing) {
  const char* a1[] = {"bench", "--jobs", "7"};
  EXPECT_EQ(sweep::jobs_from_args(3, const_cast<char**>(a1)), 7u);
  const char* a2[] = {"bench", "--jobs=3"};
  EXPECT_EQ(sweep::jobs_from_args(2, const_cast<char**>(a2)), 3u);
  const char* a3[] = {"bench", "-j2"};
  EXPECT_EQ(sweep::jobs_from_args(2, const_cast<char**>(a3)), 2u);
  const char* a4[] = {"bench", "-j", "5"};
  EXPECT_EQ(sweep::jobs_from_args(3, const_cast<char**>(a4)), 5u);
}

TEST(Jobs, ZeroIsRejected) {
  const char* a1[] = {"bench", "--jobs", "0"};
  EXPECT_EXIT(sweep::jobs_from_args(3, const_cast<char**>(a1)),
              ::testing::ExitedWithCode(2), "invalid job count '0'");
  const char* a2[] = {"bench", "-j0"};
  EXPECT_EXIT(sweep::jobs_from_args(2, const_cast<char**>(a2)),
              ::testing::ExitedWithCode(2), "invalid job count '0'");
}

TEST(Jobs, NonNumericIsRejected) {
  const char* a1[] = {"bench", "--jobs=four"};
  EXPECT_EXIT(sweep::jobs_from_args(2, const_cast<char**>(a1)),
              ::testing::ExitedWithCode(2), "invalid job count 'four'");
  const char* a2[] = {"bench", "-j", "3x"};
  EXPECT_EXIT(sweep::jobs_from_args(3, const_cast<char**>(a2)),
              ::testing::ExitedWithCode(2), "invalid job count '3x'");
}

TEST(Jobs, MissingValueIsRejected) {
  const char* a1[] = {"bench", "--jobs"};
  EXPECT_EXIT(sweep::jobs_from_args(2, const_cast<char**>(a1)),
              ::testing::ExitedWithCode(2), "invalid job count ''");
  const char* a2[] = {"bench", "--jobs="};
  EXPECT_EXIT(sweep::jobs_from_args(2, const_cast<char**>(a2)),
              ::testing::ExitedWithCode(2), "invalid job count ''");
}

TEST(Jobs, EnvFallback) {
  ::setenv("XP_JOBS", "6", 1);
  EXPECT_EQ(sweep::default_jobs(), 6u);
  const char* argv[] = {"bench"};
  EXPECT_EQ(sweep::jobs_from_args(1, const_cast<char**>(argv)), 6u);
  ::setenv("XP_JOBS", "not-a-number", 1);
  EXPECT_GE(sweep::default_jobs(), 1u);
  ::unsetenv("XP_JOBS");
  EXPECT_GE(sweep::default_jobs(), 1u);
}

// The engine's core guarantee: a grid evaluated with jobs=1 and jobs=4
// produces identical lat::Result vectors — each point owns its Platform
// and RNG streams, so host scheduling must not leak into the simulation.
// The grid has the shapes of the figure sweeps: Fig 4's thread scaling
// of loads, ntstores and store+clwb on one DIMM, plus an interleaved
// random point (Fig 5) and DIMM-restricted threads (Fig 16).
TEST(Sweep, ParallelMatchesSerialBitForBit) {
  struct Cfg {
    lat::Op op;
    unsigned threads;
    bool interleaved = false;
    lat::Pattern pattern = lat::Pattern::kSeq;
    unsigned dimms_per_thread = 0;
  };
  sweep::Grid<Cfg> grid;
  for (unsigned threads : {1u, 2u, 4u})
    for (lat::Op op :
         {lat::Op::kLoad, lat::Op::kNtStore, lat::Op::kStoreClwb})
      grid.add({op, threads});
  grid.add({lat::Op::kNtStore, 4, true, lat::Pattern::kRand});
  grid.add({lat::Op::kLoad, 8, true, lat::Pattern::kRand, 2});

  auto point = [](const Cfg& c) {
    hw::Platform platform;
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.interleaved = c.interleaved;
    o.size = 1ull << 30;
    o.discard_data = true;
    auto& ns = platform.add_namespace(o);
    lat::WorkloadSpec spec;
    spec.op = c.op;
    spec.pattern = c.pattern;
    spec.access_size = 256;
    spec.threads = c.threads;
    spec.dimms_per_thread = c.dimms_per_thread;
    spec.region_size = o.size;
    spec.warmup = sim::us(20);
    spec.duration = sim::us(200);
    return lat::run(platform, ns, spec);
  };

  sweep::Pool serial(1);
  sweep::Pool parallel(4);
  const std::vector<lat::Result> a = sweep::run_points(serial, grid, point);
  const std::vector<lat::Result> b =
      sweep::run_points(parallel, grid, point);

  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].ops, b[i].ops);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].window, b[i].window);
    EXPECT_EQ(a[i].bandwidth_gbps, b[i].bandwidth_gbps);
    EXPECT_EQ(a[i].ewr, b[i].ewr);
    EXPECT_EQ(a[i].latency.count(), b[i].latency.count());
    EXPECT_EQ(a[i].latency.mean(), b[i].latency.mean());
    EXPECT_EQ(a[i].latency.percentile(0.5), b[i].latency.percentile(0.5));
    EXPECT_EQ(a[i].latency.percentile(0.99), b[i].latency.percentile(0.99));
    EXPECT_GT(a[i].ops, 0u);  // the points actually measured something
  }
}

// Repeated parallel evaluation of the same grid is stable too (no
// leftover pool state between batches).
TEST(Sweep, RepeatedRunsAreStable) {
  sweep::Grid<unsigned> grid;
  grid.add(1);
  grid.add(2);
  auto point = [](unsigned threads) {
    hw::Platform platform;
    auto& ns = platform.optane_ni(64 << 20);
    lat::WorkloadSpec spec;
    spec.op = lat::Op::kNtStore;
    spec.access_size = 256;
    spec.threads = threads;
    spec.region_size = 32 << 20;
    spec.duration = sim::us(100);
    return lat::run(platform, ns, spec).bandwidth_gbps;
  };
  sweep::Pool pool(4);
  const auto first = sweep::run_points(pool, grid, point);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(sweep::run_points(pool, grid, point), first);
}

}  // namespace
}  // namespace xp
