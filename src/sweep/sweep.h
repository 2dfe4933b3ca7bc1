// Host-parallel sweep engine for the figure benches.
//
// A figure bench is a grid of independent data points: each point builds
// its own hw::Platform, runs a workload on it, and reduces to a handful
// of numbers. Nothing in the simulator is shared between Platforms (no
// mutable globals; every RNG is owned by a component), so points can be
// evaluated on host worker threads in any order without perturbing the
// simulated results. run_points() collects results *by point index* and
// benches print only after the whole grid is done, so the printed tables
// are byte-identical no matter how many jobs ran.
//
// Job count resolution: `--jobs N` / `--jobs=N` / `-jN` on the command
// line, else the XP_JOBS environment variable, else
// std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace xp::sweep {

// XP_JOBS if set to a positive integer, else hardware_concurrency()
// (which itself falls back to 1 when unknown).
unsigned default_jobs();

// Parse `--jobs N`, `-j N`, `--jobs=N` or `-jN` out of argv; falls back
// to default_jobs() when absent. A zero, non-numeric or missing value
// prints an error and exits with status 2.
unsigned jobs_from_args(int argc, char** argv);

// A pool of host worker threads that splits an index range over
// `jobs` threads. The calling thread always participates, so a Pool
// with jobs == 1 owns no threads and runs every point on the caller —
// the serial baseline every parallel run must match byte-for-byte.
class Pool {
 public:
  explicit Pool(unsigned jobs = 0);  // 0 -> default_jobs()
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned jobs() const { return jobs_; }

  // Evaluate fn(i) for every i in [0, n) exactly once, distributing
  // indices over the pool. Blocks until every point is done. If any
  // point throws, the first exception is rethrown here after the batch
  // completes.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker();
  // Claim and run points of batch `epoch` until none are left or a newer
  // batch has started. Indices are claimed under mu_ together with an
  // epoch check, so a worker that raced past the end of one batch can
  // never steal an index (or run the already-destroyed function) of the
  // next one. Each point is a whole simulation run, so the per-point
  // mutex acquisition is noise.
  void drain(std::size_t epoch);

  unsigned jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a batch
  std::condition_variable done_cv_;   // caller waits for completion
  // Batch state, all guarded by mu_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t next_ = 0;   // next unclaimed point index
  std::size_t done_ = 0;   // completed points in this batch
  std::size_t epoch_ = 0;  // batch generation counter
  std::exception_ptr error_;
  bool stop_ = false;
};

// An ordered list of point configurations — one cell of a figure's
// sweep per entry. Benches build the grid in the exact order the table
// is printed, run it through a Pool, then render rows from the result
// vector.
template <typename Config>
class Grid {
 public:
  Grid() = default;

  void add(Config c) { points_.push_back(std::move(c)); }
  void reserve(std::size_t n) { points_.reserve(n); }

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Config& operator[](std::size_t i) const { return points_[i]; }

  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }

 private:
  std::vector<Config> points_;
};

// Evaluate fn(config) — or fn(config, point_index) if fn accepts the
// extra argument — for every grid point through the pool; returns
// results in grid order. fn must be callable concurrently from several
// host threads (each invocation should build its own Platform). The
// index form lets benches derive stable per-point artifacts (e.g.
// telemetry trace file names) that are independent of the job count.
template <typename Config, typename Fn>
auto run_points(Pool& pool, const Grid<Config>& grid, Fn&& fn) {
  if constexpr (std::is_invocable_v<Fn&, const Config&, std::size_t>) {
    using R = std::invoke_result_t<Fn&, const Config&, std::size_t>;
    std::vector<R> out(grid.size());
    pool.for_each_index(grid.size(),
                        [&](std::size_t i) { out[i] = fn(grid[i], i); });
    return out;
  } else {
    using R = std::invoke_result_t<Fn&, const Config&>;
    std::vector<R> out(grid.size());
    pool.for_each_index(grid.size(),
                        [&](std::size_t i) { out[i] = fn(grid[i]); });
    return out;
  }
}

}  // namespace xp::sweep
