#include "sweep/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xp::sweep {

namespace {

unsigned parse_jobs(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) return 0;
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned default_jobs() {
  if (unsigned env = parse_jobs(std::getenv("XP_JOBS"))) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

unsigned jobs_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0)
      value = i + 1 < argc ? argv[i + 1] : "";
    else if (std::strncmp(arg, "--jobs=", 7) == 0)
      value = arg + 7;
    else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0')
      value = arg + 2;
    if (value == nullptr) continue;
    if (const unsigned v = parse_jobs(value)) return v;
    std::fprintf(stderr,
                 "%s: invalid job count '%s' in '%s' (want a positive "
                 "integer)\n",
                 argv[0], value, arg);
    std::exit(2);
  }
  return default_jobs();
}

Pool::Pool(unsigned jobs) : jobs_(jobs ? jobs : default_jobs()) {
  workers_.reserve(jobs_ - 1);
  try {
    for (unsigned i = 0; i + 1 < jobs_; ++i)
      workers_.emplace_back([this] { worker(); });
  } catch (...) {
    // Thread creation can fail at high --jobs; shut down the workers we
    // did start or their joinable std::threads would terminate().
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Pool::drain(std::size_t epoch) {
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t i = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (epoch != epoch_ || next_ >= n_) return;
      i = next_++;
      fn = fn_;
    }
    try {
      (*fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    // The caller blocks until done_ == n_, so the epoch cannot advance
    // while a claimed point is running; the check is defense in depth.
    if (epoch == epoch_ && ++done_ == n_) done_cv_.notify_all();
  }
}

void Pool::for_each_index(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::size_t epoch = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch = ++epoch_;
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    done_ = 0;
    error_ = nullptr;
  }
  work_cv_.notify_all();
  drain(epoch);  // the caller is worker #0
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return done_ == n_; });
    fn_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void Pool::worker() {
  for (;;) {
    std::size_t epoch = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk,
                    [&] { return stop_ || (fn_ != nullptr && next_ < n_); });
      if (stop_) return;
      epoch = epoch_;
    }
    drain(epoch);
  }
}

}  // namespace xp::sweep
