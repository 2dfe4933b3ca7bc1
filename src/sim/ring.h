// Growable FIFO ring of trivially copyable values.
//
// The deque operations the simulator's per-access windows need (the MLP
// window's in-flight completions, the WPQ per-stream credits) on one
// power-of-two buffer: push_back, pop_front, front, back, clear. The
// buffer doubles when full and never shrinks, so a window settles into a
// fixed allocation after its first few accesses.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace xp::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T front() const {
    assert(size_ != 0);
    return buf_[head_];
  }
  T back() const {
    assert(size_ != 0);
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }

  void pop_front() {
    assert(size_ != 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace xp::sim
