// Sparse byte image backing a persistent-memory namespace.
//
// Holds the *durable* contents of a namespace: every byte that has reached
// the ADR domain (WPQ admission or deeper). Pages materialize lazily;
// unwritten bytes read as zero, matching a freshly provisioned region.
//
// The timed data path touches the image once per 64 B cache line, so a
// sequential access would pay one hash lookup per line. A one-entry
// last-page cache short-circuits that: consecutive lines land on the same
// 64 KB page 1023 times out of 1024. The cache also remembers *absent*
// pages, which is what the discard-data bandwidth namespaces hit on every
// load. Other lookups go through a sim::FlatIndex over the resident
// pages.
//
// THREADING CONTRACT: like the rest of a Platform, a SparseImage is
// single-owner — only one host thread may touch it, ever (the sweep
// engine gives each point its own Platform). Because the cache is
// mutable, even concurrent const read() calls are a data race. Debug
// builds latch the first accessing thread and assert on any other, so a
// sweep that accidentally shares a Platform fails loudly instead of
// racing.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "sim/flat_index.h"

namespace xp::hw {

class SparseImage {
 public:
  explicit SparseImage(std::uint64_t size) : size_(size) {}

  std::uint64_t size() const { return size_; }

  void read(std::uint64_t off, std::span<std::uint8_t> out) const {
    check_owner();
    assert(off + out.size() <= size_);
    std::size_t done = 0;
    while (done < out.size()) {
      const std::uint64_t pos = off + done;
      const std::uint64_t page = pos / kPage;
      const std::size_t in_page = static_cast<std::size_t>(pos % kPage);
      const std::size_t n =
          std::min(out.size() - done, kPage - in_page);
      const Page* p = find_page(page);
      if (p == nullptr) {
        std::memset(out.data() + done, 0, n);
      } else {
        std::memcpy(out.data() + done, p->data() + in_page, n);
      }
      done += n;
    }
  }

  void write(std::uint64_t off, std::span<const std::uint8_t> in) {
    check_owner();
    assert(off + in.size() <= size_);
    std::size_t done = 0;
    while (done < in.size()) {
      const std::uint64_t pos = off + done;
      const std::uint64_t page = pos / kPage;
      const std::size_t in_page = static_cast<std::size_t>(pos % kPage);
      const std::size_t n = std::min(in.size() - done, kPage - in_page);
      std::memcpy(ensure_page(page)->data() + in_page, in.data() + done, n);
      done += n;
    }
  }

  std::size_t resident_pages() const { return pages_.size(); }

  // Hand the debug single-owner latch to the calling host thread. Only
  // the schedmc interleaver uses this: it runs logical threads on
  // distinct host threads strictly serialized by a run token, and each
  // newly granted token holder adopts the latch — so check_owner() still
  // fails fast on genuinely concurrent access. Release builds: no-op.
  void rebind_owner() const {
#ifndef NDEBUG
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  // Drop all contents (used for Memory-Mode namespaces on power failure:
  // they are volatile by construction).
  void clear() {
    check_owner();
    pages_.clear();
    page_index_.clear();
    cached_index_ = kNoPage;
    cached_page_ = nullptr;
  }

 private:
  static constexpr std::uint64_t kPage = 64 * 1024;
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
  using Page = std::array<std::uint8_t, kPage>;

  struct Resident {
    std::uint64_t index;
    std::unique_ptr<Page> page;
  };

  // Cached lookup. A null result ("page absent") is cached too; it stays
  // valid because the only way a page materializes is ensure_page(),
  // which refreshes the cache. Page storage is heap-allocated, so cached
  // pointers survive growth of pages_.
  const Page* find_page(std::uint64_t page) const {
    if (page == cached_index_) return cached_page_;
    const std::uint32_t slot =
        page_index_.find(page, pages_, &Resident::index);
    cached_index_ = page;
    cached_page_ =
        slot == sim::FlatIndex::kNone ? nullptr : pages_[slot].page.get();
    return cached_page_;
  }

  Page* ensure_page(std::uint64_t page) {
    if (page == cached_index_ && cached_page_ != nullptr)
      return cached_page_;
    std::uint32_t slot = page_index_.find(page, pages_, &Resident::index);
    if (slot == sim::FlatIndex::kNone) {
      slot = static_cast<std::uint32_t>(pages_.size());
      page_index_.insert(page, slot);
      pages_.push_back(Resident{page, std::make_unique<Page>()});  // zeroed
    }
    cached_index_ = page;
    cached_page_ = pages_[slot].page.get();
    return cached_page_;
  }

#ifndef NDEBUG
  // Latch the first host thread that touches the image and fail fast on
  // any other. The mutable page cache makes even const reads writes, so
  // shared use is a data race no matter how it is interleaved. Once the
  // latch is set, the owner's accesses pass on a relaxed load.
  void check_owner() const {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_.load(std::memory_order_relaxed) == self) return;
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed) &&
        expected != self) {
      assert(false &&
             "SparseImage (and its Platform) is single-owner; run each "
             "sweep point on its own Platform");
    }
  }
#else
  void check_owner() const {}
#endif

  std::uint64_t size_;
  std::vector<Resident> pages_;  // materialized pages, in creation order
  sim::FlatIndex page_index_;    // page number -> pages_ slot
  mutable std::uint64_t cached_index_ = kNoPage;
  mutable Page* cached_page_ = nullptr;
#ifndef NDEBUG
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace xp::hw
