// Tests for SparseImage, in particular the one-entry last-page cache on
// the read/write path (one hash lookup per 64 B line otherwise), and the
// single-owner latch.
#include "xpsim/sparse_image.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace xp::hw {
namespace {

constexpr std::uint64_t kPage = 64 * 1024;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return v;
}

TEST(SparseImage, UnwrittenBytesReadZero) {
  SparseImage img(4 * kPage);
  std::vector<std::uint8_t> out(128, 0xff);
  img.read(2 * kPage - 64, out);
  for (auto b : out) EXPECT_EQ(b, 0);
  EXPECT_EQ(img.resident_pages(), 0u);
}

TEST(SparseImage, ReadAfterWriteAcrossPageBoundary) {
  SparseImage img(4 * kPage);
  // A write straddling the page-1/page-2 boundary materializes both pages
  // and must read back through the cache unchanged.
  const auto in = pattern(4096, 7);
  img.write(2 * kPage - 1000, in);
  EXPECT_EQ(img.resident_pages(), 2u);
  std::vector<std::uint8_t> out(in.size());
  img.read(2 * kPage - 1000, out);
  EXPECT_EQ(out, in);
}

TEST(SparseImage, SequentialLineReadsSeeInterleavedWrites) {
  // The regime the cache optimizes: 64 B-line traffic walking a page.
  // Interleave reads and writes so a stale cached pointer (or a stale
  // cached "absent" entry once the page materializes) would be caught.
  SparseImage img(4 * kPage);
  std::vector<std::uint8_t> line(64);
  for (std::uint64_t off = 0; off < 2 * kPage; off += 64) {
    img.read(off, line);  // caches "absent" for a fresh page
    for (auto b : line) ASSERT_EQ(b, 0);
    const auto in = pattern(64, static_cast<std::uint8_t>(off >> 6));
    img.write(off, in);  // must materialize despite the cached miss
    img.read(off, line);
    ASSERT_EQ(line, in) << "offset " << off;
  }
  EXPECT_EQ(img.resident_pages(), 2u);
}

TEST(SparseImage, CachedPointerFollowsPageSwitches) {
  SparseImage img(8 * kPage);
  const auto a = pattern(256, 1);
  const auto b = pattern(256, 2);
  img.write(0, a);              // page 0 cached
  img.write(5 * kPage, b);      // switch to page 5
  std::vector<std::uint8_t> out(256);
  img.read(0, out);             // back to page 0
  EXPECT_EQ(out, a);
  img.read(5 * kPage, out);
  EXPECT_EQ(out, b);
}

TEST(SparseImage, ClearInvalidatesCachedPointer) {
  SparseImage img(4 * kPage);
  const auto in = pattern(512, 3);
  img.write(kPage, in);
  std::vector<std::uint8_t> out(512, 0xff);
  img.read(kPage, out);  // warm the cache on page 1
  EXPECT_EQ(out, in);

  img.clear();  // Memory-Mode power failure: contents are gone
  EXPECT_EQ(img.resident_pages(), 0u);
  img.read(kPage, out);  // a stale cached pointer would return old bytes
  for (auto b : out) EXPECT_EQ(b, 0);

  // Writing after clear() re-materializes and reads back correctly.
  const auto in2 = pattern(512, 4);
  img.write(kPage, in2);
  img.read(kPage, out);
  EXPECT_EQ(out, in2);
}

TEST(SparseImage, CachedPointerSurvivesRehash) {
  // Materialize enough pages to force the page index to grow several
  // times; reads must keep returning each page's bytes (page storage is
  // heap-allocated, so pointers are stable — this guards that
  // invariant).
  constexpr unsigned kPages = 512;
  SparseImage img(kPages * kPage);
  for (unsigned p = 0; p < kPages; ++p) {
    img.write(std::uint64_t{p} * kPage,
              pattern(64, static_cast<std::uint8_t>(p)));
  }
  EXPECT_EQ(img.resident_pages(), kPages);
  std::vector<std::uint8_t> out(64);
  for (unsigned p = 0; p < kPages; ++p) {
    img.read(std::uint64_t{p} * kPage, out);
    ASSERT_EQ(out, pattern(64, static_cast<std::uint8_t>(p))) << p;
  }
}

TEST(SparseImageDeathTest, SecondHostThreadTripsTheOwnerLatch) {
  // The owner's accesses pass the latch on a load; any other host thread
  // still fails fast.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SparseImage img(kPage);
  img.write(0, pattern(64, 1));
  std::vector<std::uint8_t> out(64);
  img.read(0, out);
  EXPECT_DEATH(
      {
        std::thread other([&] { img.read(0, out); });
        other.join();
      },
      "single-owner");
}

}  // namespace
}  // namespace xp::hw
