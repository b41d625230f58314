// Property test for the window-assignment arithmetic: WindowSpec's
// ForEachAssignedStart / FirstAssignedStart / LastAssignedStart against
// an independent brute-force enumeration, across randomized (size, slide,
// ts) — tumbling (slide == size), sliding (slide < size), sampling gaps
// (slide > size), negative timestamps, and timestamp-overflow-adjacent
// values. The batch windowing
// hot path computes ranges purely from First/Last, so a boundary bug here
// silently mis-buckets tuples; the failing (size, slide, ts) triple is
// printed for replay.

#include "stream/window.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace usp {
namespace stream {
namespace {

/// Independent oracle: the descending starts of all windows [s, s+size)
/// with s a multiple of slide and s <= ts < s + size. Finds the largest
/// multiple of slide <= ts by repair steps around truncating division —
/// deliberately NOT common::FloorToMultiple, which is what the functions
/// under test are built on.
std::vector<int64_t> BruteForceStarts(int64_t size, int64_t slide,
                                      int64_t ts) {
  int64_t m = (ts / slide) * slide;  // truncates toward zero
  while (m > ts) m -= slide;
  while (m + slide <= ts) m += slide;
  std::vector<int64_t> starts;
  for (int64_t s = m; s > ts - size; s -= slide) starts.push_back(s);
  return starts;
}

void CheckTriple(int64_t size, int64_t slide, int64_t ts) {
  SCOPED_TRACE("size=" + std::to_string(size) + " slide=" +
               std::to_string(slide) + " ts=" + std::to_string(ts));
  const WindowSpec spec{size, slide};
  const std::vector<int64_t> expected = BruteForceStarts(size, slide, ts);
  // Callback form.
  std::vector<int64_t> got;
  spec.ForEachAssignedStart(ts, [&got](int64_t s) { got.push_back(s); });
  ASSERT_EQ(got, expected);
  // First/Last bracket the set exactly; an empty set (gap) must show up
  // as first > last so arithmetic consumers skip the range loop.
  if (expected.empty()) {
    EXPECT_GT(spec.FirstAssignedStart(ts), spec.LastAssignedStart(ts));
  } else {
    EXPECT_EQ(spec.LastAssignedStart(ts), expected.front());
    EXPECT_EQ(spec.FirstAssignedStart(ts), expected.back());
    // Every reported window really contains ts.
    for (const int64_t s : expected) {
      EXPECT_LE(s, ts);
      EXPECT_LT(ts - s, size);
    }
  }
}

TEST(WindowPropertyTest, RandomizedSmallRanges) {
  // Dense small parameters: every boundary case in reach of exhaustion.
  for (int64_t size = 1; size <= 12; ++size) {
    for (int64_t slide = 1; slide <= 15; ++slide) {  // includes slide>size
      for (int64_t ts = -40; ts <= 40; ++ts) {
        CheckTriple(size, slide, ts);
      }
    }
  }
}

TEST(WindowPropertyTest, RandomizedWideRanges) {
  common::Rng rng(20260730);
  for (int iter = 0; iter < 20000; ++iter) {
    const int64_t size = 1 + static_cast<int64_t>(rng.UniformInt(1'000'000));
    // Mix of sliding, tumbling, and gap shapes.
    int64_t slide;
    switch (rng.UniformInt(4)) {
      case 0:
        slide = size;  // tumbling
        break;
      case 1:
        // Sliding with bounded overlap (the oracle enumerates one start
        // per overlapping window, so unbounded size/slide would make the
        // test quadratic, not wrong).
        slide = std::max<int64_t>(
            1, size / (1 + static_cast<int64_t>(rng.UniformInt(64))));
        break;
      default:
        slide = 1 + static_cast<int64_t>(rng.UniformInt(3'000'000));
        break;
    }
    if (size / slide > 256) slide = size / 64 + 1;
    const int64_t ts =
        static_cast<int64_t>(rng.Next() % 2'000'000'007ULL) - 1'000'000'003;
    CheckTriple(size, slide, ts);
  }
}

TEST(WindowPropertyTest, OverflowAdjacentTimestamps) {
  // Timestamps pushed as close to the int64 limits as the arithmetic
  // allows: |ts| <= INT64_MAX - (size + slide), so ts - size and
  // start + size stay representable while exercising the extreme
  // magnitudes (including negative multiples of slide near INT64_MIN,
  // where truncating vs. floor division disagree hardest).
  common::Rng rng(424242);
  for (int iter = 0; iter < 5000; ++iter) {
    const int64_t size = 1 + static_cast<int64_t>(rng.UniformInt(1'000'000));
    int64_t slide = 1 + static_cast<int64_t>(rng.UniformInt(1'500'000));
    if (size / slide > 256) slide = size / 64 + 1;
    const int64_t margin = size + slide + 1;
    const int64_t offset = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(2 * margin)));
    const int64_t ts = iter % 2 == 0 ? INT64_MAX - margin - offset
                                     : INT64_MIN + margin + offset;
    CheckTriple(size, slide, ts);
  }
}

TEST(WindowPropertyTest, TumblingPartitionIsExact) {
  // slide == size: every timestamp belongs to exactly one window.
  common::Rng rng(7);
  for (int iter = 0; iter < 5000; ++iter) {
    const int64_t size = 1 + static_cast<int64_t>(rng.UniformInt(100'000));
    const int64_t ts =
        static_cast<int64_t>(rng.Next() % 1'000'000'007ULL) - 500'000'003;
    const WindowSpec spec = WindowSpec::Tumbling(size);
    size_t count = 0;
    spec.ForEachAssignedStart(ts, [&](int64_t s) {
      ++count;
      EXPECT_LE(s, ts);
      EXPECT_LT(ts - s, size);
    });
    ASSERT_EQ(count, 1u) << "size=" << size << " ts=" << ts;
  }
}

}  // namespace
}  // namespace stream
}  // namespace usp
