#include "stream/window.h"

#include <gtest/gtest.h>

#include "stream/batch.h"

namespace usp {
namespace stream {
namespace {

Tuple T(int64_t ts) { return Tuple(ts, {Value(int64_t{1})}); }

std::vector<int64_t> Starts(const WindowSpec& spec, int64_t ts) {
  std::vector<int64_t> starts;
  spec.ForEachAssignedStart(ts, [&starts](int64_t s) { starts.push_back(s); });
  return starts;
}

TEST(WindowSpecTest, TumblingAssignsSingleWindow) {
  const WindowSpec spec = WindowSpec::Tumbling(10);
  EXPECT_EQ(Starts(spec, 0), (std::vector<int64_t>{0}));
  EXPECT_EQ(Starts(spec, 9), (std::vector<int64_t>{0}));
  EXPECT_EQ(Starts(spec, 10), (std::vector<int64_t>{10}));
  EXPECT_EQ(Starts(spec, 25), (std::vector<int64_t>{20}));
}

TEST(WindowSpecTest, SlidingAssignsMultipleWindows) {
  const WindowSpec spec = WindowSpec::Sliding(10, 5);
  // ts=12 is in windows [10,20) and [5,15).
  EXPECT_EQ(Starts(spec, 12), (std::vector<int64_t>{10, 5}));
  // ts=4 is in [0,10) and [-5,5).
  EXPECT_EQ(Starts(spec, 4), (std::vector<int64_t>{0, -5}));
}

TEST(WindowSpecTest, NegativeTimestamps) {
  const WindowSpec spec = WindowSpec::Tumbling(10);
  EXPECT_EQ(Starts(spec, -1), (std::vector<int64_t>{-10}));
  EXPECT_EQ(Starts(spec, -10), (std::vector<int64_t>{-10}));
}

TEST(WindowCountTest, TumblingCountsPerWindow) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  for (int64_t ts : {0, 1, 2, 10, 11, 25}) {
    ASSERT_TRUE(op.PushBatch(TupleBatch({T(ts)}), &out).ok());
  }
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.tuples()[0].value(0).AsInt(), 3);  // [0,10)
  EXPECT_EQ(out.tuples()[1].value(0).AsInt(), 2);  // [10,20)
  EXPECT_EQ(out.tuples()[2].value(0).AsInt(), 1);  // [20,30)
}

TEST(WindowCountTest, WindowTimestampIsWindowEnd) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(3)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].timestamp(), 10);
}

TEST(WindowCountTest, WindowsCloseOnLateTimestamps) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(5)}), &out).ok());
  EXPECT_TRUE(out.tuples().empty());  // window still open
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(10)}), &out).ok());
  EXPECT_EQ(out.tuples().size(), 1u);  // first window closed by watermark
}

TEST(WindowCountTest, SlidingWindowsDoubleCount) {
  WindowCountOperator op("count", WindowSpec::Sliding(10, 5));
  VectorCollector out;
  // One tuple at ts=7 lands in [0,10) and [5,15).
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(7)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].value(0).AsInt(), 1);
  EXPECT_EQ(out.tuples()[1].value(0).AsInt(), 1);
}

TEST(WindowCountTest, EmptyWindowsNotEmitted) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(5)}), &out).ok());
  // Long gap: no windows between.
  ASSERT_TRUE(op.PushBatch(TupleBatch({T(95)}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  EXPECT_EQ(out.tuples().size(), 2u);
}

TEST(WindowCountTest, LineageUnionsAcrossWindow) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  Tuple a = T(1);
  a.InitBaseLineage();
  Tuple b = T(2);
  b.InitBaseLineage();
  ASSERT_TRUE(op.PushBatch(TupleBatch({a}), &out).ok());
  ASSERT_TRUE(op.PushBatch(TupleBatch({b}), &out).ok());
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].lineage().size(), 2u);
}

TEST(OperatorMetricsTest, CountsInsAndOuts) {
  WindowCountOperator op("count", WindowSpec::Tumbling(10));
  VectorCollector out;
  for (int64_t ts : {0, 1, 12}) {
    ASSERT_TRUE(op.PushBatch(TupleBatch({T(ts)}), &out).ok());
  }
  ASSERT_TRUE(op.Close(&out).ok());
  EXPECT_EQ(op.metrics().tuples_in, 3u);
  EXPECT_EQ(op.metrics().tuples_out, 2u);
  EXPECT_GE(op.metrics().processing_seconds, 0.0);
}

}  // namespace
}  // namespace stream
}  // namespace usp
