#include "stream/join.h"

#include <gtest/gtest.h>

#include "stream/batch.h"
#include "stream/operator.h"

namespace usp {
namespace stream {
namespace {

Tuple KV(int64_t ts, int64_t key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

// Equality join on attribute 0.
SlidingWindowJoin::MatchFn KeyMatch() {
  return [](const Tuple& l, const Tuple& r) -> std::optional<Tuple> {
    if (l.value(0).AsInt() != r.value(0).AsInt()) return std::nullopt;
    return ConcatJoinedTuple(l, r);
  };
}

TEST(JoinTest, MatchesEqualKeysWithinRange) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(5, 1, 2.0)}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  const Tuple& j = out.tuples()[0];
  EXPECT_EQ(j.num_values(), 4u);
  EXPECT_EQ(j.value(1).AsDouble(), 1.0);
  EXPECT_EQ(j.value(3).AsDouble(), 2.0);
  EXPECT_EQ(j.timestamp(), 5);
}

TEST(JoinTest, NonMatchingKeysProduceNothing) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(1, 2, 2.0)}), &out).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST(JoinTest, ExpiredTuplesDoNotMatch) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(11, 1, 2.0)}), &out).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST(JoinTest, BoundaryTimestampStillMatches) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(10, 1, 2.0)}), &out).ok());
  EXPECT_EQ(out.tuples().size(), 1u);
}

TEST(JoinTest, OneToManyProducesAllPairs) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(0, 7, 0.1)}), &out).ok());
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(1, 7, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(2, 7, 2.0)}), &out).ok());
  EXPECT_EQ(out.tuples().size(), 2u);
}

TEST(JoinTest, JoinedLineageIsUnion) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  const Tuple l = KV(0, 3, 1.0);
  const Tuple r = KV(1, 3, 2.0);
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({l}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({r}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  const auto& lineage = out.tuples()[0].lineage();
  ASSERT_EQ(lineage.size(), 2u);
  EXPECT_EQ(lineage[0], std::min(l.id(), r.id()));
  EXPECT_EQ(lineage[1], std::max(l.id(), r.id()));
}

TEST(JoinTest, OutputsSharingOneInputShareLineage) {
  // Two join results built from the same right tuple must be flagged
  // correlated (§5.2: join followed by aggregation).
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(0, 7, 0.1)}), &out).ok());
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(1, 7, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(2, 7, 2.0)}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_TRUE(out.tuples()[0].SharesLineageWith(out.tuples()[1]));
}

TEST(JoinTest, MetricsTrackInsAndOuts) {
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(0, 1, 1.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(1, 1, 2.0)}), &out).ok());
  ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(2, 9, 2.0)}), &out).ok());
  EXPECT_EQ(join.metrics().tuples_in, 3u);
  EXPECT_EQ(join.metrics().tuples_out, 1u);
  EXPECT_TRUE(join.Close().ok());
}

TEST(JoinTest, SkewedInputsStillMatchWithinRange) {
  // One full side first, then the other (the worst-case interleaving
  // multi-lane ingest can produce): the per-side expiry clocks must keep
  // every in-range pair alive.
  SlidingWindowJoin join("j", 10, KeyMatch());
  VectorCollector out;
  for (int64_t ts = 0; ts < 200; ++ts) {
    ASSERT_TRUE(join.PushLeftBatch(TupleBatch({KV(ts, 1, 1.0)}), &out).ok());
  }
  for (int64_t ts = 0; ts < 200; ++ts) {
    ASSERT_TRUE(join.PushRightBatch(TupleBatch({KV(ts, 1, 2.0)}), &out).ok());
  }
  // Each right tuple at ts matches lefts in [ts-10, ts+10]: 21 for
  // interior ts, truncated at the edges. Total = sum over ts of window
  // overlap with [0,199] = 200*21 - 2*(10+9+...+1) = 4200 - 110.
  EXPECT_EQ(out.tuples().size(), 4090u);
  EXPECT_TRUE(join.Close().ok());
}

TEST(ConcatJoinedTupleTest, TakesMaxTimestamp) {
  const Tuple l = KV(5, 1, 1.0);
  const Tuple r = KV(3, 1, 2.0);
  EXPECT_EQ(ConcatJoinedTuple(l, r).timestamp(), 5);
  EXPECT_EQ(ConcatJoinedTuple(r, l).timestamp(), 5);
}

}  // namespace
}  // namespace stream
}  // namespace usp
