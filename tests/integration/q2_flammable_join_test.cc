// Integration test for the paper's Q2: join the flammable-object location
// stream with the temperature stream on probabilistic location equality,
// keeping pairs with temp > 60 C.

#include <gtest/gtest.h>

#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/join.h"
#include "uncertain/join_predicates.h"
#include "uncertain/lineage_aggregate.h"
#include "uncertain/selection.h"

namespace usp {
namespace {

using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

Value G(double mean, double sd) {
  return Value(stats::DistributionPtr(
      std::make_shared<stats::Gaussian>(mean, sd)));
}

// Object tuple: (tag_id, x, y); temperature tuple: (x, y, temp).
Tuple ObjectTuple(int64_t ts, int64_t tag, double x, double y, double sd) {
  Tuple t(ts, {Value(tag), G(x, sd), G(y, sd)});
  t.InitBaseLineage();
  return t;
}

Tuple TempTuple(int64_t ts, double x, double y, double temp, double sd) {
  Tuple t(ts, {Value(x), Value(y), G(temp, sd)});
  t.InitBaseLineage();
  return t;
}

uncertain::EqualityJoinSpec Q2Spec() {
  uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {1, 2};   // object x, y
  spec.right_attrs = {0, 1};  // temperature cell x, y
  spec.eps = 3.0;
  spec.min_confidence = 0.4;
  return spec;
}

TEST(Q2FlammableTest, AlertsOnHotNearbyObject) {
  stream::SlidingWindowJoin join(
      "q2", 3'000'000, MakeProbabilisticEqualityMatch(Q2Spec()));
  stream::VectorCollector joined;
  ASSERT_TRUE(
      join.PushLeftBatch(
          TupleBatch({ObjectTuple(1'000'000, 7, 10.0, 10.0, 0.8)}), &joined)
          .ok());
  ASSERT_TRUE(
      join.PushRightBatch(
          TupleBatch({TempTuple(2'000'000, 10.5, 9.5, 80.0, 2.0)}), &joined)
          .ok());
  ASSERT_EQ(joined.tuples().size(), 1u);
  const Tuple& alert = joined.tuples()[0];
  // Layout: tag, x, y, tx, ty, temp, match_prob.
  ASSERT_EQ(alert.num_values(), 7u);
  EXPECT_EQ(alert.value(0).AsInt(), 7);
  EXPECT_GT(alert.value(6).AsDouble(), 0.4);
  // temp > 60 with high confidence.
  EXPECT_GT(uncertain::PredicateProbability(
                alert.value(5), uncertain::PredicateOp::kGreaterThan, 60.0),
            0.99);
}

TEST(Q2FlammableTest, FarObjectsDoNotJoin) {
  stream::SlidingWindowJoin join(
      "q2", 3'000'000, MakeProbabilisticEqualityMatch(Q2Spec()));
  stream::VectorCollector joined;
  ASSERT_TRUE(
      join.PushLeftBatch(
          TupleBatch({ObjectTuple(1'000'000, 7, 10.0, 10.0, 0.8)}), &joined)
          .ok());
  ASSERT_TRUE(
      join.PushRightBatch(
          TupleBatch({TempTuple(2'000'000, 60.0, 60.0, 90.0, 2.0)}), &joined)
          .ok());
  EXPECT_TRUE(joined.tuples().empty());
}

TEST(Q2FlammableTest, StaleTemperatureExpires) {
  stream::SlidingWindowJoin join(
      "q2", 3'000'000, MakeProbabilisticEqualityMatch(Q2Spec()));
  stream::VectorCollector joined;
  ASSERT_TRUE(
      join.PushRightBatch(
          TupleBatch({TempTuple(1'000'000, 10.0, 10.0, 90.0, 2.0)}), &joined)
          .ok());
  ASSERT_TRUE(
      join.PushLeftBatch(
          TupleBatch({ObjectTuple(5'000'000, 7, 10.0, 10.0, 0.8)}), &joined)
          .ok());
  EXPECT_TRUE(joined.tuples().empty());
}

TEST(Q2FlammableTest, LocationUncertaintyLowersMatchProbability) {
  uncertain::EqualityJoinSpec spec = Q2Spec();
  spec.min_confidence = 0.0;
  auto match = MakeProbabilisticEqualityMatch(spec);
  const Tuple temp = TempTuple(0, 10.0, 10.0, 70.0, 1.0);
  const auto precise = match(ObjectTuple(0, 1, 10.0, 10.0, 0.3), temp);
  const auto vague = match(ObjectTuple(0, 2, 10.0, 10.0, 5.0), temp);
  ASSERT_TRUE(precise.has_value());
  ASSERT_TRUE(vague.has_value());
  EXPECT_GT(precise->value(6).AsDouble(), vague->value(6).AsDouble());
}

TEST(Q2FlammableTest, JoinThenAggregateUsesLineage) {
  // §5.2's correlated-intermediate-results case: one temperature cell
  // joins three objects; summing the three joined temperatures must treat
  // the temperature as ONE random variable (3X), not three independent
  // ones.
  uncertain::EqualityJoinSpec spec = Q2Spec();
  spec.min_confidence = 0.1;
  stream::SlidingWindowJoin join("q2", 3'000'000,
                                 MakeProbabilisticEqualityMatch(spec));
  stream::VectorCollector joined;
  ASSERT_TRUE(
      join.PushRightBatch(
          TupleBatch({TempTuple(1'000'000, 10.0, 10.0, 70.0, 4.0)}), &joined)
          .ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(join.PushLeftBatch(TupleBatch({ObjectTuple(
                                       1'100'000 + i, i, 10.0 + 0.1 * i,
                                       10.0, 0.5)}),
                                   &joined)
                    .ok());
  }
  ASSERT_EQ(joined.tuples().size(), 3u);
  // All three joined tuples share the temperature tuple in lineage.
  EXPECT_TRUE(joined.tuples()[0].SharesLineageWith(joined.tuples()[1]));
  EXPECT_TRUE(joined.tuples()[1].SharesLineageWith(joined.tuples()[2]));

  // Aggregate the temperature attribute (index 5) across the join results.
  std::vector<stats::DistributionPtr> temps;
  for (const Tuple& t : joined.tuples()) {
    temps.push_back(t.value(5).AsDistribution());
  }
  uncertain::CltSum clt;
  const auto aware = uncertain::LineageAwareSum(temps, &clt);
  const auto naive = uncertain::IndependenceAssumingSum(temps, &clt);
  ASSERT_TRUE(aware.ok());
  ASSERT_TRUE(naive.ok());
  // 3X: var = 9 * 16 = 144. Naive: 3 * 16 = 48.
  EXPECT_NEAR(aware.value()->Variance(), 144.0, 1e-6);
  EXPECT_NEAR(naive.value()->Variance(), 48.0, 1e-6);
}

}  // namespace
}  // namespace usp
