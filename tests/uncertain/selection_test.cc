#include "uncertain/selection.h"

#include <gtest/gtest.h>

#include "stats/gaussian.h"
#include "stats/uniform.h"
#include "stream/batch.h"

namespace usp {
namespace uncertain {
namespace {

using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

Value Dist(double mean, double sd) {
  return Value(stats::DistributionPtr(
      std::make_shared<stats::Gaussian>(mean, sd)));
}

TEST(PredicateProbabilityTest, CertainValues) {
  EXPECT_EQ(PredicateProbability(Value(5.0), PredicateOp::kGreaterThan, 4.0),
            1.0);
  EXPECT_EQ(PredicateProbability(Value(5.0), PredicateOp::kLessThan, 4.0),
            0.0);
  EXPECT_EQ(PredicateProbability(Value(5.0), PredicateOp::kWithinRange, 4.0,
                                 6.0),
            1.0);
  EXPECT_EQ(PredicateProbability(Value(7.0), PredicateOp::kWithinRange, 4.0,
                                 6.0),
            0.0);
}

TEST(PredicateProbabilityTest, UncertainValues) {
  const Value v = Dist(0.0, 1.0);
  EXPECT_NEAR(PredicateProbability(v, PredicateOp::kGreaterThan, 0.0), 0.5,
              1e-9);
  EXPECT_NEAR(PredicateProbability(v, PredicateOp::kLessThan, 0.0), 0.5,
              1e-9);
  EXPECT_NEAR(
      PredicateProbability(v, PredicateOp::kWithinRange, -1.0, 1.0),
      0.6826894921, 1e-6);
}

TEST(PredicateProbabilityTest, NullIsZero) {
  EXPECT_EQ(PredicateProbability(Value(), PredicateOp::kGreaterThan, 0.0),
            0.0);
}

TEST(ProbabilisticFilterTest, KeepsHighConfidenceTuples) {
  auto filter = MakeProbabilisticFilter("f", 0, PredicateOp::kGreaterThan,
                                        60.0, 0.0, 0.9);
  stream::VectorCollector out;
  // Hot: N(100, 5) -> P(>60) ~ 1. Cold: N(40, 5) -> ~0.
  // Borderline: N(62, 5) -> P ~ 0.66 < 0.9.
  Tuple hot(0, {Dist(100.0, 5.0)});
  Tuple cold(1, {Dist(40.0, 5.0)});
  Tuple borderline(2, {Dist(62.0, 5.0)});
  ASSERT_TRUE(filter->PushBatch(TupleBatch({hot}), &out).ok());
  ASSERT_TRUE(filter->PushBatch(TupleBatch({cold}), &out).ok());
  ASSERT_TRUE(filter->PushBatch(TupleBatch({borderline}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].id(), hot.id());
}

TEST(ProbabilisticFilterTest, OutOfRangeIndexDrops) {
  auto filter = MakeProbabilisticFilter("f", 5, PredicateOp::kGreaterThan,
                                        0.0, 0.0, 0.5);
  stream::VectorCollector out;
  ASSERT_TRUE(filter->PushBatch(
      TupleBatch({Tuple(0, {Value(1.0)})}), &out).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST(ProbabilityAnnotatorTest, AppendsProbability) {
  auto annot =
      MakeProbabilityAnnotator("a", 0, PredicateOp::kGreaterThan, 0.0);
  stream::VectorCollector out;
  ASSERT_TRUE(annot->PushBatch(
      TupleBatch({Tuple(0, {Dist(0.0, 1.0)})}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  ASSERT_EQ(out.tuples()[0].num_values(), 2u);
  EXPECT_NEAR(out.tuples()[0].value(1).AsDouble(), 0.5, 1e-9);
}

TEST(ProbabilityAnnotatorTest, WorksOnCertainValues) {
  auto annot = MakeProbabilityAnnotator("a", 0, PredicateOp::kWithinRange,
                                        0.0, 10.0);
  stream::VectorCollector out;
  ASSERT_TRUE(annot->PushBatch(
      TupleBatch({Tuple(0, {Value(5.0)})}), &out).ok());
  EXPECT_EQ(out.tuples()[0].value(1).AsDouble(), 1.0);
}

TEST(ProbabilityAnnotatorTest, IndexOutOfRangeErrors) {
  auto annot =
      MakeProbabilityAnnotator("a", 4, PredicateOp::kGreaterThan, 0.0);
  stream::VectorCollector out;
  EXPECT_FALSE(annot->PushBatch(
      TupleBatch({Tuple(0, {Value(1.0)})}), &out).ok());
}

TEST(PredicateProbabilityTest, NonGaussianDistribution) {
  const Value v(stats::DistributionPtr(
      std::make_shared<stats::Uniform>(0.0, 10.0)));
  EXPECT_NEAR(PredicateProbability(v, PredicateOp::kGreaterThan, 7.5), 0.25,
              1e-9);
  EXPECT_NEAR(PredicateProbability(v, PredicateOp::kWithinRange, 2.0, 4.0),
              0.2, 1e-9);
}

TEST(ConditioningSelectionTest, ReplacesDistributionWithTruncation) {
  auto cond = MakeConditioningSelection(
      "c", 0, PredicateOp::kGreaterThan, 0.0, 0.0, 0.1);
  stream::VectorCollector out;
  ASSERT_TRUE(cond->PushBatch(
      TupleBatch({Tuple(0, {Dist(0.0, 1.0)})}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  const auto& d = *out.tuples()[0].value(0).AsDistribution();
  EXPECT_EQ(d.type(), stats::DistType::kTruncated);
  // Post-selection law: half-normal, all mass above 0.
  EXPECT_EQ(d.Cdf(0.0), 0.0);
  EXPECT_GT(d.Mean(), 0.7);
}

TEST(ConditioningSelectionTest, DropsLowConfidenceTuples) {
  auto cond = MakeConditioningSelection(
      "c", 0, PredicateOp::kGreaterThan, 100.0, 0.0, 0.5);
  stream::VectorCollector out;
  // P(N(0,1) > 100) ~ 0: dropped, not an error.
  ASSERT_TRUE(cond->PushBatch(
      TupleBatch({Tuple(0, {Dist(0.0, 1.0)})}), &out).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST(ConditioningSelectionTest, CertainValuesPassUnchanged) {
  auto cond = MakeConditioningSelection(
      "c", 0, PredicateOp::kWithinRange, 0.0, 10.0, 0.5);
  stream::VectorCollector out;
  ASSERT_TRUE(cond->PushBatch(TupleBatch({Tuple(0, {Value(5.0)})}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).AsDouble(), 5.0);
}

TEST(ConditioningSelectionTest, RangePredicateTruncatesBothSides) {
  auto cond = MakeConditioningSelection(
      "c", 0, PredicateOp::kWithinRange, -1.0, 1.0, 0.1);
  stream::VectorCollector out;
  ASSERT_TRUE(cond->PushBatch(
      TupleBatch({Tuple(0, {Dist(0.0, 1.0)})}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  const auto& d = *out.tuples()[0].value(0).AsDistribution();
  EXPECT_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_EQ(d.Cdf(1.0), 1.0);
  EXPECT_NEAR(d.Mean(), 0.0, 1e-6);
}

TEST(ConditioningSelectionTest, DownstreamAggregationSeesPostSelectionLaw) {
  // The point of conditioning: SUM over selected tuples uses truncated
  // moments, not the original ones.
  auto cond = MakeConditioningSelection(
      "c", 0, PredicateOp::kGreaterThan, 0.0, 0.0, 0.1);
  stream::VectorCollector out;
  ASSERT_TRUE(cond->PushBatch(
      TupleBatch({Tuple(0, {Dist(0.0, 1.0)})}), &out).ok());
  ASSERT_TRUE(cond->PushBatch(
      TupleBatch({Tuple(1, {Dist(0.0, 1.0)})}), &out).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  double mean_sum = 0.0;
  for (const auto& t : out.tuples()) {
    mean_sum += t.value(0).AsDistribution()->Mean();
  }
  // Two half-normals: 2 * sqrt(2/pi) ~ 1.596 (pre-selection would be 0).
  EXPECT_NEAR(mean_sum, 1.596, 0.01);
}

}  // namespace
}  // namespace uncertain
}  // namespace usp
