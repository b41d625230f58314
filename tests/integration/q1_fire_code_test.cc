// Integration test for the paper's Q1: windowed GROUP BY area with
// SUM(weight) HAVING sum > 200 pounds, over an uncertain location stream.
// Built from synthetic location tuples with known ground truth so the
// expected violations are computable.

#include <gtest/gtest.h>

#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "uncertain/aggregates.h"

namespace usp {
namespace {

using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

// Location tuple: (tag_id, x, y) with Gaussian-uncertain coordinates.
Tuple LocationTuple(int64_t ts_us, int64_t tag, double x, double y,
                    double sd) {
  Tuple t(ts_us,
          {Value(tag),
           Value(stats::DistributionPtr(
               std::make_shared<stats::Gaussian>(x, sd))),
           Value(stats::DistributionPtr(
               std::make_shared<stats::Gaussian>(y, sd)))});
  t.InitBaseLineage();
  return t;
}

// Q1's inner Select: annotate with area id (from expected location; the
// residual location uncertainty flows into the weight attribute's effect
// on the group) and the object weight from its tag id.
stream::MapOperator::MapFn AnnotateAreaAndWeight(
    double cell_ft, const std::vector<double>& weights_by_tag) {
  return [cell_ft, weights_by_tag](const Tuple& t) -> common::Result<Tuple> {
    Tuple out = t;
    const double x = t.value(1).AsDistribution()->Mean();
    const double y = t.value(2).AsDistribution()->Mean();
    const int64_t col = static_cast<int64_t>(x / cell_ft);
    const int64_t row = static_cast<int64_t>(y / cell_ft);
    out.AppendValue("area_" + std::to_string(col) + "_" +
                    std::to_string(row));
    const auto tag = static_cast<size_t>(t.value(0).AsInt());
    out.AppendValue(weights_by_tag[tag]);
    return out;
  };
}

/// Q1 through the query builder on one shard: annotate -> 5 s tumbling
/// window -> group by area -> CLT SUM(weight) -> HAVING P(sum > 200) >= 0.5.
stream::TupleBatch RunQ1(const std::vector<double>& weights,
                         std::vector<Tuple> source) {
  query::PlannerOptions opts;
  opts.num_shards = 1;
  auto compiled_or = query::Query::From("rfid_stream", 3)
                         .Map("annotate", AnnotateAreaAndWeight(10.0, weights),
                              5)
                         .Window(stream::WindowSpec::Tumbling(5'000'000))
                         .GroupBy(3)
                         .Sum("total_weight", 4,
                              uncertain::SumStrategyKind::kClt)
                         .Having(uncertain::MakeHavingProbGreater(1, 200.0,
                                                                  0.5))
                         .Sink("alerts")
                         .Compile(opts);
  EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  if (!compiled_or.ok()) return {};
  auto compiled = compiled_or.MoveValueUnsafe();
  EXPECT_TRUE(compiled
                  ->PushBatch(compiled->source("rfid_stream"),
                              stream::TupleBatch(std::move(source)))
                  .ok());
  EXPECT_TRUE(compiled->Finish().ok());
  return compiled->TakeResult(compiled->sink("alerts"));
}

TEST(Q1FireCodeTest, DetectsOverweightArea) {
  // Three heavy objects stacked in one cell; two light ones elsewhere.
  const std::vector<double> weights = {90.0, 80.0, 60.0, 10.0, 10.0};
  std::vector<Tuple> source;
  // Heavy cluster in cell (0,0): total 230 lb.
  source.push_back(LocationTuple(100, 0, 3.0, 3.0, 0.5));
  source.push_back(LocationTuple(200, 1, 4.0, 4.0, 0.5));
  source.push_back(LocationTuple(300, 2, 5.0, 5.0, 0.5));
  // Light objects in cell (3,3): total 20 lb.
  source.push_back(LocationTuple(400, 3, 35.0, 35.0, 0.5));
  source.push_back(LocationTuple(500, 4, 36.0, 36.0, 0.5));

  const stream::TupleBatch alerts = RunQ1(weights, std::move(source));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].value(0).AsString(), "area_0_0");
  EXPECT_EQ(alerts[0].value(1).AsDouble(), 230.0);
}

TEST(Q1FireCodeTest, WindowsSeparateViolations) {
  const std::vector<double> weights = {150.0, 150.0};
  std::vector<Tuple> source;
  // Both heavy objects in the same cell but in different 5 s windows:
  // neither window exceeds 200 alone.
  source.push_back(LocationTuple(1'000'000, 0, 3.0, 3.0, 0.5));
  source.push_back(LocationTuple(7'000'000, 1, 3.0, 3.0, 0.5));
  EXPECT_TRUE(RunQ1(weights, std::move(source)).empty());
}

TEST(Q1FireCodeTest, UncertainWeightsGiveViolationProbability) {
  // Weight modeled as uncertain (scale error): the HAVING clause becomes
  // probabilistic. Total N(205, sqrt(3)*5): P(>200) ~ 0.72.
  uncertain::CltSum clt;
  stream::GroupByAggregateOperator op(
      "q1", stream::WindowSpec::Tumbling(5'000'000),
      [](const Tuple&) { return std::string("area"); },
      {uncertain::MakeSumAggregate("total_weight", 0, &clt)},
      uncertain::MakeHavingProbGreater(1, 200.0, 0.5));
  stream::VectorCollector sink;
  for (int i = 0; i < 3; ++i) {
    Tuple t(100 + i,
            {Value(stats::DistributionPtr(
                std::make_shared<stats::Gaussian>(205.0 / 3.0, 5.0)))});
    t.InitBaseLineage();
    ASSERT_TRUE(op.PushBatch(TupleBatch({t}), &sink).ok());
  }
  ASSERT_TRUE(op.Close(&sink).ok());
  ASSERT_EQ(sink.tuples().size(), 1u);
  const auto& total = sink.tuples()[0].value(1);
  ASSERT_TRUE(total.is_distribution());
  const double p_violation = uncertain::ProbGreaterThan(total, 200.0);
  EXPECT_NEAR(p_violation, 0.718, 0.05);
}

TEST(Q1FireCodeTest, HigherConfidenceThresholdSuppressesBorderline) {
  uncertain::CltSum clt;
  // Same borderline group, but HAVING requires 95% confidence.
  stream::GroupByAggregateOperator op(
      "q1", stream::WindowSpec::Tumbling(5'000'000),
      [](const Tuple&) { return std::string("area"); },
      {uncertain::MakeSumAggregate("total_weight", 0, &clt)},
      uncertain::MakeHavingProbGreater(1, 200.0, 0.95));
  stream::VectorCollector sink;
  for (int i = 0; i < 3; ++i) {
    Tuple t(100 + i,
            {Value(stats::DistributionPtr(
                std::make_shared<stats::Gaussian>(205.0 / 3.0, 5.0)))});
    t.InitBaseLineage();
    ASSERT_TRUE(op.PushBatch(TupleBatch({t}), &sink).ok());
  }
  ASSERT_TRUE(op.Close(&sink).ok());
  EXPECT_TRUE(sink.tuples().empty());
}

}  // namespace
}  // namespace usp
