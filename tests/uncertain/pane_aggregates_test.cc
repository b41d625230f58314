// Equivalence of the pane-incremental windowed aggregates against the
// naive per-window recompute path (GroupByAggregateOperator +
// MakeSum/Max/MinAggregate): tumbling windows must match bitwise (they
// share the exact per-window kernels), sliding windows within tight
// numeric tolerances (the pane decomposition reassociates sums and shares
// one frequency/lattice grid across overlapping windows).

#include "uncertain/pane_aggregates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "stream/pane_window.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace uncertain {
namespace {

using stats::DistributionPtr;
using stream::Tuple;
using stream::TupleBatch;
using stream::Value;
using stream::VectorCollector;
using stream::WindowSpec;

// Stream of [key, weight] tuples; weight is a random mixture Gaussian,
// with an occasional certain numeric to exercise the shift path.
std::vector<Tuple> MakeStream(size_t n, uint64_t seed,
                              bool with_certain = true) {
  common::Rng rng(seed);
  std::vector<Tuple> out;
  const char* keys[] = {"a", "b"};
  for (size_t i = 0; i < n; ++i) {
    Value weight = [&]() -> Value {
      if (with_certain && rng.UniformInt(8) == 0) {
        return Value(rng.Uniform(-2.0, 2.0));
      }
      std::vector<stats::GaussianMixture::Component> comps;
      const size_t k = 1 + rng.UniformInt(3);
      for (size_t c = 0; c < k; ++c) {
        comps.push_back({0.2 + rng.Uniform(), rng.Uniform(-5.0, 5.0),
                         0.3 + rng.Uniform()});
      }
      return Value(DistributionPtr(std::make_shared<stats::GaussianMixture>(
          stats::GaussianMixture::Make(std::move(comps)).MoveValueUnsafe())));
    }();
    Tuple t(static_cast<int64_t>(i), {Value(keys[rng.UniformInt(2)]),
                                      std::move(weight)});
    t.InitBaseLineage();
    out.push_back(std::move(t));
  }
  return out;
}

struct RunResult {
  std::vector<Tuple> tuples;
};

RunResult RunNaive(const std::vector<Tuple>& stream, WindowSpec spec,
                   SumStrategy* strategy, bool with_extremes) {
  std::vector<stream::AggregateSpec> aggs;
  aggs.push_back(MakeSumAggregate("sum_w", 1, strategy));
  if (with_extremes) {
    aggs.push_back(MakeMaxAggregate("max_w", 1));
    aggs.push_back(MakeMinAggregate("min_w", 1));
  }
  aggs.push_back(MakeCountAggregate("cnt"));
  stream::GroupByAggregateOperator op(
      "naive", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(aggs));
  VectorCollector out;
  for (const Tuple& t : stream) {
    EXPECT_TRUE(op.PushBatch(TupleBatch({t}), &out).ok());
  }
  EXPECT_TRUE(op.Close(&out).ok());
  return {out.tuples()};
}

RunResult RunPaned(const std::vector<Tuple>& stream, WindowSpec spec,
                   SumStrategyKind kind, bool with_extremes,
                   size_t batch_size = 16) {
  std::vector<stream::PaneAggregateSpec> aggs;
  aggs.push_back(MakePaneSumAggregate("sum_w", 1, kind));
  if (with_extremes) {
    aggs.push_back(MakePaneMaxAggregate("max_w", 1));
    aggs.push_back(MakePaneMinAggregate("min_w", 1));
  }
  aggs.push_back(MakePaneCountAggregate("cnt"));
  stream::PanedGroupByAggregateOperator op(
      "paned", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(aggs));
  VectorCollector out;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    stream::TupleBatch batch;
    for (size_t j = i; j < std::min(i + batch_size, stream.size()); ++j) {
      batch.Append(stream[j]);
    }
    EXPECT_TRUE(op.PushBatch(batch, &out).ok());
    // The watermark the executor carries on each slice: windows close
    // (and panes evict) mid-stream, not only at Close().
    EXPECT_TRUE(op.AdvanceWatermark(batch.MaxTimestamp(), &out).ok());
  }
  EXPECT_TRUE(op.Close(&out).ok());
  return {out.tuples()};
}

void ExpectValueEqual(const Value& a, const Value& b, size_t i, size_t v) {
  ASSERT_EQ(a.kind(), b.kind()) << "tuple " << i << " value " << v;
  if (a.is_distribution()) {
    const stats::Distribution& da = *a.AsDistribution();
    const stats::Distribution& db = *b.AsDistribution();
    EXPECT_EQ(da.Mean(), db.Mean()) << "tuple " << i << " value " << v;
    EXPECT_EQ(da.Variance(), db.Variance()) << "tuple " << i << " value " << v;
    // Bitwise identity for histogram outputs (CF inversion, order stats).
    if (da.type() == stats::DistType::kHistogram) {
      const auto& ha = static_cast<const stats::Histogram&>(da);
      const auto& hb = static_cast<const stats::Histogram&>(db);
      ASSERT_EQ(ha.num_bins(), hb.num_bins());
      EXPECT_EQ(ha.lo(), hb.lo());
      EXPECT_EQ(ha.hi(), hb.hi());
      for (size_t bin = 0; bin < ha.num_bins(); ++bin) {
        ASSERT_EQ(ha.densities()[bin], hb.densities()[bin])
            << "tuple " << i << " value " << v << " bin " << bin;
      }
    }
  } else {
    EXPECT_TRUE(a == b) << "tuple " << i << " value " << v;
  }
}

void ExpectValueNear(const Value& a, const Value& b, double mean_tol,
                     double sd_rel_tol, size_t i, size_t v) {
  ASSERT_EQ(a.kind(), b.kind()) << "tuple " << i << " value " << v;
  if (a.is_distribution()) {
    const stats::Distribution& da = *a.AsDistribution();
    const stats::Distribution& db = *b.AsDistribution();
    EXPECT_NEAR(da.Mean(), db.Mean(), mean_tol)
        << "tuple " << i << " value " << v;
    EXPECT_NEAR(da.Stddev(), db.Stddev(),
                sd_rel_tol * (1.0 + db.Stddev()))
        << "tuple " << i << " value " << v;
  } else if (a.is_numeric()) {
    EXPECT_NEAR(a.AsDouble(), b.AsDouble(), mean_tol)
        << "tuple " << i << " value " << v;
  } else {
    EXPECT_TRUE(a == b) << "tuple " << i << " value " << v;
  }
}

void ExpectShapeEqual(const RunResult& naive, const RunResult& paned) {
  ASSERT_EQ(naive.tuples.size(), paned.tuples.size());
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    EXPECT_EQ(naive.tuples[i].timestamp(), paned.tuples[i].timestamp());
    ASSERT_EQ(naive.tuples[i].num_values(), paned.tuples[i].num_values());
    EXPECT_TRUE(naive.tuples[i].value(0) == paned.tuples[i].value(0))
        << "group key mismatch at " << i;
    EXPECT_EQ(naive.tuples[i].lineage(), paned.tuples[i].lineage())
        << "lineage mismatch at " << i;
  }
}

class PaneAggregatesTumblingTest
    : public ::testing::TestWithParam<SumStrategyKind> {};

TEST_P(PaneAggregatesTumblingTest, BitwiseMatchesNaive) {
  const SumStrategyKind kind = GetParam();
  const auto stream = MakeStream(240, 21);
  const WindowSpec spec = WindowSpec::Tumbling(40);
  std::unique_ptr<SumStrategy> strategy = MakeSumStrategy(kind);
  const RunResult naive = RunNaive(stream, spec, strategy.get(),
                                   /*with_extremes=*/true);
  const RunResult paned = RunPaned(stream, spec, kind,
                                   /*with_extremes=*/true);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    for (size_t v = 1; v < naive.tuples[i].num_values(); ++v) {
      ExpectValueEqual(naive.tuples[i].value(v), paned.tuples[i].value(v), i,
                       v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PaneAggregatesTumblingTest,
                         ::testing::Values(SumStrategyKind::kClt,
                                           SumStrategyKind::kCfApprox,
                                           SumStrategyKind::kCfInversion,
                                           SumStrategyKind::kHistogram,
                                           SumStrategyKind::kMonteCarlo));

TEST(PaneAggregatesSlidingTest, CltMatchesNaiveTightly) {
  const auto stream = MakeStream(400, 22);
  const WindowSpec spec = WindowSpec::Sliding(40, 10);  // overlap 4
  CltSum clt;
  const RunResult naive = RunNaive(stream, spec, &clt, false);
  const RunResult paned = RunPaned(stream, spec, SumStrategyKind::kClt,
                                   false);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    // Pane decomposition only reassociates the cumulant sums.
    ExpectValueNear(naive.tuples[i].value(1), paned.tuples[i].value(1),
                    1e-9, 1e-12, i, 1);
  }
}

TEST(PaneAggregatesSlidingTest, CfApproxMatchesNaiveTightly) {
  const auto stream = MakeStream(400, 23);
  const WindowSpec spec = WindowSpec::Sliding(40, 10);
  CfApproxSum approx(1);
  const RunResult naive = RunNaive(stream, spec, &approx, false);
  const RunResult paned = RunPaned(stream, spec, SumStrategyKind::kCfApprox,
                                   false);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    // Reassociated complex products at the two probe frequencies; the
    // cumulant finite difference divides by h^2 = 1e-8, so ~1e-16 relative
    // product error surfaces as ~1e-8 absolute variance error.
    ExpectValueNear(naive.tuples[i].value(1), paned.tuples[i].value(1),
                    1e-7, 1e-7, i, 1);
  }
}

TEST(PaneAggregatesSlidingTest, CfInversionMatchesNaiveMoments) {
  const auto stream = MakeStream(240, 24, /*with_certain=*/false);
  const WindowSpec spec = WindowSpec::Sliding(40, 10);
  CfInversionSum inv(1024);
  const RunResult naive = RunNaive(stream, spec, &inv, false);
  const RunResult paned = RunPaned(stream, spec,
                                   SumStrategyKind::kCfInversion, false);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    // Both paths invert the same product CF, on different (window-exact vs.
    // bucketed) grids; moments agree to discretization accuracy.
    ExpectValueNear(naive.tuples[i].value(1), paned.tuples[i].value(1),
                    5e-3, 1e-3, i, 1);
  }
}

TEST(PaneAggregatesSlidingTest, ExtremesMatchNaiveMoments) {
  const auto stream = MakeStream(300, 25);
  const WindowSpec spec = WindowSpec::Sliding(40, 10);
  CltSum clt;
  const RunResult naive = RunNaive(stream, spec, &clt, true);
  const RunResult paned = RunPaned(stream, spec, SumStrategyKind::kClt, true);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    // value 2 = MAX, value 3 = MIN (lattice vs. exact-support grids).
    ExpectValueNear(naive.tuples[i].value(2), paned.tuples[i].value(2),
                    5e-2, 2e-2, i, 2);
    ExpectValueNear(naive.tuples[i].value(3), paned.tuples[i].value(3),
                    5e-2, 2e-2, i, 3);
  }
}

TEST(PaneAggregatesTest, HavingFilterMatches) {
  const auto stream = MakeStream(300, 26);
  const WindowSpec spec = WindowSpec::Sliding(40, 20);
  auto having = MakeHavingProbGreater(1, 5.0, 0.5);

  CltSum clt;
  std::vector<stream::AggregateSpec> naggs;
  naggs.push_back(MakeSumAggregate("sum_w", 1, &clt));
  stream::GroupByAggregateOperator nop(
      "naive", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(naggs), having);
  VectorCollector nout;
  for (const Tuple& t : stream) {
    ASSERT_TRUE(nop.PushBatch(TupleBatch({t}), &nout).ok());
  }
  ASSERT_TRUE(nop.Close(&nout).ok());

  std::vector<stream::PaneAggregateSpec> paggs;
  paggs.push_back(MakePaneSumAggregate("sum_w", 1, SumStrategyKind::kClt));
  stream::PanedGroupByAggregateOperator pop(
      "paned", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(paggs), having);
  VectorCollector pout;
  for (const Tuple& t : stream) {
    ASSERT_TRUE(pop.PushBatch(TupleBatch({t}), &pout).ok());
  }
  ASSERT_TRUE(pop.Close(&pout).ok());

  ASSERT_EQ(nout.tuples().size(), pout.tuples().size());
  for (size_t i = 0; i < nout.tuples().size(); ++i) {
    EXPECT_TRUE(nout.tuples()[i].value(0) == pout.tuples()[i].value(0));
    EXPECT_EQ(nout.tuples()[i].timestamp(), pout.tuples()[i].timestamp());
  }
}

TEST(PaneAggregatesTest, LongStreamEvictsPanesAndStaysCorrect) {
  // 2000 tuples through a 4-overlap sliding window: pane eviction must not
  // disturb later windows (compare the tail against the naive path).
  const auto stream = MakeStream(2000, 27, /*with_certain=*/false);
  const WindowSpec spec = WindowSpec::Sliding(20, 5);
  CltSum clt;
  const RunResult naive = RunNaive(stream, spec, &clt, false);
  const RunResult paned = RunPaned(stream, spec, SumStrategyKind::kClt,
                                   false, /*batch_size=*/37);
  ExpectShapeEqual(naive, paned);
  for (size_t i = 0; i < naive.tuples.size(); ++i) {
    ExpectValueNear(naive.tuples[i].value(1), paned.tuples[i].value(1),
                    1e-9, 1e-12, i, 1);
  }
}

TEST(PaneAggregatesTest, AvgMatchesNaive) {
  const auto stream = MakeStream(200, 28);
  const WindowSpec spec = WindowSpec::Tumbling(50);
  CltSum clt;
  std::vector<stream::AggregateSpec> naggs;
  naggs.push_back(MakeAvgAggregate("avg_w", 1, &clt));
  stream::GroupByAggregateOperator nop(
      "naive", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(naggs));
  VectorCollector nout;
  for (const Tuple& t : stream) {
    ASSERT_TRUE(nop.PushBatch(TupleBatch({t}), &nout).ok());
  }
  ASSERT_TRUE(nop.Close(&nout).ok());

  std::vector<stream::PaneAggregateSpec> paggs;
  paggs.push_back(MakePaneAvgAggregate("avg_w", 1, SumStrategyKind::kClt));
  stream::PanedGroupByAggregateOperator pop(
      "paned", spec, [](const Tuple& t) { return t.value(0).AsString(); },
      std::move(paggs));
  VectorCollector pout;
  for (const Tuple& t : stream) {
    ASSERT_TRUE(pop.PushBatch(TupleBatch({t}), &pout).ok());
  }
  ASSERT_TRUE(pop.Close(&pout).ok());

  ASSERT_EQ(nout.tuples().size(), pout.tuples().size());
  for (size_t i = 0; i < nout.tuples().size(); ++i) {
    ExpectValueEqual(nout.tuples()[i].value(1), pout.tuples()[i].value(1), i,
                     1);
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace usp
