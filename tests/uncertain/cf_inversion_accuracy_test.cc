// Accuracy of the CF-inversion SUM, as data. On seeded sums whose exact
// distribution has a closed form (a sum of independent Gaussians is
// Gaussian; a sum of Gaussian mixtures is the mixture over every choice of
// one component per summand), the inverted density must stay within a
// stated Kolmogorov-Smirnov (CDF) bound and a stated variance-distance
// bound of the exact sum. Both engine paths are covered:
//  * the per-window kernel InvertSumCfToDensity, which tumbling windows
//    run (called directly, and through a tumbling paned operator);
//  * the pane-shared assembly of sliding windows (per-pane frequency
//    grids multiplied into the window CF).
// The bounds hold for any correct way of evaluating the CF grids: they
// constrain the result, not the bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/characteristic_function.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "stream/batch.h"
#include "stream/pane_window.h"
#include "stream/tuple.h"
#include "uncertain/pane_aggregates.h"

namespace usp {
namespace uncertain {
namespace {

using stats::GaussianMixture;

// Bounds for a 1024-bin output. Nearly all of the measured distance is the
// histogram's own discretisation (a piecewise-constant density against a
// smooth one), largest on the pane path, whose window range is a
// power-of-two bucket and so has wider bins. The worst cases over the
// seeds below are KS 1.2e-4 and variance distance 9.1e-3 (sliding
// windows); each bound is about 2.5x that, room for an equally exact grid
// evaluation but not for a lossy one.
constexpr size_t kGridPoints = 1024;
constexpr double kMaxKs = 3e-4;
constexpr double kMaxVarianceDistance = 2.5e-2;

struct Worst {
  double ks = 0.0;
  double vd = 0.0;
};

// The exact sum of independent mixtures: one component per choice of a
// component from every summand (weights multiply, means and variances add).
GaussianMixture ExactMixtureSum(const std::vector<const GaussianMixture*>& xs) {
  std::vector<GaussianMixture::Component> acc = {{1.0, 0.0, 0.0}};
  for (const GaussianMixture* x : xs) {
    std::vector<GaussianMixture::Component> next;
    next.reserve(acc.size() * x->components().size());
    for (const auto& a : acc) {
      for (const auto& c : x->components()) {
        // stddev carries the running variance until the end.
        next.push_back({a.weight * c.weight, a.mean + c.mean,
                        a.stddev + c.stddev * c.stddev});
      }
    }
    acc = std::move(next);
  }
  for (auto& c : acc) c.stddev = std::sqrt(c.stddev);
  return GaussianMixture::Make(std::move(acc)).MoveValueUnsafe();
}

GaussianMixture RandomMixture(common::Rng* rng, size_t max_components) {
  std::vector<GaussianMixture::Component> comps;
  const size_t k = 1 + rng->UniformInt(max_components);
  for (size_t c = 0; c < k; ++c) {
    comps.push_back(
        {0.2 + rng->Uniform(), rng->Uniform(-5.0, 5.0), 0.3 + rng->Uniform()});
  }
  return GaussianMixture::Make(std::move(comps)).MoveValueUnsafe();
}

void CheckAgainstExact(const stats::Distribution& got,
                       const stats::Distribution& exact, const std::string& what,
                       Worst* worst) {
  const double ks = stats::KsDistance(got, exact);
  const double vd = stats::VarianceDistance(got, exact);
  worst->ks = std::max(worst->ks, ks);
  worst->vd = std::max(worst->vd, vd);
  EXPECT_LE(ks, kMaxKs) << what;
  EXPECT_LE(vd, kMaxVarianceDistance) << what;
}

stats::CfInversionOptions OptionsFor(
    const std::vector<const stats::Distribution*>& dists) {
  double mean = 0.0, var = 0.0;
  for (const stats::Distribution* d : dists) {
    mean += d->Mean();
    var += d->Variance();
  }
  stats::CfInversionOptions opts;
  opts.grid_points = kGridPoints;
  opts.mean = mean;
  opts.stddev = std::sqrt(var);
  return opts;
}

TEST(CfInversionAccuracyTest, GaussianSumsMatchExactSum) {
  stats::CfInversionWorkspace ws;
  Worst worst;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    const size_t n = 1 + rng.UniformInt(60);
    std::vector<stats::Gaussian> gs;
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      gs.emplace_back(rng.Uniform(-50.0, 50.0), 0.05 + 3.0 * rng.Uniform());
      mean += gs.back().Mean();
      var += gs.back().Variance();
    }
    std::vector<const stats::Distribution*> dists;
    for (const auto& g : gs) dists.push_back(&g);
    auto hist = stats::InvertSumCfToDensity(dists, OptionsFor(dists), &ws);
    ASSERT_TRUE(hist.ok()) << hist.status().ToString();
    CheckAgainstExact(hist.value(), stats::Gaussian(mean, std::sqrt(var)),
                      "gaussian seed " + std::to_string(seed), &worst);
  }
  std::printf("gaussian sums: worst KS %.3g, worst variance distance %.3g\n",
              worst.ks, worst.vd);
}

TEST(CfInversionAccuracyTest, MixtureSumsMatchExactSum) {
  stats::CfInversionWorkspace ws;
  ws.grid_cache.enabled = true;  // the configuration compiled plans use
  Worst worst;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(1000 + seed);
    const size_t n = 1 + rng.UniformInt(4);
    std::vector<GaussianMixture> xs;
    for (size_t i = 0; i < n; ++i) xs.push_back(RandomMixture(&rng, 3));
    std::vector<const stats::Distribution*> dists;
    std::vector<const GaussianMixture*> mixtures;
    for (const auto& x : xs) {
      dists.push_back(&x);
      mixtures.push_back(&x);
    }
    auto hist = stats::InvertSumCfToDensity(dists, OptionsFor(dists), &ws);
    ASSERT_TRUE(hist.ok()) << hist.status().ToString();
    CheckAgainstExact(hist.value(), ExactMixtureSum(mixtures),
                      "mixture seed " + std::to_string(seed), &worst);
  }
  std::printf("mixture sums: worst KS %.3g, worst variance distance %.3g\n",
              worst.ks, worst.vd);
}

// Streams [key, mixture] tuples through a paned CF-inversion SUM and
// checks every output row against the exact sum of the tuples its
// lineage names.
void RunOperatorAgainstExact(stream::WindowSpec spec, uint64_t seed,
                             size_t max_components, Worst* worst) {
  common::Rng rng(seed);
  std::vector<stream::Tuple> input;
  std::map<stream::TupleId, std::shared_ptr<const GaussianMixture>> by_id;
  const char* keys[] = {"a", "b"};
  for (int64_t ts = 0; ts < 120; ts += 4) {
    auto x = std::make_shared<const GaussianMixture>(
        RandomMixture(&rng, max_components));
    stream::Tuple t(ts, {stream::Value(keys[rng.UniformInt(2)]),
                         stream::Value(stats::DistributionPtr(x))});
    t.InitBaseLineage();
    by_id[t.id()] = x;
    input.push_back(std::move(t));
  }
  stats::CfInversionWorkspace ws;
  ws.grid_cache.enabled = true;
  PaneAggregateOptions opts;
  opts.grid_points = kGridPoints;
  opts.workspace = &ws;
  std::vector<stream::PaneAggregateSpec> aggs;
  aggs.push_back(MakePaneSumAggregate("sum", 1, SumStrategyKind::kCfInversion,
                                      opts));
  stream::PanedGroupByAggregateOperator op(
      "paned", spec,
      [](const stream::Tuple& t) { return t.value(0).AsString(); },
      std::move(aggs));
  stream::VectorCollector out;
  for (size_t i = 0; i < input.size(); i += 3) {
    stream::TupleBatch batch;
    for (size_t j = i; j < std::min(i + 3, input.size()); ++j) {
      batch.Append(input[j]);
    }
    ASSERT_TRUE(op.PushBatch(batch, &out).ok());
    ASSERT_TRUE(op.AdvanceWatermark(batch.MaxTimestamp(), &out).ok());
  }
  ASSERT_TRUE(op.Close(&out).ok());
  ASSERT_FALSE(out.tuples().empty());
  for (const stream::Tuple& row : out.tuples()) {
    std::vector<const GaussianMixture*> members;
    for (const stream::TupleId id : row.lineage()) {
      members.push_back(by_id.at(id).get());
    }
    ASSERT_FALSE(members.empty());
    CheckAgainstExact(*row.value(1).AsDistribution(),
                      ExactMixtureSum(members),
                      "seed " + std::to_string(seed) + " row at ts " +
                          std::to_string(row.timestamp()),
                      worst);
  }
}

TEST(CfInversionAccuracyTest, TumblingWindowsMatchExactSum) {
  Worst worst;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunOperatorAgainstExact(stream::WindowSpec::Tumbling(24), 2000 + seed,
                            /*max_components=*/2, &worst);
  }
  std::printf("tumbling windows: worst KS %.3g, worst variance distance %.3g\n",
              worst.ks, worst.vd);
}

TEST(CfInversionAccuracyTest, PaneSharedSlidingWindowsMatchExactSum) {
  Worst worst;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunOperatorAgainstExact(stream::WindowSpec::Sliding(32, 8), 3000 + seed,
                            /*max_components=*/2, &worst);
  }
  std::printf("sliding windows: worst KS %.3g, worst variance distance %.3g\n",
              worst.ks, worst.vd);
}

}  // namespace
}  // namespace uncertain
}  // namespace usp
