#include "uncertain/sum_strategies.h"

#include <cmath>

#include "stats/characteristic_function.h"
#include "stats/fitting.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/particle_set.h"
#include "uncertain/dist_ops.h"

namespace usp {
namespace uncertain {

using stats::DistributionPtr;

const char* SumStrategyKindName(SumStrategyKind kind) {
  switch (kind) {
    case SumStrategyKind::kHistogram:
      return "Histogram";
    case SumStrategyKind::kCfInversion:
      return "CF(inversion)";
    case SumStrategyKind::kCfApprox:
      return "CF(approx)";
    case SumStrategyKind::kMonteCarlo:
      return "MonteCarlo";
    case SumStrategyKind::kClt:
      return "CLT";
  }
  return "?";
}

common::Result<DistributionPtr> SumStrategy::MeanOf(
    const std::vector<const stats::Distribution*>& inputs) {
  auto sum = SumOf(inputs);
  if (!sum.ok()) return sum.status();
  return ScaleOf(*sum.value(), 1.0 / static_cast<double>(inputs.size()));
}

namespace {
common::Status CheckInputs(
    const std::vector<const stats::Distribution*>& inputs) {
  if (inputs.empty()) {
    return common::Status::InvalidArgument("SumOf requires >= 1 input");
  }
  for (const auto* d : inputs) {
    if (d == nullptr) {
      return common::Status::InvalidArgument("SumOf input is null");
    }
  }
  return common::Status::OK();
}

// Sum of means and variances across independent inputs.
void MomentTotals(const std::vector<const stats::Distribution*>& inputs,
                  double* mean, double* var) {
  *mean = 0.0;
  *var = 0.0;
  for (const auto* d : inputs) {
    *mean += d->Mean();
    *var += d->Variance();
  }
}
}  // namespace

namespace {

// Re-grid a histogram onto the sub-range holding all but `tail_mass` of
// its probability. Without this, folding many convolutions accumulates a
// range that grows additively with the number of summands while the mass
// concentrates (CLT), and a fixed bin budget loses all resolution.
stats::Histogram TrimHistogram(const stats::Histogram& h, size_t bins,
                               double tail_mass = 1e-9) {
  const double lo = h.Quantile(tail_mass);
  const double hi = h.Quantile(1.0 - tail_mass);
  if (!(lo < hi) || (hi - lo) > 0.9 * (h.hi() - h.lo())) return h;
  return stats::Histogram::Discretize(h, bins, lo, hi);
}

}  // namespace

common::Result<DistributionPtr> HistogramSum::SumOf(
    const std::vector<const stats::Distribution*>& inputs) {
  USP_RETURN_NOT_OK(CheckInputs(inputs));
  // Discretize the first input, then fold in the rest by pairwise
  // convolution, re-gridding to `bins_` after each step (this re-gridding
  // is the source of the baseline's accuracy loss).
  stats::Histogram acc = stats::Histogram::Discretize(*inputs[0], bins_);
  for (size_t i = 1; i < inputs.size(); ++i) {
    const stats::Histogram next =
        stats::Histogram::Discretize(*inputs[i], bins_);
    acc = TrimHistogram(
        stats::Histogram::ConvolveIndependent(acc, next, bins_), bins_);
  }
  return DistributionPtr(std::make_shared<stats::Histogram>(std::move(acc)));
}

common::Result<DistributionPtr> CfInversionSum::SumOf(
    const std::vector<const stats::Distribution*>& inputs) {
  USP_RETURN_NOT_OK(CheckInputs(inputs));
  double mean, var;
  MomentTotals(inputs, &mean, &var);
  const double sd = std::sqrt(std::max(var, 1e-12));
  if (mode_ == Mode::kQuadrature) {
    // The paper's method: evaluate the single inversion integral at each
    // output point with numeric quadrature.
    const stats::CharFn phi = stats::ProductCf(inputs);
    const double lo = mean - 8.0 * sd;
    const double hi = mean + 8.0 * sd;
    const size_t points = std::min<size_t>(grid_points_, 256);
    const double t_max = stats::FindCfDecayPoint(phi, 1e-10);
    const double dx = (hi - lo) / static_cast<double>(points);
    std::vector<double> masses(points);
    for (size_t i = 0; i < points; ++i) {
      const double x = lo + (static_cast<double>(i) + 0.5) * dx;
      masses[i] =
          std::max(0.0, stats::GilPelaezPdf(phi, x, t_max, /*panels=*/64)) *
          dx;
    }
    auto hist = stats::Histogram::FromMasses(lo, hi, std::move(masses));
    if (!hist.ok()) return hist.status();
    return DistributionPtr(
        std::make_shared<stats::Histogram>(hist.MoveValueUnsafe()));
  }
  stats::CfInversionOptions opts;
  opts.grid_points = grid_points_;
  opts.mean = mean;
  opts.stddev = sd;
  // Grid-kernel evaluation of the product CF (one CfGrid call per input
  // instead of one closure call per (input, frequency) pair).
  // Bitwise-identical to the closure path.
  auto hist = stats::InvertSumCfToDensity(inputs, opts, nullptr);
  if (!hist.ok()) return hist.status();
  return DistributionPtr(
      std::make_shared<stats::Histogram>(hist.MoveValueUnsafe()));
}

common::Result<DistributionPtr> CfApproxSum::SumOf(
    const std::vector<const stats::Distribution*>& inputs) {
  USP_RETURN_NOT_OK(CheckInputs(inputs));
  const stats::CharFn phi = stats::ProductCf(inputs);
  if (num_components_ <= 1) {
    return DistributionPtr(
        std::make_shared<stats::Gaussian>(stats::FitGaussianToCf(phi)));
  }
  auto mix = stats::FitMixtureToCf(phi, num_components_);
  if (!mix.ok()) return mix.status();
  return DistributionPtr(
      std::make_shared<stats::GaussianMixture>(mix.MoveValueUnsafe()));
}

common::Result<DistributionPtr> MonteCarloSum::SumOf(
    const std::vector<const stats::Distribution*>& inputs) {
  USP_RETURN_NOT_OK(CheckInputs(inputs));
  std::vector<double> sums(samples_, 0.0);
  for (const auto* d : inputs) {
    for (size_t s = 0; s < samples_; ++s) {
      sums[s] += d->Sample(&rng_);
    }
  }
  auto ps = stats::ParticleSet::Make(std::move(sums));
  if (!ps.ok()) return ps.status();
  return DistributionPtr(
      std::make_shared<stats::ParticleSet>(ps.MoveValueUnsafe()));
}

common::Result<DistributionPtr> CltSum::SumOf(
    const std::vector<const stats::Distribution*>& inputs) {
  USP_RETURN_NOT_OK(CheckInputs(inputs));
  double mean, var;
  MomentTotals(inputs, &mean, &var);
  auto g = stats::Gaussian::Make(mean, std::sqrt(std::max(var, 1e-24)));
  if (!g.ok()) return g.status();
  return DistributionPtr(
      std::make_shared<stats::Gaussian>(g.MoveValueUnsafe()));
}

std::unique_ptr<SumStrategy> MakeSumStrategy(SumStrategyKind kind) {
  switch (kind) {
    case SumStrategyKind::kHistogram:
      return std::make_unique<HistogramSum>();
    case SumStrategyKind::kCfInversion:
      return std::make_unique<CfInversionSum>();
    case SumStrategyKind::kCfApprox:
      return std::make_unique<CfApproxSum>();
    case SumStrategyKind::kMonteCarlo:
      return std::make_unique<MonteCarloSum>();
    case SumStrategyKind::kClt:
      return std::make_unique<CltSum>();
  }
  return nullptr;
}

}  // namespace uncertain
}  // namespace usp
