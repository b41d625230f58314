// SUM (and AVG) over N independent continuous random variables — the
// algorithms the paper compares in Table 2 (§5.1):
//
//   kHistogram    discretize + pairwise convolution (Ge-Zdonik [25] style
//                 baseline): fast-ish, lossy;
//   kCfInversion  product of closed-form CFs inverted with a single
//                 (FFT-evaluated) integral: exact, slow;
//   kCfApprox     fit a Gaussian (or small mixture) to the closed-form
//                 product CF via cumulants: fastest, small error;
//   kMonteCarlo   sample realizations of the sum (MCDB [30] style);
//   kClt          Central Limit Theorem normal: near-zero cost, valid for
//                 large effective N.
//
// Every strategy consumes the same input (pointers to the summands'
// distributions) and produces a DistributionPtr for the sum, so they are
// interchangeable inside the stream aggregation operator.

#ifndef USP_UNCERTAIN_SUM_STRATEGIES_H_
#define USP_UNCERTAIN_SUM_STRATEGIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "stats/distribution.h"

namespace usp {
namespace uncertain {

enum class SumStrategyKind {
  kHistogram,
  kCfInversion,
  kCfApprox,
  kMonteCarlo,
  kClt,
};

const char* SumStrategyKindName(SumStrategyKind kind);

/// \brief Computes the distribution of sum(X_1..X_n) for independent X_i.
class SumStrategy {
 public:
  virtual ~SumStrategy() = default;
  virtual SumStrategyKind kind() const = 0;
  virtual std::string name() const { return SumStrategyKindName(kind()); }

  /// Distribution of the sum. `inputs` must be non-empty; all inputs are
  /// assumed independent.
  virtual common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) = 0;

  /// Distribution of the mean: affine rescale of SumOf.
  common::Result<stats::DistributionPtr> MeanOf(
      const std::vector<const stats::Distribution*>& inputs);
};

/// Histogram-convolution baseline. `bins` controls both the per-input
/// discretization and the working resolution of intermediate sums. The
/// default of 128 reproduces the accuracy/throughput balance of the
/// paper's Table 2 histogram row.
class HistogramSum final : public SumStrategy {
 public:
  explicit HistogramSum(size_t bins = 128) : bins_(bins) {}
  SumStrategyKind kind() const override { return SumStrategyKind::kHistogram; }
  common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) override;

 private:
  size_t bins_;
};

/// Exact CF inversion. Two evaluation modes:
///  - kFft (default): the single inversion integral evaluated for the
///    whole output grid at once via an FFT — our improvement over the
///    paper's prototype;
///  - kQuadrature: Gil-Pelaez numeric quadrature of the inversion
///    integral at each output point — the paper's method, kept for the
///    Table 2 reproduction (it is the slow exact row).
class CfInversionSum final : public SumStrategy {
 public:
  enum class Mode { kFft, kQuadrature };

  explicit CfInversionSum(size_t grid_points = 1024, Mode mode = Mode::kFft)
      : grid_points_(grid_points), mode_(mode) {}
  SumStrategyKind kind() const override {
    return SumStrategyKind::kCfInversion;
  }
  std::string name() const override {
    return mode_ == Mode::kFft ? "CF(inversion-fft)" : "CF(inversion)";
  }
  common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) override;

 private:
  size_t grid_points_;
  Mode mode_;
};

/// CF approximation: cumulant-matched Gaussian (num_components == 1) or a
/// least-squares mixture fit to the product CF (num_components > 1).
class CfApproxSum final : public SumStrategy {
 public:
  explicit CfApproxSum(size_t num_components = 1)
      : num_components_(num_components) {}
  SumStrategyKind kind() const override { return SumStrategyKind::kCfApprox; }
  common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) override;

 private:
  size_t num_components_;
};

/// Monte Carlo: `samples` draws of the sum, returned as a ParticleSet.
class MonteCarloSum final : public SumStrategy {
 public:
  explicit MonteCarloSum(size_t samples = 1000, uint64_t seed = 7)
      : samples_(samples), rng_(seed) {}
  SumStrategyKind kind() const override {
    return SumStrategyKind::kMonteCarlo;
  }
  common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) override;

 private:
  size_t samples_;
  common::Rng rng_;
};

/// CLT: N(sum of means, sum of variances). Exact for all-Gaussian inputs.
class CltSum final : public SumStrategy {
 public:
  SumStrategyKind kind() const override { return SumStrategyKind::kClt; }
  common::Result<stats::DistributionPtr> SumOf(
      const std::vector<const stats::Distribution*>& inputs) override;
};

/// Factory by kind with default tuning parameters.
std::unique_ptr<SumStrategy> MakeSumStrategy(SumStrategyKind kind);

}  // namespace uncertain
}  // namespace usp

#endif  // USP_UNCERTAIN_SUM_STRATEGIES_H_
