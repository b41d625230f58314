// Gaussian mixture distribution. The paper (§4.3) uses mixtures to model
// multi-modal tuple-level distributions (e.g. an object that may have moved
// between shelves) and (§5.1) fits mixtures to closed-form characteristic
// functions of sums.

#ifndef USP_STATS_GAUSSIAN_MIXTURE_H_
#define USP_STATS_GAUSSIAN_MIXTURE_H_

#include <vector>

#include "stats/gaussian.h"

namespace usp {
namespace stats {

/// \brief Finite mixture sum_k w_k N(mu_k, sigma_k^2) with w_k > 0,
/// sum w_k = 1 (weights are normalized at construction).
class GaussianMixture final : public Distribution {
 public:
  struct Component {
    double weight;
    double mean;
    double stddev;
  };

  /// Validating factory; requires >= 1 component, positive weights and
  /// stddevs. Weights are normalized to sum to 1.
  static common::Result<GaussianMixture> Make(std::vector<Component> comps);

  DistType type() const override { return DistType::kGaussianMixture; }

  double Pdf(double x) const override;
  double LogPdf(double x) const override;
  double Cdf(double x) const override;
  double Mean() const override { return mean_; }
  double Variance() const override { return variance_; }
  std::complex<double> Cf(double t) const override;
  void CfGrid(double dt, int64_t j_begin, size_t n,
              std::complex<double>* out) const override;
  void CdfGrid(const double* x, size_t n, double* out) const override;
  bool AppendCacheKey(std::vector<double>* key) const override;
  double Sample(common::Rng* rng) const override;
  Support NumericSupport() const override;
  std::unique_ptr<Distribution> Clone() const override;
  std::string ToString() const override;

  const std::vector<Component>& components() const { return comps_; }
  size_t num_components() const { return comps_.size(); }

  /// Distribution of aX + b (a != 0).
  GaussianMixture AffineTransform(double a, double b) const;

  /// Sum of two independent mixtures: the component-product mixture with
  /// K_a * K_b components.
  static GaussianMixture SumOfIndependent(const GaussianMixture& a,
                                          const GaussianMixture& b);

  /// Greedy reduction to at most `max_components` by repeatedly merging the
  /// pair of components with minimal moment-preserving merge cost (Runnalls'
  /// KL-based criterion). Keeps overall mean and variance exact.
  GaussianMixture Reduced(size_t max_components) const;

 private:
  explicit GaussianMixture(std::vector<Component> comps);

  std::vector<Component> comps_;
  double mean_;
  double variance_;
};

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_GAUSSIAN_MIXTURE_H_
