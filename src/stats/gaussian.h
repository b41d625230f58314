// Gaussian (normal) distribution — the workhorse tuple-level distribution
// (§4.3): particle sets are converted to Gaussians by KL minimization, and
// CLT-based aggregation produces Gaussians.

#ifndef USP_STATS_GAUSSIAN_H_
#define USP_STATS_GAUSSIAN_H_

#include "stats/distribution.h"

namespace usp {
namespace stats {

/// \brief N(mean, stddev^2). stddev must be > 0.
class Gaussian final : public Distribution {
 public:
  Gaussian(double mean, double stddev);

  /// Validating factory; rejects non-finite mean or non-positive stddev.
  static common::Result<Gaussian> Make(double mean, double stddev);

  DistType type() const override { return DistType::kGaussian; }

  double Pdf(double x) const override;
  double LogPdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return mean_; }
  double Variance() const override { return stddev_ * stddev_; }
  std::complex<double> Cf(double t) const override;
  void CfGrid(double dt, int64_t j_begin, size_t n,
              std::complex<double>* out) const override;
  void CdfGrid(const double* x, size_t n, double* out) const override;
  bool AppendCacheKey(std::vector<double>* key) const override;
  double Sample(common::Rng* rng) const override;
  Support NumericSupport() const override;
  std::unique_ptr<Distribution> Clone() const override;
  std::string ToString() const override;

  double stddev() const { return stddev_; }

  /// KL(this || other) in nats, closed form for two Gaussians.
  double KlTo(const Gaussian& other) const;

  /// Distribution of aX + b for X ~ this (a != 0).
  Gaussian AffineTransform(double a, double b) const;

  /// Sum of two independent Gaussians.
  static Gaussian SumOfIndependent(const Gaussian& a, const Gaussian& b);

 private:
  double mean_;
  double stddev_;
};

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_GAUSSIAN_H_
