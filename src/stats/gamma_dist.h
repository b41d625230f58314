// Gamma distribution; models strictly-positive physical quantities
// (reflectivity magnitudes, RFID signal strengths) and exercises the CF
// machinery with a non-symmetric closed-form CF.

#ifndef USP_STATS_GAMMA_DIST_H_
#define USP_STATS_GAMMA_DIST_H_

#include "stats/distribution.h"

namespace usp {
namespace stats {

/// \brief Gamma(shape k, scale theta), density x^{k-1} e^{-x/theta} /
/// (Gamma(k) theta^k) on [0, inf).
class GammaDist final : public Distribution {
 public:
  GammaDist(double shape, double scale);
  static common::Result<GammaDist> Make(double shape, double scale);

  DistType type() const override { return DistType::kGamma; }
  double Pdf(double x) const override;
  double LogPdf(double x) const override;
  double Cdf(double x) const override;
  double Mean() const override { return shape_ * scale_; }
  double Variance() const override { return shape_ * scale_ * scale_; }
  std::complex<double> Cf(double t) const override;
  void CfGrid(double dt, int64_t j_begin, size_t n,
              std::complex<double>* out) const override;
  bool AppendCacheKey(std::vector<double>* key) const override;
  double Sample(common::Rng* rng) const override;
  Support NumericSupport() const override;
  std::unique_ptr<Distribution> Clone() const override;
  std::string ToString() const override;

  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// Regularized lower incomplete gamma P(a, x); series/continued-fraction
/// evaluation (Numerical Recipes style). Exposed for tests.
double RegularizedGammaP(double a, double x);

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_GAMMA_DIST_H_
