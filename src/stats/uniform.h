// Uniform distribution on [lo, hi]; used for sensor quantization noise and
// as a stress case for CF-based aggregation (its CF decays slowly).

#ifndef USP_STATS_UNIFORM_H_
#define USP_STATS_UNIFORM_H_

#include "stats/distribution.h"

namespace usp {
namespace stats {

/// \brief U(lo, hi) with lo < hi.
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);
  static common::Result<Uniform> Make(double lo, double hi);

  DistType type() const override { return DistType::kUniform; }
  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  double Variance() const override;
  std::complex<double> Cf(double t) const override;
  void CfGrid(double dt, int64_t j_begin, size_t n,
              std::complex<double>* out) const override;
  bool AppendCacheKey(std::vector<double>* key) const override;
  double Sample(common::Rng* rng) const override;
  Support NumericSupport() const override { return {lo_, hi_}; }
  std::unique_ptr<Distribution> Clone() const override;
  std::string ToString() const override;

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_UNIFORM_H_
