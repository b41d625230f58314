// Exponential distribution; a skewed test case for CLT convergence
// experiments (the paper's §5.1 notes the CLT applies "when the number of
// effective summands is fairly large" — skewness controls how large).

#ifndef USP_STATS_EXPONENTIAL_H_
#define USP_STATS_EXPONENTIAL_H_

#include "stats/distribution.h"

namespace usp {
namespace stats {

/// \brief Exp(rate) with density rate * e^{-rate x} on [0, inf).
class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate);
  static common::Result<Exponential> Make(double rate);

  DistType type() const override { return DistType::kExponential; }
  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return 1.0 / rate_; }
  double Variance() const override { return 1.0 / (rate_ * rate_); }
  std::complex<double> Cf(double t) const override;
  void CfGrid(double dt, int64_t j_begin, size_t n,
              std::complex<double>* out) const override;
  bool AppendCacheKey(std::vector<double>* key) const override;
  double Sample(common::Rng* rng) const override;
  Support NumericSupport() const override;
  std::unique_ptr<Distribution> Clone() const override;
  std::string ToString() const override;

  double rate() const { return rate_; }

 private:
  double rate_;
};

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_EXPONENTIAL_H_
