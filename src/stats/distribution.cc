#include "stats/distribution.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace usp {
namespace stats {

const char* DistTypeName(DistType type) {
  switch (type) {
    case DistType::kGaussian:
      return "Gaussian";
    case DistType::kGaussianMixture:
      return "GaussianMixture";
    case DistType::kUniform:
      return "Uniform";
    case DistType::kExponential:
      return "Exponential";
    case DistType::kGamma:
      return "Gamma";
    case DistType::kHistogram:
      return "Histogram";
    case DistType::kParticleSet:
      return "ParticleSet";
    case DistType::kTruncated:
      return "Truncated";
  }
  return "Unknown";
}

double Distribution::LogPdf(double x) const {
  const double p = Pdf(x);
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(p);
}

double Distribution::Stddev() const { return std::sqrt(Variance()); }

void Distribution::CfGrid(double dt, int64_t j_begin, size_t n,
                          std::complex<double>* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Cf(LatticeFrequency(j_begin + static_cast<int64_t>(i), dt));
  }
}

void Distribution::CdfGrid(const double* x, size_t n, double* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = Cdf(x[i]);
}

double Distribution::Quantile(double p) const {
  assert(p > 0.0 && p < 1.0);
  Support s = NumericSupport();
  double lo = s.lo;
  double hi = s.hi;
  // Guard against infinite supports from misbehaving subclasses.
  if (!std::isfinite(lo)) lo = Mean() - 40.0 * (Stddev() + 1.0);
  if (!std::isfinite(hi)) hi = Mean() + 40.0 * (Stddev() + 1.0);
  // Bisection: Cdf is monotone non-decreasing.
  for (int iter = 0; iter < 200 && hi - lo > 1e-12 * (1.0 + std::fabs(hi));
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (Cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Distribution::Interval Distribution::ConfidenceRegion(double confidence) const {
  assert(confidence > 0.0 && confidence < 1.0);
  const double tail = 0.5 * (1.0 - confidence);
  return {Quantile(tail), Quantile(1.0 - tail)};
}

}  // namespace stats
}  // namespace usp
