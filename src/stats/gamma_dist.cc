#include "stats/gamma_dist.h"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "stats/simd/dispatch.h"

namespace usp {
namespace stats {

double RegularizedGammaP(double a, double x) {
  assert(a > 0.0);
  if (x <= 0.0) return 0.0;
  const double gln = std::lgamma(a);
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - gln);
  }
  // Continued fraction for Q(a,x) = 1 - P(a,x), modified Lentz.
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - gln) * h;
  return 1.0 - q;
}

GammaDist::GammaDist(double shape, double scale)
    : shape_(shape), scale_(scale) {
  assert(shape > 0.0 && scale > 0.0);
}

common::Result<GammaDist> GammaDist::Make(double shape, double scale) {
  if (!std::isfinite(shape) || !std::isfinite(scale) || shape <= 0.0 ||
      scale <= 0.0) {
    return common::Status::InvalidArgument(
        "Gamma requires shape > 0 and scale > 0");
  }
  return GammaDist(shape, scale);
}

double GammaDist::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (shape_ > 1.0) return 0.0;
    if (shape_ == 1.0) return 1.0 / scale_;
    return 0.0;  // density diverges; report 0 at the boundary point
  }
  return std::exp(LogPdf(x));
}

double GammaDist::LogPdf(double x) const {
  if (x <= 0.0) return -INFINITY;
  return (shape_ - 1.0) * std::log(x) - x / scale_ - std::lgamma(shape_) -
         shape_ * std::log(scale_);
}

double GammaDist::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(shape_, x / scale_);
}

std::complex<double> GammaDist::Cf(double t) const {
  // (1 - i theta t)^{-k}
  const std::complex<double> base(1.0, -scale_ * t);
  return std::pow(base, -shape_);
}

void GammaDist::CfGrid(double dt, int64_t j_begin, size_t n,
                       std::complex<double>* out) const {
  // Both dispatch tiers route here: complex pow has no lane-exact vector
  // form, so the table registers this same per-lane loop for every ISA.
  simd::Active().gamma_cf_grid(shape_, scale_, dt, j_begin, n, out);
}

bool GammaDist::AppendCacheKey(std::vector<double>* key) const {
  key->push_back(static_cast<double>(type()));
  key->push_back(shape_);
  key->push_back(scale_);
  return true;
}

double GammaDist::Sample(common::Rng* rng) const {
  return rng->Gamma(shape_, scale_);
}

Support GammaDist::NumericSupport() const {
  const double hi = Mean() + 14.0 * Stddev();
  return {0.0, hi};
}

std::unique_ptr<Distribution> GammaDist::Clone() const {
  return std::make_unique<GammaDist>(*this);
}

std::string GammaDist::ToString() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "Gamma(k=%.6g, theta=%.6g)", shape_, scale_);
  return buf;
}

}  // namespace stats
}  // namespace usp
