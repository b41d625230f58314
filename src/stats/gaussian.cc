#include "stats/gaussian.h"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/math_util.h"
#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {

using common::kSqrt2Pi;

Gaussian::Gaussian(double mean, double stddev) : mean_(mean), stddev_(stddev) {
  assert(std::isfinite(mean) && stddev > 0.0);
}

common::Result<Gaussian> Gaussian::Make(double mean, double stddev) {
  if (!std::isfinite(mean) || !std::isfinite(stddev) || stddev <= 0.0) {
    return common::Status::InvalidArgument(
        "Gaussian requires finite mean and stddev > 0");
  }
  return Gaussian(mean, stddev);
}

double Gaussian::Pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return std::exp(-0.5 * z * z) / (stddev_ * kSqrt2Pi);
}

double Gaussian::LogPdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return -0.5 * z * z - std::log(stddev_ * kSqrt2Pi);
}

double Gaussian::Cdf(double x) const {
  return common::StdNormalCdf((x - mean_) / stddev_);
}

double Gaussian::Quantile(double p) const {
  return mean_ + stddev_ * common::StdNormalQuantile(p);
}

std::complex<double> Gaussian::Cf(double t) const {
  // exp(i mu t - sigma^2 t^2 / 2), the direct form the grid kernel's
  // recurrence anchors on.
  return simd::GaussianCfPoint(-0.5 * stddev_ * stddev_, mean_, t);
}

void Gaussian::CfGrid(double dt, int64_t j_begin, size_t n,
                      std::complex<double>* out) const {
  simd::Active().gaussian_cf_grid(-0.5 * stddev_ * stddev_, mean_, dt, j_begin,
                                  n, out);
}

void Gaussian::CdfGrid(const double* x, size_t n, double* out) const {
  simd::Active().gaussian_cdf_grid(mean_, stddev_, x, n, out);
}

bool Gaussian::AppendCacheKey(std::vector<double>* key) const {
  key->push_back(static_cast<double>(type()));
  key->push_back(mean_);
  key->push_back(stddev_);
  return true;
}

double Gaussian::Sample(common::Rng* rng) const {
  return rng->Gaussian(mean_, stddev_);
}

Support Gaussian::NumericSupport() const {
  // +-6.5 sigma covers all but ~8e-11 of the mass.
  return {mean_ - 6.5 * stddev_, mean_ + 6.5 * stddev_};
}

std::unique_ptr<Distribution> Gaussian::Clone() const {
  return std::make_unique<Gaussian>(*this);
}

std::string Gaussian::ToString() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "N(%.6g, %.6g^2)", mean_, stddev_);
  return buf;
}

double Gaussian::KlTo(const Gaussian& other) const {
  const double vr = Variance() / other.Variance();
  const double dm = mean_ - other.mean_;
  return 0.5 * (vr + dm * dm / other.Variance() - 1.0 - std::log(vr));
}

Gaussian Gaussian::AffineTransform(double a, double b) const {
  assert(a != 0.0);
  return Gaussian(a * mean_ + b, std::fabs(a) * stddev_);
}

Gaussian Gaussian::SumOfIndependent(const Gaussian& a, const Gaussian& b) {
  return Gaussian(a.mean_ + b.mean_,
                  std::sqrt(a.Variance() + b.Variance()));
}

}  // namespace stats
}  // namespace usp
