#include "stats/uniform.h"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  assert(lo < hi);
}

common::Result<Uniform> Uniform::Make(double lo, double hi) {
  if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi)) {
    return common::Status::InvalidArgument("Uniform requires lo < hi, finite");
  }
  return Uniform(lo, hi);
}

double Uniform::Pdf(double x) const {
  return (x >= lo_ && x <= hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double Uniform::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

double Uniform::Quantile(double p) const { return lo_ + p * (hi_ - lo_); }

double Uniform::Variance() const {
  const double w = hi_ - lo_;
  return w * w / 12.0;
}

std::complex<double> Uniform::Cf(double t) const {
  // (e^{it hi} - e^{it lo}) / (it (hi - lo)); point form of the grid
  // kernel (division by the imaginary denominator expanded, t == 0
  // selected to exactly (1, 0)).
  return simd::UniformCfPoint(lo_, hi_, t);
}

void Uniform::CfGrid(double dt, int64_t j_begin, size_t n,
                     std::complex<double>* out) const {
  simd::Active().uniform_cf_grid(lo_, hi_, dt, j_begin, n, out);
}

bool Uniform::AppendCacheKey(std::vector<double>* key) const {
  key->push_back(static_cast<double>(type()));
  key->push_back(lo_);
  key->push_back(hi_);
  return true;
}

double Uniform::Sample(common::Rng* rng) const {
  return rng->Uniform(lo_, hi_);
}

std::unique_ptr<Distribution> Uniform::Clone() const {
  return std::make_unique<Uniform>(*this);
}

std::string Uniform::ToString() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "U(%.6g, %.6g)", lo_, hi_);
  return buf;
}

}  // namespace stats
}  // namespace usp
