#include "stats/exponential.h"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {

Exponential::Exponential(double rate) : rate_(rate) { assert(rate > 0.0); }

common::Result<Exponential> Exponential::Make(double rate) {
  if (!std::isfinite(rate) || rate <= 0.0) {
    return common::Status::InvalidArgument("Exponential requires rate > 0");
  }
  return Exponential(rate);
}

double Exponential::Pdf(double x) const {
  return x < 0.0 ? 0.0 : rate_ * std::exp(-rate_ * x);
}

double Exponential::Cdf(double x) const {
  return x < 0.0 ? 0.0 : 1.0 - std::exp(-rate_ * x);
}

double Exponential::Quantile(double p) const {
  return -std::log1p(-p) / rate_;
}

std::complex<double> Exponential::Cf(double t) const {
  // rate / (rate - it), expanded against the conjugate; point form of the
  // grid kernel.
  return simd::ExponentialCfPoint(rate_, t);
}

void Exponential::CfGrid(double dt, int64_t j_begin, size_t n,
                         std::complex<double>* out) const {
  simd::Active().exponential_cf_grid(rate_, dt, j_begin, n, out);
}

bool Exponential::AppendCacheKey(std::vector<double>* key) const {
  key->push_back(static_cast<double>(type()));
  key->push_back(rate_);
  return true;
}

double Exponential::Sample(common::Rng* rng) const {
  return rng->Exponential(rate_);
}

Support Exponential::NumericSupport() const {
  // Quantile(1 - 1e-9) = ~20.7 / rate.
  return {0.0, 21.0 / rate_};
}

std::unique_ptr<Distribution> Exponential::Clone() const {
  return std::make_unique<Exponential>(*this);
}

std::string Exponential::ToString() const {
  char buf[48];
  snprintf(buf, sizeof(buf), "Exp(%.6g)", rate_);
  return buf;
}

}  // namespace stats
}  // namespace usp
