#include "stats/gaussian_mixture.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/math_util.h"
#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {

using common::kSqrt2Pi;

common::Result<GaussianMixture> GaussianMixture::Make(
    std::vector<Component> comps) {
  if (comps.empty()) {
    return common::Status::InvalidArgument(
        "GaussianMixture requires at least one component");
  }
  double wsum = 0.0;
  for (const auto& c : comps) {
    if (!(c.weight > 0.0) || !(c.stddev > 0.0) || !std::isfinite(c.mean)) {
      return common::Status::InvalidArgument(
          "GaussianMixture components require weight > 0, stddev > 0, "
          "finite mean");
    }
    wsum += c.weight;
  }
  for (auto& c : comps) c.weight /= wsum;
  return GaussianMixture(std::move(comps));
}

GaussianMixture::GaussianMixture(std::vector<Component> comps)
    : comps_(std::move(comps)) {
  mean_ = 0.0;
  for (const auto& c : comps_) mean_ += c.weight * c.mean;
  variance_ = 0.0;
  for (const auto& c : comps_) {
    const double dm = c.mean - mean_;
    variance_ += c.weight * (c.stddev * c.stddev + dm * dm);
  }
}

double GaussianMixture::Pdf(double x) const {
  double p = 0.0;
  for (const auto& c : comps_) {
    const double z = (x - c.mean) / c.stddev;
    p += c.weight * std::exp(-0.5 * z * z) / (c.stddev * kSqrt2Pi);
  }
  return p;
}

double GaussianMixture::LogPdf(double x) const {
  std::vector<double> terms;
  terms.reserve(comps_.size());
  for (const auto& c : comps_) {
    const double z = (x - c.mean) / c.stddev;
    terms.push_back(std::log(c.weight) - 0.5 * z * z -
                    std::log(c.stddev * kSqrt2Pi));
  }
  return common::LogSumExp(terms);
}

double GaussianMixture::Cdf(double x) const {
  double p = 0.0;
  for (const auto& c : comps_) {
    p += c.weight * common::StdNormalCdf((x - c.mean) / c.stddev);
  }
  return p;
}

std::complex<double> GaussianMixture::Cf(double t) const {
  // Direct form of each component, accumulated in component order like
  // CfGrid.
  std::complex<double> s(0.0, 0.0);
  for (const auto& c : comps_) {
    simd::GmmCfPointAccum(-0.5 * c.stddev * c.stddev, c.mean, c.weight, t, &s);
  }
  return s;
}

void GaussianMixture::CfGrid(double dt, int64_t j_begin, size_t n,
                             std::complex<double>* out) const {
  // Component-major accumulation: per-component constants are hoisted once
  // instead of once per (point, component) pair.
  for (size_t i = 0; i < n; ++i) out[i] = std::complex<double>(0.0, 0.0);
  const simd::Dispatch& k = simd::Active();
  for (const auto& c : comps_) {
    k.gmm_cf_grid_accum(-0.5 * c.stddev * c.stddev, c.mean, c.weight, dt,
                        j_begin, n, out);
  }
}

void GaussianMixture::CdfGrid(const double* x, size_t n, double* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  const simd::Dispatch& k = simd::Active();
  for (const auto& c : comps_) {
    k.gmm_cdf_grid_accum(c.mean, c.stddev, c.weight, x, n, out);
  }
}

bool GaussianMixture::AppendCacheKey(std::vector<double>* key) const {
  key->push_back(static_cast<double>(type()));
  key->push_back(static_cast<double>(comps_.size()));
  for (const auto& c : comps_) {
    key->push_back(c.weight);
    key->push_back(c.mean);
    key->push_back(c.stddev);
  }
  return true;
}

double GaussianMixture::Sample(common::Rng* rng) const {
  double u = rng->Uniform();
  for (const auto& c : comps_) {
    u -= c.weight;
    if (u < 0.0) return rng->Gaussian(c.mean, c.stddev);
  }
  const auto& last = comps_.back();
  return rng->Gaussian(last.mean, last.stddev);
}

Support GaussianMixture::NumericSupport() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& c : comps_) {
    lo = std::min(lo, c.mean - 6.5 * c.stddev);
    hi = std::max(hi, c.mean + 6.5 * c.stddev);
  }
  return {lo, hi};
}

std::unique_ptr<Distribution> GaussianMixture::Clone() const {
  return std::unique_ptr<Distribution>(new GaussianMixture(*this));
}

std::string GaussianMixture::ToString() const {
  std::string s = "GMM{";
  char buf[80];
  for (size_t i = 0; i < comps_.size(); ++i) {
    snprintf(buf, sizeof(buf), "%s%.3g*N(%.4g,%.4g^2)", i ? ", " : "",
             comps_[i].weight, comps_[i].mean, comps_[i].stddev);
    s += buf;
  }
  s += "}";
  return s;
}

GaussianMixture GaussianMixture::AffineTransform(double a, double b) const {
  assert(a != 0.0);
  std::vector<Component> out = comps_;
  for (auto& c : out) {
    c.mean = a * c.mean + b;
    c.stddev = std::fabs(a) * c.stddev;
  }
  return GaussianMixture(std::move(out));
}

GaussianMixture GaussianMixture::SumOfIndependent(const GaussianMixture& a,
                                                  const GaussianMixture& b) {
  std::vector<Component> out;
  out.reserve(a.comps_.size() * b.comps_.size());
  for (const auto& ca : a.comps_) {
    for (const auto& cb : b.comps_) {
      out.push_back({ca.weight * cb.weight, ca.mean + cb.mean,
                     std::sqrt(ca.stddev * ca.stddev + cb.stddev * cb.stddev)});
    }
  }
  return GaussianMixture(std::move(out));
}

namespace {
// Moment-preserving merge of two weighted Gaussian components.
GaussianMixture::Component MergeComponents(
    const GaussianMixture::Component& a, const GaussianMixture::Component& b) {
  const double w = a.weight + b.weight;
  const double wa = a.weight / w;
  const double wb = b.weight / w;
  const double mean = wa * a.mean + wb * b.mean;
  const double var = wa * (a.stddev * a.stddev +
                           (a.mean - mean) * (a.mean - mean)) +
                     wb * (b.stddev * b.stddev +
                           (b.mean - mean) * (b.mean - mean));
  return {w, mean, std::sqrt(var)};
}

// Runnalls' upper bound on the KL cost of merging components i and j.
double MergeCost(const GaussianMixture::Component& a,
                 const GaussianMixture::Component& b) {
  const GaussianMixture::Component m = MergeComponents(a, b);
  const double w = a.weight + b.weight;
  return 0.5 * (w * std::log(m.stddev * m.stddev) -
                a.weight * std::log(a.stddev * a.stddev) -
                b.weight * std::log(b.stddev * b.stddev));
}
}  // namespace

GaussianMixture GaussianMixture::Reduced(size_t max_components) const {
  assert(max_components >= 1);
  std::vector<Component> comps = comps_;
  while (comps.size() > max_components) {
    size_t bi = 0, bj = 1;
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < comps.size(); ++i) {
      for (size_t j = i + 1; j < comps.size(); ++j) {
        const double cost = MergeCost(comps[i], comps[j]);
        if (cost < best) {
          best = cost;
          bi = i;
          bj = j;
        }
      }
    }
    comps[bi] = MergeComponents(comps[bi], comps[bj]);
    comps.erase(comps.begin() + static_cast<ptrdiff_t>(bj));
  }
  return GaussianMixture(std::move(comps));
}

}  // namespace stats
}  // namespace usp
