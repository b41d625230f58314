#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace usp {
namespace common {

namespace {
uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& w : s_) w = SplitMix64(x);
  // Avoid the all-zero state, which is a fixed point of the recurrence.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
  uint64_t r;
  do {
    r = Next();
  } while (r < threshold);
  return r % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::Gamma(double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct with the standard power-of-uniform trick.
    const double u = std::max(Uniform(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Gaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size();
  double u = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace common
}  // namespace usp
