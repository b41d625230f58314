// Deterministic, fast random number generation for simulators and
// sampling-based inference. The engine is xoshiro256++ (public-domain
// algorithm by Blackman & Vigna) which is much faster than std::mt19937_64
// and has better statistical properties; determinism across platforms is
// required so that simulated traces are reproducible in tests and benches.

#ifndef USP_COMMON_RNG_H_
#define USP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace usp {
namespace common {

/// \brief xoshiro256++ pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be used with
/// <random> distributions, but the member helpers avoid libstdc++
/// implementation differences for cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64 bits.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);
  /// Standard normal via Box-Muller with caching of the second deviate.
  double Gaussian();
  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);
  /// Exponential with the given rate lambda (> 0).
  double Exponential(double lambda);
  /// Gamma(shape k > 0, scale theta > 0) via Marsaglia-Tsang.
  double Gamma(double shape, double scale);
  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }
  /// Index sampled from unnormalized non-negative weights.
  /// Returns weights.size() if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Removes the second deviate of the last Box-Muller pair, if Gaussian()
  /// has one cached, into `*z` and returns true; returns false otherwise.
  /// With SetCachedGaussian this lets a caller that generates its own
  /// Box-Muller pairs from Uniform() keep the exact sequence Gaussian()
  /// would return.
  bool TakeCachedGaussian(double* z) {
    if (!has_cached_gaussian_) return false;
    has_cached_gaussian_ = false;
    *z = cached_gaussian_;
    return true;
  }
  /// Makes `z` the value the next Gaussian() call returns.
  void SetCachedGaussian(double z) {
    cached_gaussian_ = z;
    has_cached_gaussian_ = true;
  }

  /// Independent child generator; used to give each simulated entity its
  /// own stream so adding entities does not perturb existing ones.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace common
}  // namespace usp

#endif  // USP_COMMON_RNG_H_
