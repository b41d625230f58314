// Polymorphic interface for univariate continuous distributions. This is the
// representation every uncertain tuple attribute carries (§3 of the paper:
// "to analyze uncertainty of further processing results, we need the pdf of
// each tuple").
//
// Design notes:
//  - Characteristic functions are first-class (`Cf`) because the paper's
//    core aggregation algorithms (§5.1) operate on closed-form CFs.
//  - Implementations are immutable after construction so tuples can share
//    them via shared_ptr without copies on hot stream paths.

#ifndef USP_STATS_DISTRIBUTION_H_
#define USP_STATS_DISTRIBUTION_H_

#include <complex>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace usp {
namespace stats {

/// Runtime tag for concrete distribution types.
enum class DistType {
  kGaussian,
  kGaussianMixture,
  kUniform,
  kExponential,
  kGamma,
  kHistogram,
  kParticleSet,
  kTruncated,
};

const char* DistTypeName(DistType type);

/// Closed real interval (possibly unbounded) on which a density is non-zero.
struct Support {
  double lo;
  double hi;
  bool Contains(double x) const { return x >= lo && x <= hi; }
  double Width() const { return hi - lo; }
};

/// The frequency lattice every CF grid lives on: t_j = j * dt. Grid
/// kernels and their callers form t_j exactly this way, so a grid entry
/// and a per-point Cf() call see the same frequency.
inline double LatticeFrequency(int64_t j, double dt) {
  return static_cast<double>(j) * dt;
}

/// \brief A univariate continuous probability distribution.
///
/// All implementations must provide density, cdf, moments, sampling, and the
/// characteristic function E[e^{itX}]. Quantile has a generic bisection
/// default; subclasses override when a closed form exists.
class Distribution {
 public:
  virtual ~Distribution() = default;

  virtual DistType type() const = 0;

  /// Probability density at x.
  virtual double Pdf(double x) const = 0;
  /// Natural log of the density; -inf outside the support.
  virtual double LogPdf(double x) const;
  /// P(X <= x).
  virtual double Cdf(double x) const = 0;
  /// Inverse cdf for p in (0,1). Default: monotone bisection on Cdf.
  virtual double Quantile(double p) const;

  virtual double Mean() const = 0;
  virtual double Variance() const = 0;
  double Stddev() const;

  /// Characteristic function E[e^{itX}] at frequency t.
  virtual std::complex<double> Cf(double t) const = 0;
  /// True when Cf() evaluates a closed form (vs. numeric integration).
  virtual bool HasClosedFormCf() const { return true; }

  /// Grid form of Cf() on the frequency lattice:
  /// out[i] = Cf(LatticeFrequency(j_begin + i, dt)) for i in [0, n), where
  /// j_begin may be negative. The default loops Cf(); concrete
  /// distributions override it with a dispatch-table kernel that hoists
  /// loop-invariant parameters and skips the per-point virtual call.
  /// Every entry must be a pure function of the parameters, dt and its j,
  /// independent of the dispatch tier and of the range a call covers, so
  /// split, extended, cached and sharded evaluations agree bitwise.
  /// Uniform, exponential and gamma grids equal per-point Cf() bitwise;
  /// Gaussian and mixture grids run an exp/sincos-free recurrence that
  /// agrees with Cf() to ~1e-13 relative (see stats/simd/kernels.h).
  virtual void CfGrid(double dt, int64_t j_begin, size_t n,
                      std::complex<double>* out) const;
  /// Grid form of Cdf(): out[i] = Cdf(x[i]), bitwise-identical to per-point
  /// Cdf().
  virtual void CdfGrid(const double* x, size_t n, double* out) const;

  /// Appends a value-identity signature (type tag + exact parameters) to
  /// `key` and returns true. Two distributions with equal signatures
  /// evaluate identical CfGrid/CdfGrid results, which is what lets the
  /// per-shard CF grid cache share evaluations across a window's groups.
  /// Returns false (appending nothing) for distributions without a compact
  /// parameter form (histogram, particle set, ...); those are never cached.
  virtual bool AppendCacheKey(std::vector<double>* key) const {
    (void)key;
    return false;
  }

  /// Draw one sample.
  virtual double Sample(common::Rng* rng) const = 0;

  /// Interval outside which the density is (numerically) zero. For
  /// unbounded distributions this is a ~1e-9 coverage interval so numeric
  /// routines can pick integration ranges.
  virtual Support NumericSupport() const = 0;

  /// Central interval [ql, qh] containing `confidence` probability mass,
  /// e.g. confidence=0.9 gives the 5%..95% region (§4.3 confidence region).
  struct Interval {
    double lo;
    double hi;
  };
  Interval ConfidenceRegion(double confidence) const;

  virtual std::unique_ptr<Distribution> Clone() const = 0;
  virtual std::string ToString() const = 0;
};

/// Shared immutable handle; this is what tuples carry.
using DistributionPtr = std::shared_ptr<const Distribution>;

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_DISTRIBUTION_H_
