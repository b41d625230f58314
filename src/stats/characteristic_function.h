// Characteristic-function machinery — the paper's central tool (§5.1): "the
// exact result distribution can be obtained through inversion of the
// characteristic function of the sum, which is the product of the
// characteristic functions of the individual summands ... the inversion
// expresses the exact result distribution using a single integral".

#ifndef USP_STATS_CHARACTERISTIC_FUNCTION_H_
#define USP_STATS_CHARACTERISTIC_FUNCTION_H_

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "stats/distribution.h"
#include "stats/histogram.h"

namespace usp {
namespace stats {

/// A characteristic function phi(t) = E[e^{itX}].
using CharFn = std::function<std::complex<double>(double)>;

/// CF of the sum of independent variables: the pointwise product of their
/// CFs. The inputs are captured by pointer; callers keep them alive.
CharFn ProductCf(const std::vector<const Distribution*>& dists);

/// \brief Cross-group CF grid cache, keyed by distribution-parameter
/// signature (Distribution::AppendCacheKey) plus the frequency lattice
/// range (dt, j_begin, n).
///
/// G groups over identically-parameterised sensor models evaluate each
/// CfGrid once instead of G times. Owned by CfInversionWorkspace under the
/// same rule as the rest of the workspace: one per shard, touched only by
/// the thread running that shard, so the counters are plain integers. Off by
/// default; the planner enables it whenever a plan contains a CF-inversion
/// SUM/AVG.
struct CfGridCache {
  bool enabled = false;
  uint64_t hits = 0;
  uint64_t misses = 0;

  /// Grids longer than this are evaluated but never stored (a full
  /// kMaxEntries of 2^20-point grids would be gigabytes).
  static constexpr size_t kMaxGridPoints = 8192;
  static constexpr size_t kMaxEntries = 64;

  struct Entry {
    std::vector<double> key;
    std::vector<std::complex<double>> grid;
    uint64_t last_used = 0;
  };
  std::vector<Entry> entries;
  std::vector<double> key_scratch;
  uint64_t tick = 0;
};

/// Grid form of ProductCf on the frequency lattice:
/// out[i] = prod_d Cf_d(t_j), t_j = LatticeFrequency(j, dt),
/// j = j_begin + i for i in [0, n), evaluated one distribution at a time
/// through Distribution::CfGrid so the hot aggregation path makes |dists|
/// virtual calls instead of n * |dists| closure calls. Applies the same
/// underflow rule as the ProductCf closure (a point whose partial product
/// drops below 1e-300 in squared magnitude is pinned to exactly zero), so
/// it equals the closure per point bitwise wherever the distributions'
/// CfGrid equals their Cf (uniform, exponential, gamma) and to CfGrid's
/// accuracy elsewhere. Each entry depends only on (dists, dt, j).
/// `scratch` is resized to n and reused. When `cache` is non-null and
/// enabled, per-distribution grid evaluations are looked up / stored by
/// parameter signature and lattice range (bitwise-equal keys), which
/// cannot change any value — only who computed it first.
void ProductCfGrid(const std::vector<const Distribution*>& dists, double dt,
                   int64_t j_begin, size_t n, std::complex<double>* out,
                   std::vector<std::complex<double>>* scratch,
                   CfGridCache* cache = nullptr);

/// \brief Reusable scratch buffers for CF inversion and order-statistics
/// grids.
///
/// One workspace serves one thread; the sharded executor owns one per shard
/// (handed to plan builders through ShardContext) so the per-window hot
/// loop of the CF-based aggregates is allocation-free. All vectors are
/// resized on demand and keep their capacity across windows.
struct CfInversionWorkspace {
  std::vector<std::complex<double>> phi;      ///< assembled window CF
  std::vector<std::complex<double>> fft;      ///< FFT input/output buffer
  std::vector<std::complex<double>> dist_cf;  ///< per-distribution scratch
  std::vector<double> x_grid;                 ///< order-statistics lattice
  std::vector<double> cdf;                    ///< per-distribution cdf values
  std::vector<double> log_cdf;                ///< accumulated log-cdf grid
  CfGridCache grid_cache;                     ///< cross-group CF grid cache
};

/// CF of a*X + b given the CF of X: e^{itb} phi(a t).
CharFn AffineCf(CharFn phi, double a, double b);

/// Options for CF inversion.
struct CfInversionOptions {
  /// Output grid resolution (number of histogram bins / FFT points rounded
  /// up to a power of two).
  size_t grid_points = 1024;
  /// Range of the output density [lo, hi]. If lo >= hi, the range is chosen
  /// from `mean` +- `range_sigmas` * `stddev` (which callers must then set).
  double lo = 0.0;
  double hi = 0.0;
  double mean = 0.0;
  double stddev = 1.0;
  double range_sigmas = 8.0;
};

/// \brief Invert a CF to a density via Gil-Pelaez / Fourier inversion
/// evaluated with an FFT over a truncated frequency grid.
///
/// f(x) = (1/2pi) Int e^{-itx} phi(t) dt, truncated to |t| <= T where T is
/// chosen so |phi(T)| is negligible (found by doubling scan). phi is
/// sampled on the lattice t_k = (k - n/2) * dt, k in [0, n), with
/// T = (n/2) * dt. The returned Histogram is the density sampled on the
/// requested grid (clamped to non-negative and renormalized, which also
/// suppresses truncation ripple).
common::Result<Histogram> InvertCfToDensity(const CharFn& phi,
                                            const CfInversionOptions& opts);

/// Sum-of-independents inversion: same algorithm as InvertCfToDensity over
/// ProductCf(dists), on the same lattice t_k = (k - n/2) * dt, but the
/// frequency grid is evaluated through ProductCfGrid (one CfGrid call per
/// distribution) and all intermediate buffers live in `ws` (may be null for
/// a one-shot local workspace). Bitwise-identical to the closure path when
/// every distribution's CfGrid equals its Cf (uniform, exponential, gamma);
/// Gaussian and mixture grids agree to their recurrence accuracy.
common::Result<Histogram> InvertSumCfToDensity(
    const std::vector<const Distribution*>& dists,
    const CfInversionOptions& opts, CfInversionWorkspace* ws);

/// Invert a CF already evaluated on the centered FFT frequency grid
/// t_k = (k - n/2) * dt with dt = 2*pi/(hi - lo), k in [0, n), to a density
/// histogram on [lo, hi] downsampled to `out_bins` bins. This is the
/// assembly step of the pane-sharing sliding-window aggregates, which build
/// the window CF as an elementwise product of cached per-pane grids.
common::Result<Histogram> InvertCfGridToDensity(
    const std::complex<double>* phi_values, size_t n, double lo, double hi,
    size_t out_bins, CfInversionWorkspace* ws);

/// Pointwise Gil-Pelaez density evaluation at a single x:
/// f(x) = (1/pi) Int_0^T Re[e^{-itx} phi(t)] dt.
/// Slower than the FFT path but grid-free; used for spot checks.
double GilPelaezPdf(const CharFn& phi, double x, double t_max,
                    int panels = 256);

/// Gil-Pelaez cdf: F(x) = 1/2 - (1/pi) Int_0^T Im[e^{-itx} phi(t)] / t dt.
double GilPelaezCdf(const CharFn& phi, double x, double t_max,
                    int panels = 256);

/// Scan |phi(t)| outward from t=1 by doubling until it falls below `eps`;
/// returns the truncation frequency T. Capped at 2^40.
double FindCfDecayPoint(const CharFn& phi, double eps = 1e-12);

/// Default finite-difference step of MomentsFromCf. Exported because the
/// pane-incremental CF-approx aggregate evaluates per-tuple CFs at exactly
/// +-this frequency to reproduce the probe products bitwise.
inline constexpr double kCfMomentsDefaultStep = 1e-4;

/// Mean and variance from the CF via central finite differences of the
/// log-CF at 0 (cumulant derivatives). `h` is the step.
struct CfMoments {
  double mean;
  double variance;
};
CfMoments MomentsFromCf(const CharFn& phi, double h = kCfMomentsDefaultStep);

}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_CHARACTERISTIC_FUNCTION_H_
