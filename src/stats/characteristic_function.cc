#include "stats/characteristic_function.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "common/math_util.h"
#include "stats/quadrature.h"
#include "stats/simd/dispatch.h"
#include "stats/simd/vec_math.h"

namespace usp {
namespace stats {

using common::kPi;

CharFn ProductCf(const std::vector<const Distribution*>& dists) {
  return [dists](double t) {
    // simd::CMul / CNorm are the same canonical forms the grid kernels
    // use, keeping the closure and ProductCfGrid bitwise-interchangeable.
    std::complex<double> prod(1.0, 0.0);
    for (const Distribution* d : dists) {
      prod = simd::CMul(prod, d->Cf(t));
      // Early exit once the product has underflowed to zero; with hundreds
      // of summands this saves most of the work at large |t|.
      if (simd::CNorm(prod) < simd::kCfNormPin) {
        return std::complex<double>(0.0, 0.0);
      }
    }
    return prod;
  };
}

namespace {

// Evaluate (or recall) one distribution's CfGrid through the shared cache.
// Keys are compared bitwise (memcmp), so +-0 / NaN parameters can only
// cause extra misses, never a wrong hit.
const std::complex<double>* CachedCfGrid(const Distribution& d, double dt,
                                         int64_t j_begin, size_t n,
                                         std::complex<double>* scratch,
                                         CfGridCache* cache) {
  std::vector<double>& key = cache->key_scratch;
  key.clear();
  key.push_back(dt);
  key.push_back(static_cast<double>(j_begin));
  key.push_back(static_cast<double>(n));
  if (n > CfGridCache::kMaxGridPoints || !d.AppendCacheKey(&key)) {
    d.CfGrid(dt, j_begin, n, scratch);
    return scratch;
  }
  ++cache->tick;
  const size_t key_bytes = key.size() * sizeof(double);
  for (CfGridCache::Entry& e : cache->entries) {
    if (e.key.size() == key.size() &&
        std::memcmp(e.key.data(), key.data(), key_bytes) == 0) {
      ++cache->hits;
      e.last_used = cache->tick;
      return e.grid.data();
    }
  }
  ++cache->misses;
  d.CfGrid(dt, j_begin, n, scratch);
  CfGridCache::Entry* slot;
  if (cache->entries.size() < CfGridCache::kMaxEntries) {
    slot = &cache->entries.emplace_back();
  } else {
    slot = &cache->entries.front();
    for (CfGridCache::Entry& e : cache->entries) {
      if (e.last_used < slot->last_used) slot = &e;
    }
  }
  slot->key = key;
  slot->grid.assign(scratch, scratch + n);
  slot->last_used = cache->tick;
  return slot->grid.data();
}

}  // namespace

void ProductCfGrid(const std::vector<const Distribution*>& dists, double dt,
                   int64_t j_begin, size_t n, std::complex<double>* out,
                   std::vector<std::complex<double>>* scratch,
                   CfGridCache* cache) {
  for (size_t i = 0; i < n; ++i) out[i] = std::complex<double>(1.0, 0.0);
  if (dists.empty() || n == 0) return;
  scratch->resize(n);
  std::complex<double>* cf = scratch->data();
  const simd::Dispatch& k = simd::Active();
  const bool use_cache = cache != nullptr && cache->enabled;
  for (const Distribution* d : dists) {
    const std::complex<double>* grid;
    if (use_cache) {
      grid = CachedCfGrid(*d, dt, j_begin, n, cf, cache);
    } else {
      d->CfGrid(dt, j_begin, n, cf);
      grid = cf;
    }
    k.product_cf_accum(grid, n, out);
  }
}

CharFn AffineCf(CharFn phi, double a, double b) {
  return [phi = std::move(phi), a, b](double t) {
    return std::complex<double>(std::cos(b * t), std::sin(b * t)) *
           phi(a * t);
  };
}

double FindCfDecayPoint(const CharFn& phi, double eps) {
  double t = 1.0;
  for (int i = 0; i < 40; ++i) {
    // Probe a few points in [t, 2t]; oscillatory CFs (e.g. uniform) have
    // zeros, so a single-point test would stop too early.
    double peak = 0.0;
    for (int j = 1; j <= 4; ++j) {
      peak = std::max(peak, std::abs(phi(t * (1.0 + 0.25 * j))));
    }
    if (peak < eps) return 2.0 * t;
    t *= 2.0;
  }
  return t;
}

namespace {

constexpr size_t kMaxFftN = size_t{1} << 22;

// Shared tail of every inversion path: forward-FFT the phase-adjusted CF
// samples in `a`, read off the density, clamp/renormalize, downsample.
common::Result<Histogram> DensityFromFftBuffer(
    std::vector<std::complex<double>>& a, double lo, double hi, size_t n,
    double dt, double t_max, size_t requested_bins) {
  const double dx = (hi - lo) / static_cast<double>(n);
  const simd::Dispatch& kd = simd::Active();
  kd.fft(a.data(), n, /*inverse=*/false);
  std::vector<double> masses(n);
  // Truncation/aliasing ripple can push the density slightly negative; the
  // kernel clamps each mass to >= 0 (the Histogram ctor renormalizes). The
  // total stays a sequential scalar sum so it is identical on every tier.
  kd.density_masses(a.data(), n, lo, dx, t_max, dt / (2.0 * kPi),
                    masses.data());
  double total = 0.0;
  for (size_t j = 0; j < n; ++j) total += masses[j];
  if (total <= 0.0) {
    return common::Status::NumericError(
        "CF inversion produced non-positive total mass; the output "
        "range likely misses the distribution");
  }
  // Downsample to the requested resolution to keep downstream costs fixed.
  const size_t out_bins = std::min<size_t>(
      common::NextPow2(std::max<size_t>(requested_bins, 2)), n);
  if (out_bins < n) {
    const size_t factor = n / out_bins;
    std::vector<double> coarse(out_bins, 0.0);
    for (size_t j = 0; j < n; ++j) coarse[j / factor] += masses[j];
    masses = std::move(coarse);
  }
  return Histogram::FromMasses(lo, hi, std::move(masses));
}

common::Status ResolveInversionRange(const CfInversionOptions& opts,
                                     double* lo, double* hi) {
  *lo = opts.lo;
  *hi = opts.hi;
  if (!(*lo < *hi)) {
    if (!(opts.stddev > 0.0)) {
      return common::Status::InvalidArgument(
          "InvertCfToDensity: no range and non-positive stddev");
    }
    *lo = opts.mean - opts.range_sigmas * opts.stddev;
    *hi = opts.mean + opts.range_sigmas * opts.stddev;
  }
  return common::Status::OK();
}

// The FFT couples grid spacing and frequency truncation: T = pi / dx.
// Grow N until the implied T covers the CF's decay point.
size_t PickFftN(size_t grid_points, double lo, double hi, double t_decay) {
  size_t n = common::NextPow2(std::max<size_t>(grid_points, 64));
  while (n < kMaxFftN &&
         kPi * static_cast<double>(n) / (hi - lo) < t_decay) {
    n <<= 1;
  }
  return n;
}

}  // namespace

common::Result<Histogram> InvertCfToDensity(const CharFn& phi,
                                            const CfInversionOptions& opts) {
  double lo, hi;
  USP_RETURN_NOT_OK(ResolveInversionRange(opts, &lo, &hi));
  const double t_decay = FindCfDecayPoint(phi);
  const size_t n = PickFftN(opts.grid_points, lo, hi, t_decay);
  const double dx = (hi - lo) / static_cast<double>(n);
  const double t_max = kPi / dx;
  const double dt = 2.0 * t_max / static_cast<double>(n);

  // a_k = phi(t_k) * e^{-i k dt lo} * e^{-i pi k / N}, with t_k = -T + k dt
  // formed on the lattice as (k - n/2) * dt (T = (n/2) * dt exactly).
  const int64_t j_begin = -static_cast<int64_t>(n / 2);
  std::vector<std::complex<double>> a(n);
  for (size_t k = 0; k < n; ++k) {
    a[k] = phi(LatticeFrequency(j_begin + static_cast<int64_t>(k), dt));
  }
  simd::Active().phase_rotate(a.data(), n, dt, lo);
  return DensityFromFftBuffer(a, lo, hi, n, dt, t_max, opts.grid_points);
}

common::Result<Histogram> InvertSumCfToDensity(
    const std::vector<const Distribution*>& dists,
    const CfInversionOptions& opts, CfInversionWorkspace* ws) {
  CfInversionWorkspace local;
  if (ws == nullptr) ws = &local;
  double lo, hi;
  USP_RETURN_NOT_OK(ResolveInversionRange(opts, &lo, &hi));
  // The decay scan probes a handful of points; the closure is fine there.
  // The n-point frequency grid below is where the closure path burned
  // n * |dists| std::function calls — ProductCfGrid does |dists| CfGrid
  // calls instead.
  const double t_decay = FindCfDecayPoint(ProductCf(dists));
  const size_t n = PickFftN(opts.grid_points, lo, hi, t_decay);
  const double dx = (hi - lo) / static_cast<double>(n);
  const double t_max = kPi / dx;
  const double dt = 2.0 * t_max / static_cast<double>(n);

  ws->fft.resize(n);
  ProductCfGrid(dists, dt, -static_cast<int64_t>(n / 2), n, ws->fft.data(),
                &ws->dist_cf, &ws->grid_cache);
  simd::Active().phase_rotate(ws->fft.data(), n, dt, lo);
  return DensityFromFftBuffer(ws->fft, lo, hi, n, dt, t_max,
                              opts.grid_points);
}

common::Result<Histogram> InvertCfGridToDensity(
    const std::complex<double>* phi_values, size_t n, double lo, double hi,
    size_t out_bins, CfInversionWorkspace* ws) {
  CfInversionWorkspace local;
  if (ws == nullptr) ws = &local;
  if (n == 0 || (n & (n - 1)) != 0) {
    return common::Status::InvalidArgument(
        "InvertCfGridToDensity: n must be a power of two");
  }
  if (!(lo < hi)) {
    return common::Status::InvalidArgument(
        "InvertCfGridToDensity: lo must be < hi");
  }
  const double dx = (hi - lo) / static_cast<double>(n);
  const double t_max = kPi / dx;
  const double dt = 2.0 * t_max / static_cast<double>(n);
  ws->fft.assign(phi_values, phi_values + n);
  simd::Active().phase_rotate(ws->fft.data(), n, dt, lo);
  return DensityFromFftBuffer(ws->fft, lo, hi, n, dt, t_max, out_bins);
}

double GilPelaezPdf(const CharFn& phi, double x, double t_max, int panels) {
  // f(x) = (1/pi) Int_0^T Re[e^{-itx} phi(t)] dt
  const auto integrand = [&](double t) {
    const std::complex<double> e(std::cos(t * x), -std::sin(t * x));
    return (e * phi(t)).real();
  };
  return CompositeGaussLegendre(integrand, 0.0, t_max, panels) / kPi;
}

double GilPelaezCdf(const CharFn& phi, double x, double t_max, int panels) {
  // F(x) = 1/2 - (1/pi) Int_0^T Im[e^{-itx} phi(t)] / t dt
  const auto integrand = [&](double t) {
    if (t == 0.0) return 0.0;
    const std::complex<double> e(std::cos(t * x), -std::sin(t * x));
    return (e * phi(t)).imag() / t;
  };
  const double integral =
      CompositeGaussLegendre(integrand, 1e-12, t_max, panels);
  return common::Clamp(0.5 - integral / kPi, 0.0, 1.0);
}

CfMoments MomentsFromCf(const CharFn& phi, double h) {
  assert(h > 0.0);
  // Cumulant derivatives: K(t) = log phi(t); mean = K'(0)/i,
  // variance = -K''(0). Central differences; K(0) = 0.
  const std::complex<double> kp = std::log(phi(h));
  const std::complex<double> km = std::log(phi(-h));
  CfMoments out;
  out.mean = (kp - km).imag() / (2.0 * h);
  out.variance = -(kp + km).real() / (h * h);
  if (out.variance < 0.0) out.variance = 0.0;
  return out;
}

}  // namespace stats
}  // namespace usp
