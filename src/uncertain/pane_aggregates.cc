#include "uncertain/pane_aggregates.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "stats/fitting.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/simd/vec_math.h"
#include "uncertain/aggregates.h"
#include "uncertain/dist_ops.h"

namespace usp {
namespace uncertain {

using common::Result;
using common::Status;
using stats::DistributionPtr;
using stream::PaneAggregateSpec;
using stream::PanePartial;
using stream::Tuple;
using stream::Value;

namespace {

// The CF-approx partial evaluates the per-tuple CFs at +-h so the window
// product matches FitGaussianToCf's two probe evaluations exactly; both
// constants are the exported originals, so a tuning change in stats/
// propagates here automatically.
constexpr double kCumulantProbeH = stats::kCfMomentsDefaultStep;
constexpr double kApproxStddevFloor = stats::kFitStddevFloor;

Status CheckAttr(const Tuple& t, size_t attr_index) {
  if (attr_index >= t.num_values()) {
    return Status::OutOfRange("aggregate attribute index out of range");
  }
  const Value& v = t.value(attr_index);
  if (!v.is_numeric() && !v.is_distribution()) {
    return Status::InvalidArgument(
        "aggregate over non-numeric, non-distribution attribute");
  }
  return Status::OK();
}

// Shared tail of every SUM finalize, replicating SumImpl in aggregates.cc:
// fold the certain shift / AVG denominator in via an affine transform.
Result<Value> FinishSum(DistributionPtr sum, double shift, double denom) {
  if (shift == 0.0 && denom == 1.0) return Value(std::move(sum));
  auto adjusted = AffineOf(*sum, 1.0 / denom, shift / denom);
  if (!adjusted.ok()) return adjusted.status();
  return Value(adjusted.MoveValueUnsafe());
}

// ---------------------------------------------------------------------------
// SUM partials
// ---------------------------------------------------------------------------

struct SumPartialBase : PanePartial {
  double shift = 0.0;  ///< sum of certain numeric values
  size_t count = 0;    ///< tuples accumulated (certain + uncertain)
};

/// kClt: running cumulant sums.
struct MomentPartial final : SumPartialBase {
  double mean_sum = 0.0;
  double var_sum = 0.0;
  size_t dist_count = 0;
};

/// kCfApprox: running product of the closed-form CFs at the two cumulant
/// probe frequencies, with ProductCf's underflow pinning so a single-pane
/// window reproduces the closure product bitwise.
struct CfProbePartial final : SumPartialBase {
  size_t dist_count = 0;
  std::complex<double> prod_ph{1.0, 0.0};
  std::complex<double> prod_mh{1.0, 0.0};
};

void MultiplyPinned(std::complex<double>* acc, std::complex<double> factor) {
  // Same canonical multiply/pin as ProductCf and the product_cf_accum
  // kernels, so probe products stay bitwise-equal to the closure path.
  const std::complex<double> zero(0.0, 0.0);
  if (*acc == zero) return;
  *acc = stats::simd::CMul(*acc, factor);
  if (stats::simd::CNorm(*acc) < stats::simd::kCfNormPin) *acc = zero;
}

/// kCfInversion: the pane's distributions plus a lazily computed partial
/// product of their CFs on the shared FFT frequency grid t_j = j * dt
/// (positive half; the negative half is the conjugate mirror). The grid is
/// keyed by dt — power-of-two width bucketing keeps dt identical across
/// overlapping windows, so the grid is evaluated once per pane.
struct CfGridPartial final : SumPartialBase {
  std::vector<DistributionPtr> dists;
  double mean_sum = 0.0;
  double var_sum = 0.0;
  double grid_dt = 0.0;
  size_t grid_dist_count = 0;  ///< dists.size() when the grid was built
  std::vector<std::complex<double>> grid;

  void EnsureGrid(double dt, size_t points, stats::CfInversionWorkspace* ws) {
    // Under the DSMS ordering contract a pane is complete before any
    // window containing it closes, but a mildly late tuple must not leave
    // a stale cache behind: rebuild if the pane grew since the cache.
    if (grid_dt != dt || grid_dist_count != dists.size()) {
      grid.clear();
      grid_dt = dt;
      grid_dist_count = dists.size();
    }
    if (grid.size() >= points) return;
    // Same spacing, larger n: extend with the new lattice points only. A
    // grid entry depends only on (dists, dt, j), so the extended grid
    // equals a fresh evaluation of all `points`.
    const size_t old = grid.size();
    std::vector<const stats::Distribution*> raw;
    raw.reserve(dists.size());
    for (const DistributionPtr& d : dists) raw.push_back(d.get());
    grid.resize(points);
    stats::ProductCfGrid(raw, dt, static_cast<int64_t>(old), points - old,
                         grid.data() + old, &ws->dist_cf, &ws->grid_cache);
  }
};

/// kHistogram / kMonteCarlo: no additive shortcut — store the pane's
/// distributions once (instead of once per overlapping window) and rerun
/// the strategy at finalize.
struct DistListPartial final : SumPartialBase {
  std::vector<DistributionPtr> dists;
};

// Pane-shared CF inversion across >= 2 panes. Windows are centered on the
// summed mean with a power-of-two width bucket >= the naive 16-sigma
// range, so dt = 2*pi/width is stable across overlapping windows and the
// per-pane grids are reused.
Result<DistributionPtr> PaneSharedInversionSum(
    const std::vector<CfGridPartial*>& panes, size_t grid_points,
    stats::CfInversionWorkspace* ws) {
  double mean = 0.0, var = 0.0;
  for (const CfGridPartial* p : panes) {
    mean += p->mean_sum;
    var += p->var_sum;
  }
  const double sd = std::sqrt(std::max(var, 1e-12));
  const double width = std::exp2(std::ceil(std::log2(16.0 * sd)));
  const double dt = 2.0 * common::kPi / width;
  size_t n = common::NextPow2(std::max<size_t>(grid_points, 64));
  const size_t kMaxN = size_t{1} << 20;
  for (;;) {
    const size_t half = n / 2;
    for (CfGridPartial* p : panes) p->EnsureGrid(dt, half + 1, ws);
    ws->phi.assign(n, std::complex<double>(1.0, 0.0));
    for (const CfGridPartial* p : panes) {
      const std::complex<double>* g = p->grid.data();
      for (size_t k = 0; k < n; ++k) {
        const int64_t j = static_cast<int64_t>(k) - static_cast<int64_t>(half);
        ws->phi[k] *= j >= 0 ? g[j] : std::conj(g[-j]);
      }
    }
    // The frequency truncation must cover the CF's decay. The bucketing
    // gives T = pi*n/width ~ 200/sd at n=1024 — far past the Gaussian-
    // envelope decay ~7.5/sd — so one pass is the norm; slowly decaying
    // CFs double n (same spacing: pane grids extend, not recompute).
    double edge = 0.0;
    const size_t probe = std::max<size_t>(1, n / 64);
    for (size_t k = 0; k < probe; ++k) {
      edge = std::max(edge, std::abs(ws->phi[k]));
      edge = std::max(edge, std::abs(ws->phi[n - 1 - k]));
    }
    if (edge < 1e-8 || n >= kMaxN) break;
    n <<= 1;
  }
  const double lo = mean - 0.5 * width;
  const double hi = mean + 0.5 * width;
  auto hist =
      stats::InvertCfGridToDensity(ws->phi.data(), n, lo, hi, grid_points, ws);
  if (!hist.ok()) return hist.status();
  return DistributionPtr(
      std::make_shared<stats::Histogram>(hist.MoveValueUnsafe()));
}

// ---------------------------------------------------------------------------
// MAX / MIN partial
// ---------------------------------------------------------------------------

/// Accumulated log-CDF (MAX) or log-survival (MIN) grid on the shared
/// power-of-two lattice x_j = j * h. Outside the pane's support the
/// contribution is exactly 0 (all mass below x) or "-inf" (none), so
/// windows wider than the pane read the cached range plus constants.
struct ExtremePartial final : PanePartial {
  std::vector<DistributionPtr> dists;
  bool has_certain = false;
  double certain_ext = 0.0;
  size_t count = 0;
  double sup_lo = std::numeric_limits<double>::infinity();
  double sup_hi = -std::numeric_limits<double>::infinity();
  double lat_h = 0.0;
  int64_t lat_jlo = 0;
  size_t lat_dist_count = 0;  ///< dists.size() when the lattice was built
  std::vector<double> lat_logf;
  bool lat_valid = false;

  void EnsureLattice(double h, bool is_max, stats::CfInversionWorkspace* ws) {
    // Same staleness rule as CfGridPartial::EnsureGrid: a late tuple that
    // grew the pane invalidates the cached lattice.
    if (lat_valid && lat_h == h && lat_dist_count == dists.size()) return;
    lat_h = h;
    lat_valid = true;
    lat_dist_count = dists.size();
    lat_jlo = static_cast<int64_t>(std::floor(sup_lo / h));
    const int64_t jhi = static_cast<int64_t>(std::ceil(sup_hi / h));
    const size_t npts = static_cast<size_t>(jhi - lat_jlo) + 1;
    ws->x_grid.resize(npts);
    for (size_t i = 0; i < npts; ++i) {
      ws->x_grid[i] = h * static_cast<double>(lat_jlo + static_cast<int64_t>(i));
    }
    lat_logf.assign(npts, 0.0);
    ws->cdf.resize(npts);
    for (const DistributionPtr& d : dists) {
      d->CdfGrid(ws->x_grid.data(), npts, ws->cdf.data());
      for (size_t i = 0; i < npts; ++i) {
        const double f = std::min(1.0, std::max(0.0, ws->cdf[i]));
        lat_logf[i] += is_max ? std::log(f) : std::log1p(-f);
      }
    }
  }
};

Result<Value> PaneSharedExtreme(const std::vector<ExtremePartial*>& panes,
                                bool has_certain, double certain_ext,
                                size_t bins, bool is_max,
                                stats::CfInversionWorkspace* ws) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const ExtremePartial* p : panes) {
    lo = std::min(lo, p->sup_lo);
    hi = std::max(hi, p->sup_hi);
  }
  const double h = std::exp2(
      std::ceil(std::log2((hi - lo) / static_cast<double>(bins))));
  const int64_t jlo = static_cast<int64_t>(std::floor(lo / h));
  int64_t jhi = static_cast<int64_t>(std::ceil(hi / h));
  if (jhi <= jlo) jhi = jlo + 1;
  const size_t npts = static_cast<size_t>(jhi - jlo) + 1;
  const double ninf = -std::numeric_limits<double>::infinity();
  ws->log_cdf.assign(npts, 0.0);
  for (ExtremePartial* p : panes) {
    p->EnsureLattice(h, is_max, ws);
    const int64_t p_lo = p->lat_jlo;
    const int64_t p_hi = p_lo + static_cast<int64_t>(p->lat_logf.size());
    for (size_t i = 0; i < npts; ++i) {
      const int64_t j = jlo + static_cast<int64_t>(i);
      if (j < p_lo) {
        // Below the pane's support: cdf 0 (MAX kills the product) /
        // survival 1 (MIN contributes nothing).
        ws->log_cdf[i] += is_max ? ninf : 0.0;
      } else if (j >= p_hi) {
        ws->log_cdf[i] += is_max ? 0.0 : ninf;
      } else {
        ws->log_cdf[i] += p->lat_logf[j - p_lo];
      }
    }
  }
  std::vector<double> masses(npts - 1);
  double prev = is_max ? std::exp(ws->log_cdf[0])
                       : 1.0 - std::exp(ws->log_cdf[0]);
  for (size_t b = 0; b + 1 < npts; ++b) {
    const double c = is_max ? std::exp(ws->log_cdf[b + 1])
                            : 1.0 - std::exp(ws->log_cdf[b + 1]);
    masses[b] = std::max(0.0, c - prev);
    prev = c;
  }
  auto hist = stats::Histogram::FromMasses(
      h * static_cast<double>(jlo), h * static_cast<double>(jhi),
      std::move(masses));
  if (!hist.ok()) {
    // Degenerate grid (e.g. all mass outside the lattice); fall back to the
    // exact per-window kernel.
    std::vector<const stats::Distribution*> raw;
    for (const ExtremePartial* p : panes) {
      for (const DistributionPtr& d : p->dists) raw.push_back(d.get());
    }
    return ExtremeDistributionValue(raw, has_certain, certain_ext, bins,
                                    is_max);
  }
  if (!has_certain) {
    return Value(DistributionPtr(
        std::make_shared<stats::Histogram>(hist.MoveValueUnsafe())));
  }
  return ClipExtremeWithCertain(hist.value(), certain_ext, is_max);
}

// ---------------------------------------------------------------------------
// COUNT partial
// ---------------------------------------------------------------------------

struct CountPartial final : PanePartial {
  int64_t count = 0;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PaneAggregateSpec MakePaneSumImpl(std::string output_name, size_t attr_index,
                                  SumStrategyKind kind,
                                  const PaneAggregateOptions& opts,
                                  bool as_mean) {
  PaneAggregateSpec spec;
  spec.output_name = std::move(output_name);
  // SUM and AVG of one (attribute, strategy) build identical partials with
  // identical `add` closures — only the finalize denominator differs — so
  // they share one accumulator slot per (pane, group). grid_points is in
  // the key to keep the lazily built CF-grid caches coherent.
  spec.partial_signature =
      "sum:" + std::to_string(static_cast<int>(kind)) + ":" +
      std::to_string(attr_index) + ":" + std::to_string(opts.grid_points);
  switch (kind) {
    case SumStrategyKind::kClt: {
      spec.make_partial = [] { return std::make_unique<MomentPartial>(); };
      spec.add = [attr_index](PanePartial* p, const Tuple& t) -> Status {
        USP_RETURN_NOT_OK(CheckAttr(t, attr_index));
        auto* mp = static_cast<MomentPartial*>(p);
        const Value& v = t.value(attr_index);
        if (v.is_numeric()) {
          mp->shift += v.AsDouble();
        } else {
          const stats::Distribution& d = *v.AsDistribution();
          mp->mean_sum += d.Mean();
          mp->var_sum += d.Variance();
          ++mp->dist_count;
        }
        ++mp->count;
        return Status::OK();
      };
      spec.finalize =
          [as_mean](const std::vector<PanePartial*>& parts) -> Result<Value> {
        double shift = 0.0, mean = 0.0, var = 0.0;
        size_t count = 0, dist_count = 0;
        for (PanePartial* p : parts) {
          const auto* mp = static_cast<const MomentPartial*>(p);
          shift += mp->shift;
          mean += mp->mean_sum;
          var += mp->var_sum;
          count += mp->count;
          dist_count += mp->dist_count;
        }
        if (count == 0) {
          return Status::InvalidArgument("aggregate over empty group");
        }
        const double denom = as_mean ? static_cast<double>(count) : 1.0;
        if (dist_count == 0) return Value(shift / denom);
        // CltSum::SumOf's exact construction.
        auto g = stats::Gaussian::Make(mean, std::sqrt(std::max(var, 1e-24)));
        if (!g.ok()) return g.status();
        return FinishSum(DistributionPtr(std::make_shared<stats::Gaussian>(
                             g.MoveValueUnsafe())),
                         shift, denom);
      };
      break;
    }
    case SumStrategyKind::kCfApprox: {
      spec.make_partial = [] { return std::make_unique<CfProbePartial>(); };
      spec.add = [attr_index](PanePartial* p, const Tuple& t) -> Status {
        USP_RETURN_NOT_OK(CheckAttr(t, attr_index));
        auto* cp = static_cast<CfProbePartial*>(p);
        const Value& v = t.value(attr_index);
        if (v.is_numeric()) {
          cp->shift += v.AsDouble();
        } else {
          const stats::Distribution& d = *v.AsDistribution();
          MultiplyPinned(&cp->prod_ph, d.Cf(kCumulantProbeH));
          MultiplyPinned(&cp->prod_mh, d.Cf(-kCumulantProbeH));
          ++cp->dist_count;
        }
        ++cp->count;
        return Status::OK();
      };
      spec.finalize =
          [as_mean](const std::vector<PanePartial*>& parts) -> Result<Value> {
        double shift = 0.0;
        size_t count = 0, dist_count = 0;
        std::complex<double> phi_h(1.0, 0.0), phi_mh(1.0, 0.0);
        for (PanePartial* p : parts) {
          const auto* cp = static_cast<const CfProbePartial*>(p);
          shift += cp->shift;
          count += cp->count;
          dist_count += cp->dist_count;
          MultiplyPinned(&phi_h, cp->prod_ph);
          MultiplyPinned(&phi_mh, cp->prod_mh);
        }
        if (count == 0) {
          return Status::InvalidArgument("aggregate over empty group");
        }
        const double denom = as_mean ? static_cast<double>(count) : 1.0;
        if (dist_count == 0) return Value(shift / denom);
        // FitGaussianToCf / MomentsFromCf on the window's product CF: the
        // two probe products are exactly the closure evaluations.
        const std::complex<double> kp = std::log(phi_h);
        const std::complex<double> km = std::log(phi_mh);
        double mean = (kp - km).imag() / (2.0 * kCumulantProbeH);
        double var =
            -(kp + km).real() / (kCumulantProbeH * kCumulantProbeH);
        if (var < 0.0) var = 0.0;
        auto g = stats::Gaussian::Make(
            mean, std::max(std::sqrt(std::max(var, 0.0)),
                           kApproxStddevFloor));
        if (!g.ok()) return g.status();
        return FinishSum(DistributionPtr(std::make_shared<stats::Gaussian>(
                             g.MoveValueUnsafe())),
                         shift, denom);
      };
      break;
    }
    case SumStrategyKind::kCfInversion: {
      spec.make_partial = [] { return std::make_unique<CfGridPartial>(); };
      spec.add = [attr_index](PanePartial* p, const Tuple& t) -> Status {
        USP_RETURN_NOT_OK(CheckAttr(t, attr_index));
        auto* gp = static_cast<CfGridPartial*>(p);
        const Value& v = t.value(attr_index);
        if (v.is_numeric()) {
          gp->shift += v.AsDouble();
        } else {
          gp->dists.push_back(v.AsDistribution());
          const stats::Distribution& d = *gp->dists.back();
          gp->mean_sum += d.Mean();
          gp->var_sum += d.Variance();
        }
        ++gp->count;
        return Status::OK();
      };
      const size_t grid_points = opts.grid_points;
      stats::CfInversionWorkspace* ws = opts.workspace;
      spec.finalize = [grid_points, ws, as_mean](
                          const std::vector<PanePartial*>& parts)
          -> Result<Value> {
        stats::CfInversionWorkspace local;
        stats::CfInversionWorkspace* w = ws ? ws : &local;
        double shift = 0.0;
        size_t count = 0;
        std::vector<CfGridPartial*> nonempty;
        for (PanePartial* p : parts) {
          auto* gp = static_cast<CfGridPartial*>(p);
          shift += gp->shift;
          count += gp->count;
          if (!gp->dists.empty()) nonempty.push_back(gp);
        }
        if (count == 0) {
          return Status::InvalidArgument("aggregate over empty group");
        }
        const double denom = as_mean ? static_cast<double>(count) : 1.0;
        if (nonempty.empty()) return Value(shift / denom);
        Result<DistributionPtr> sum = [&]() -> Result<DistributionPtr> {
          if (nonempty.size() == 1) {
            // Single-pane window (tumbling): the exact per-window kernel,
            // bitwise-identical to CfInversionSum(grid_points, kFft).
            const CfGridPartial* gp = nonempty[0];
            std::vector<const stats::Distribution*> raw;
            raw.reserve(gp->dists.size());
            for (const DistributionPtr& d : gp->dists) raw.push_back(d.get());
            stats::CfInversionOptions o;
            o.grid_points = grid_points;
            o.mean = gp->mean_sum;
            o.stddev = std::sqrt(std::max(gp->var_sum, 1e-12));
            auto hist = stats::InvertSumCfToDensity(raw, o, w);
            if (!hist.ok()) return hist.status();
            return DistributionPtr(
                std::make_shared<stats::Histogram>(hist.MoveValueUnsafe()));
          }
          return PaneSharedInversionSum(nonempty, grid_points, w);
        }();
        if (!sum.ok()) return sum.status();
        return FinishSum(sum.MoveValueUnsafe(), shift, denom);
      };
      break;
    }
    case SumStrategyKind::kHistogram:
    case SumStrategyKind::kMonteCarlo: {
      spec.make_partial = [] { return std::make_unique<DistListPartial>(); };
      spec.add = [attr_index](PanePartial* p, const Tuple& t) -> Status {
        USP_RETURN_NOT_OK(CheckAttr(t, attr_index));
        auto* dp = static_cast<DistListPartial*>(p);
        const Value& v = t.value(attr_index);
        if (v.is_numeric()) {
          dp->shift += v.AsDouble();
        } else {
          dp->dists.push_back(v.AsDistribution());
        }
        ++dp->count;
        return Status::OK();
      };
      // No additive decomposition exists for these strategies; the win is
      // storing each tuple's distribution once per pane instead of once
      // per overlapping window.
      std::shared_ptr<SumStrategy> strategy = MakeSumStrategy(kind);
      spec.finalize = [strategy, as_mean](
                          const std::vector<PanePartial*>& parts)
          -> Result<Value> {
        double shift = 0.0;
        size_t count = 0;
        std::vector<const stats::Distribution*> raw;
        for (PanePartial* p : parts) {
          const auto* dp = static_cast<const DistListPartial*>(p);
          shift += dp->shift;
          count += dp->count;
          for (const DistributionPtr& d : dp->dists) raw.push_back(d.get());
        }
        if (count == 0) {
          return Status::InvalidArgument("aggregate over empty group");
        }
        const double denom = as_mean ? static_cast<double>(count) : 1.0;
        if (raw.empty()) return Value(shift / denom);
        auto sum = strategy->SumOf(raw);
        if (!sum.ok()) return sum.status();
        return FinishSum(sum.MoveValueUnsafe(), shift, denom);
      };
      break;
    }
  }
  return spec;
}

PaneAggregateSpec MakePaneExtremeImpl(std::string output_name,
                                      size_t attr_index, size_t bins,
                                      const PaneAggregateOptions& opts,
                                      bool is_max) {
  PaneAggregateSpec spec;
  spec.output_name = std::move(output_name);
  // bins only affects finalize, but keeping it in the key avoids lattice
  // cache thrash between columns finalizing at different resolutions.
  spec.partial_signature = std::string(is_max ? "max:" : "min:") +
                           std::to_string(attr_index) + ":" +
                           std::to_string(bins);
  spec.make_partial = [] { return std::make_unique<ExtremePartial>(); };
  spec.add = [attr_index, is_max](PanePartial* p,
                                  const Tuple& t) -> Status {
    USP_RETURN_NOT_OK(CheckAttr(t, attr_index));
    auto* ep = static_cast<ExtremePartial*>(p);
    const Value& v = t.value(attr_index);
    if (v.is_numeric()) {
      const double x = v.AsDouble();
      if (!ep->has_certain) {
        ep->certain_ext = x;
        ep->has_certain = true;
      } else {
        ep->certain_ext = is_max ? std::max(ep->certain_ext, x)
                                 : std::min(ep->certain_ext, x);
      }
    } else {
      ep->dists.push_back(v.AsDistribution());
      const stats::Support s = ep->dists.back()->NumericSupport();
      ep->sup_lo = std::min(ep->sup_lo, s.lo);
      ep->sup_hi = std::max(ep->sup_hi, s.hi);
    }
    ++ep->count;
    return Status::OK();
  };
  stats::CfInversionWorkspace* ws = opts.workspace;
  spec.finalize = [bins, is_max, ws](const std::vector<PanePartial*>& parts)
      -> Result<Value> {
    stats::CfInversionWorkspace local;
    stats::CfInversionWorkspace* w = ws ? ws : &local;
    bool has_certain = false;
    double certain_ext = 0.0;
    size_t count = 0;
    std::vector<ExtremePartial*> nonempty;
    for (PanePartial* p : parts) {
      auto* ep = static_cast<ExtremePartial*>(p);
      count += ep->count;
      if (ep->has_certain) {
        if (!has_certain) {
          certain_ext = ep->certain_ext;
          has_certain = true;
        } else {
          certain_ext = is_max ? std::max(certain_ext, ep->certain_ext)
                               : std::min(certain_ext, ep->certain_ext);
        }
      }
      if (!ep->dists.empty()) nonempty.push_back(ep);
    }
    if (count == 0) {
      return Status::InvalidArgument("aggregate over empty group");
    }
    if (nonempty.empty()) return Value(certain_ext);
    if (nonempty.size() == 1) {
      // Single-pane window (tumbling): exact per-window kernel, identical
      // to MakeMax/MinAggregate.
      const ExtremePartial* ep = nonempty[0];
      std::vector<const stats::Distribution*> raw;
      raw.reserve(ep->dists.size());
      for (const DistributionPtr& d : ep->dists) raw.push_back(d.get());
      return ExtremeDistributionValue(raw, has_certain, certain_ext, bins,
                                      is_max);
    }
    return PaneSharedExtreme(nonempty, has_certain, certain_ext, bins,
                             is_max, w);
  };
  return spec;
}

}  // namespace

PaneAggregateSpec MakePaneSumAggregate(std::string output_name,
                                       size_t attr_index, SumStrategyKind kind,
                                       const PaneAggregateOptions& opts) {
  return MakePaneSumImpl(std::move(output_name), attr_index, kind, opts,
                         /*as_mean=*/false);
}

PaneAggregateSpec MakePaneAvgAggregate(std::string output_name,
                                       size_t attr_index, SumStrategyKind kind,
                                       const PaneAggregateOptions& opts) {
  return MakePaneSumImpl(std::move(output_name), attr_index, kind, opts,
                         /*as_mean=*/true);
}

PaneAggregateSpec MakePaneMaxAggregate(std::string output_name,
                                       size_t attr_index, size_t bins,
                                       const PaneAggregateOptions& opts) {
  return MakePaneExtremeImpl(std::move(output_name), attr_index, bins, opts,
                             /*is_max=*/true);
}

PaneAggregateSpec MakePaneMinAggregate(std::string output_name,
                                       size_t attr_index, size_t bins,
                                       const PaneAggregateOptions& opts) {
  return MakePaneExtremeImpl(std::move(output_name), attr_index, bins, opts,
                             /*is_max=*/false);
}

PaneAggregateSpec MakePaneCountAggregate(std::string output_name) {
  PaneAggregateSpec spec;
  spec.output_name = std::move(output_name);
  spec.partial_signature = "count";
  spec.make_partial = [] { return std::make_unique<CountPartial>(); };
  spec.add = [](PanePartial* p, const Tuple& t) -> Status {
    (void)t;
    ++static_cast<CountPartial*>(p)->count;
    return Status::OK();
  };
  spec.finalize =
      [](const std::vector<PanePartial*>& parts) -> Result<Value> {
    int64_t total = 0;
    for (PanePartial* p : parts) {
      total += static_cast<const CountPartial*>(p)->count;
    }
    return Value(total);
  };
  return spec;
}

}  // namespace uncertain
}  // namespace usp
