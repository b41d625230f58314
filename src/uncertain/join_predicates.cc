#include "uncertain/join_predicates.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/math_util.h"
#include "stats/gaussian.h"
#include "stats/quadrature.h"

namespace usp {
namespace uncertain {

using stream::Value;

namespace {

double GaussianAbsDiffWithin(double mx, double sx, double my, double sy,
                             double eps) {
  // X - Y ~ N(mx - my, sx^2 + sy^2)
  const double mu = mx - my;
  const double sd = std::sqrt(sx * sx + sy * sy);
  if (sd <= 0.0) return std::fabs(mu) <= eps ? 1.0 : 0.0;
  return common::StdNormalCdf((eps - mu) / sd) -
         common::StdNormalCdf((-eps - mu) / sd);
}

double NumericAbsDiffWithin(const stats::Distribution& dx,
                            const stats::Distribution& dy, double eps) {
  // Int f_X(x) [F_Y(x + eps) - F_Y(x - eps)] dx over X's support.
  const stats::Support s = dx.NumericSupport();
  const auto integrand = [&](double x) {
    return dx.Pdf(x) * std::max(0.0, dy.Cdf(x + eps) - dy.Cdf(x - eps));
  };
  const double p = stats::CompositeGaussLegendre(integrand, s.lo, s.hi,
                                                 /*panels=*/64, /*order=*/8);
  return common::Clamp(p, 0.0, 1.0);
}

}  // namespace

double ProbAbsDiffWithin(const Value& x, const Value& y, double eps) {
  // Certain/certain.
  if (x.is_numeric() && y.is_numeric()) {
    return std::fabs(x.AsDouble() - y.AsDouble()) <= eps ? 1.0 : 0.0;
  }
  // Gaussian/Gaussian closed form (including point masses as sd=0).
  const auto as_gaussian = [](const Value& v, double* m, double* s) {
    if (v.is_numeric()) {
      *m = v.AsDouble();
      *s = 0.0;
      return true;
    }
    if (v.is_distribution() &&
        v.AsDistribution()->type() == stats::DistType::kGaussian) {
      *m = v.AsDistribution()->Mean();
      *s = v.AsDistribution()->Stddev();
      return true;
    }
    return false;
  };
  double mx, sx, my, sy;
  if (as_gaussian(x, &mx, &sx) && as_gaussian(y, &my, &sy)) {
    return GaussianAbsDiffWithin(mx, sx, my, sy, eps);
  }
  // General numeric path. A certain value against a distribution reduces
  // to a cdf difference.
  if (x.is_numeric() && y.is_distribution()) {
    const auto& dy = *y.AsDistribution();
    const double c = x.AsDouble();
    return std::max(0.0, dy.Cdf(c + eps) - dy.Cdf(c - eps));
  }
  if (y.is_numeric() && x.is_distribution()) {
    const auto& dx = *x.AsDistribution();
    const double c = y.AsDouble();
    return std::max(0.0, dx.Cdf(c + eps) - dx.Cdf(c - eps));
  }
  if (x.is_distribution() && y.is_distribution()) {
    return NumericAbsDiffWithin(*x.AsDistribution(), *y.AsDistribution(),
                                eps);
  }
  return 0.0;
}

double ProbLocEquals(const std::vector<Value>& xs,
                     const std::vector<Value>& ys, double eps) {
  double p = 1.0;
  const size_t n = std::min(xs.size(), ys.size());
  for (size_t i = 0; i < n; ++i) {
    p *= ProbAbsDiffWithin(xs[i], ys[i], eps);
    if (p <= 0.0) return 0.0;
  }
  return p;
}

namespace {

// One compared attribute, classified once per tuple instead of once per
// candidate pair. The join probes one tuple against a whole window buffer,
// so the probe side's virtual Mean()/Stddev() extraction and kind dispatch
// amortize across the scan. Distribution handles are shared_ptr copies, so
// a cached entry never dangles.
struct PreparedAxis {
  bool is_numeric = false;
  bool is_gaussian = false;
  double mean = 0.0;
  double stddev = 0.0;
  stats::DistributionPtr dist;  // set for any distribution-valued axis
};

struct PreparedTuple {
  stream::TupleId id = 0;
  const stream::Tuple* addr = nullptr;
  bool valid = false;
  std::vector<PreparedAxis> axes;
};

bool PrepareTuple(const stream::Tuple& t, const std::vector<size_t>& attrs,
                  PreparedTuple* out) {
  out->id = t.id();
  out->addr = &t;
  out->valid = false;  // only marked valid once fully extracted
  out->axes.clear();
  out->axes.reserve(attrs.size());
  for (size_t idx : attrs) {
    if (idx >= t.num_values()) return false;
    PreparedAxis axis;
    const Value& v = t.value(idx);
    if (v.is_numeric()) {
      axis.is_numeric = true;
      axis.mean = v.AsDouble();
      axis.stddev = 0.0;
    } else if (v.is_distribution()) {
      axis.dist = v.AsDistribution();
      if (axis.dist->type() == stats::DistType::kGaussian) {
        axis.is_gaussian = true;
        axis.mean = axis.dist->Mean();
        axis.stddev = axis.dist->Stddev();
      }
    }
    out->axes.push_back(std::move(axis));
  }
  out->valid = true;
  return true;
}

// Mirrors ProbAbsDiffWithin's decision tree on prepared axes.
double PreparedAbsDiffWithin(const PreparedAxis& x, const PreparedAxis& y,
                             double eps) {
  if (x.is_numeric && y.is_numeric) {
    return std::fabs(x.mean - y.mean) <= eps ? 1.0 : 0.0;
  }
  const bool xg = x.is_numeric || x.is_gaussian;
  const bool yg = y.is_numeric || y.is_gaussian;
  if (xg && yg) {
    return GaussianAbsDiffWithin(x.mean, x.stddev, y.mean, y.stddev, eps);
  }
  if (x.is_numeric && y.dist) {
    const double c = x.mean;
    return std::max(0.0, y.dist->Cdf(c + eps) - y.dist->Cdf(c - eps));
  }
  if (y.is_numeric && x.dist) {
    const double c = y.mean;
    return std::max(0.0, x.dist->Cdf(c + eps) - x.dist->Cdf(c - eps));
  }
  if (x.dist && y.dist) {
    return NumericAbsDiffWithin(*x.dist, *y.dist, eps);
  }
  return 0.0;
}

}  // namespace

stream::SlidingWindowJoin::MatchFn MakeProbabilisticEqualityMatch(
    EqualityJoinSpec spec) {
  // Mutable per-side caches are captured BY VALUE: every copy of the
  // returned MatchFn (e.g. one per shard-private SlidingWindowJoin) owns
  // its own caches, so copies never share state across threads. The join
  // calls the match function with a fixed probe on one side for a whole
  // window scan, so that side hits its cache on every pair after the
  // first. One MatchFn *instance* is still single-threaded, like the
  // operator that owns it.
  return [spec = std::move(spec), lcache = PreparedTuple(),
          rcache = PreparedTuple()](
             const stream::Tuple& l,
             const stream::Tuple& r) mutable -> std::optional<stream::Tuple> {
    if (!lcache.valid || lcache.id != l.id() || lcache.addr != &l) {
      if (!PrepareTuple(l, spec.left_attrs, &lcache)) {
        return std::nullopt;
      }
    }
    if (!rcache.valid || rcache.id != r.id() || rcache.addr != &r) {
      if (!PrepareTuple(r, spec.right_attrs, &rcache)) {
        return std::nullopt;
      }
    }
    double p = 1.0;
    for (size_t i = 0; i < spec.left_attrs.size(); ++i) {
      p *= PreparedAbsDiffWithin(lcache.axes[i], rcache.axes[i], spec.eps);
      if (p < spec.min_confidence) return std::nullopt;
    }
    stream::Tuple joined = stream::ConcatJoinedTuple(l, r);
    if (spec.annotate_probability) {
      joined.AppendValue(p);
    }
    return joined;
  };
}

}  // namespace uncertain
}  // namespace usp
