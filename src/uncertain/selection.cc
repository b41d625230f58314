#include "uncertain/selection.h"

#include <limits>

#include "stats/truncated.h"
#include "uncertain/aggregates.h"

namespace usp {
namespace uncertain {

using stream::Tuple;
using stream::Value;

double PredicateProbability(const Value& v, PredicateOp op, double a,
                            double b) {
  if (v.is_numeric()) {
    const double x = v.AsDouble();
    switch (op) {
      case PredicateOp::kGreaterThan:
        return x > a ? 1.0 : 0.0;
      case PredicateOp::kLessThan:
        return x < a ? 1.0 : 0.0;
      case PredicateOp::kWithinRange:
        return (x >= a && x <= b) ? 1.0 : 0.0;
    }
  }
  if (v.is_distribution()) {
    const stats::Distribution& d = *v.AsDistribution();
    switch (op) {
      case PredicateOp::kGreaterThan:
        return 1.0 - d.Cdf(a);
      case PredicateOp::kLessThan:
        return d.Cdf(a);
      case PredicateOp::kWithinRange:
        return std::max(0.0, d.Cdf(b) - d.Cdf(a));
    }
  }
  return 0.0;
}

std::unique_ptr<stream::FilterOperator> MakeProbabilisticFilter(
    std::string name, size_t attr_index, PredicateOp op, double a, double b,
    double min_confidence) {
  return std::make_unique<stream::FilterOperator>(
      std::move(name),
      [attr_index, op, a, b, min_confidence](const Tuple& t) {
        if (attr_index >= t.num_values()) return false;
        return PredicateProbability(t.value(attr_index), op, a, b) >=
               min_confidence;
      });
}

std::unique_ptr<stream::MapOperator> MakeProbabilityAnnotator(
    std::string name, size_t attr_index, PredicateOp op, double a, double b) {
  return std::make_unique<stream::MapOperator>(
      std::move(name),
      [attr_index, op, a, b](const Tuple& t) -> common::Result<Tuple> {
        if (attr_index >= t.num_values()) {
          return common::Status::OutOfRange(
              "probability annotator attribute index out of range");
        }
        Tuple out = t;
        out.AppendValue(PredicateProbability(t.value(attr_index), op, a, b));
        return out;
      });
}

std::unique_ptr<stream::MapOperator> MakeConditioningSelection(
    std::string name, size_t attr_index, PredicateOp op, double a, double b,
    double min_confidence) {
  return std::make_unique<stream::MapOperator>(
      std::move(name),
      [attr_index, op, a, b,
       min_confidence](const Tuple& t) -> common::Result<Tuple> {
        if (attr_index >= t.num_values()) {
          return common::Status::OutOfRange(
              "conditioning selection attribute index out of range");
        }
        const Value& v = t.value(attr_index);
        const double p = PredicateProbability(v, op, a, b);
        if (p < min_confidence) {
          return common::Status::NotFound("predicate confidence below gate");
        }
        if (!v.is_distribution()) {
          return t;  // certain value already satisfies the predicate
        }
        const double inf = std::numeric_limits<double>::infinity();
        double lo, hi;
        switch (op) {
          case PredicateOp::kGreaterThan:
            lo = a;
            hi = inf;
            break;
          case PredicateOp::kLessThan:
            lo = -inf;
            hi = a;
            break;
          case PredicateOp::kWithinRange:
            lo = a;
            hi = b;
            break;
          default:
            return common::Status::Unimplemented("unknown PredicateOp");
        }
        auto conditioned =
            stats::Truncated::Make(v.AsDistribution(), lo, hi);
        if (!conditioned.ok()) return conditioned.status();
        Tuple out = t;
        out.mutable_value(attr_index) = Value(stats::DistributionPtr(
            std::make_shared<stats::Truncated>(
                conditioned.MoveValueUnsafe())));
        return out;
      });
}

stream::SubscriptionIndex::ProbFn MakeSubscriptionProbFn() {
  return [](const stream::Value& v, double threshold) {
    return ProbGreaterThan(v, threshold);
  };
}

}  // namespace uncertain
}  // namespace usp
