// Adapters turning the §5 algorithms into stream::AggregateSpec functions:
// SUM / AVG via a pluggable SumStrategy, MAX / MIN via exact order
// statistics, and COUNT. Mixed inputs are handled: certain numeric
// attributes contribute a deterministic shift; distribution-valued
// attributes go through the strategy.

#ifndef USP_UNCERTAIN_AGGREGATES_H_
#define USP_UNCERTAIN_AGGREGATES_H_

#include <memory>

#include "stats/histogram.h"
#include "stream/group_by.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace uncertain {

/// SUM over attribute `attr_index` of the group's tuples. Certain numerics
/// are folded into a constant shift; the distributions of uncertain values
/// are combined by `strategy` (shared across groups/windows; must outlive
/// the returned spec).
stream::AggregateSpec MakeSumAggregate(std::string output_name,
                                       size_t attr_index,
                                       SumStrategy* strategy);

/// AVG over attribute `attr_index` (affine rescale of SUM).
stream::AggregateSpec MakeAvgAggregate(std::string output_name,
                                       size_t attr_index,
                                       SumStrategy* strategy);

/// MAX over attribute `attr_index` via exact order statistics
/// (prod-of-cdfs). Certain numerics enter as point masses: the result cdf
/// is multiplied by 1{x >= c}. Result is a Histogram with `bins` bins.
stream::AggregateSpec MakeMaxAggregate(std::string output_name,
                                       size_t attr_index, size_t bins = 256);

/// MIN, symmetric to MAX.
stream::AggregateSpec MakeMinAggregate(std::string output_name,
                                       size_t attr_index, size_t bins = 256);

/// COUNT of tuples in the group.
stream::AggregateSpec MakeCountAggregate(std::string output_name);

/// The per-window kernel behind MakeMax/MinAggregate, exposed so the
/// pane-incremental path (pane_aggregates.h) reuses the exact same math on
/// its single-pane (tumbling) fast path: exact order-statistics histogram
/// over `dists` with an optional certain extreme folded in as a clip.
/// `dists` must be non-empty (the all-certain case is the caller's).
common::Result<stream::Value> ExtremeDistributionValue(
    const std::vector<const stats::Distribution*>& dists, bool has_certain,
    double certain_ext, size_t bins, bool is_max);

/// Clip an order-statistics histogram against a certain extreme: for MAX,
/// mass below `certain_ext` collapses onto its bin (the grid widens when
/// the extreme lies outside the support). Shared by the reference and
/// pane-incremental MAX/MIN paths.
common::Result<stream::Value> ClipExtremeWithCertain(
    const stats::Histogram& h, double certain_ext, bool is_max);

/// Probability that the distribution-valued `v` exceeds `threshold`
/// (1{v > threshold} for certain numerics). Used by HAVING clauses such as
/// Q1's `sum(weight) > 200`.
double ProbGreaterThan(const stream::Value& v, double threshold);

/// HAVING filter: keeps groups where P(attr > threshold) >= min_confidence.
stream::GroupByAggregateOperator::HavingFn MakeHavingProbGreater(
    size_t attr_index, double threshold, double min_confidence);

}  // namespace uncertain
}  // namespace usp

#endif  // USP_UNCERTAIN_AGGREGATES_H_
