// Pane-incremental versions of the §5 aggregates, plugged into
// stream::PanedGroupByAggregateOperator. Each tuple's contribution to a
// sliding window is computed once per pane and shared by every overlapping
// window:
//
//   SUM kClt        running cumulant sums (mean, variance) per pane;
//   SUM kCfApprox   running products of the closed-form CFs at the two
//                   cumulant probe frequencies per pane;
//   SUM kCfInversion per-pane partial product of the CFs on the shared FFT
//                   frequency grid (power-of-two width bucketing keeps the
//                   grid identical across overlapping windows, so pane
//                   grids are computed once and reused);
//   SUM kHistogram / kMonteCarlo
//                   per-pane distribution lists (no additive shortcut
//                   exists; the strategy reruns per window);
//   MAX / MIN       accumulated log-CDF (log-survival) grids per pane on a
//                   shared power-of-two lattice;
//   COUNT           per-pane counts.
//
// Tumbling windows (one pane per window) delegate to the exact per-window
// kernels (CltSum / FitGaussianToCf / InvertSumCfToDensity /
// ExtremeDistributionValue, and the strategy itself for kHistogram /
// kMonteCarlo), so their results are bitwise-identical to the reference
// GroupByAggregateOperator + MakeSumAggregate path. The planner compiles
// every windowed aggregate to these partials; the reference operator is
// kept for the differential tests.

#ifndef USP_UNCERTAIN_PANE_AGGREGATES_H_
#define USP_UNCERTAIN_PANE_AGGREGATES_H_

#include <string>

#include "stats/characteristic_function.h"
#include "stream/pane_window.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace uncertain {

/// Tuning for the pane-incremental aggregates.
struct PaneAggregateOptions {
  /// Output resolution of CF-inversion SUM (histogram bins / FFT points).
  size_t grid_points = 1024;
  /// Shared scratch (FFT buffers, frequency and lattice grids); not owned.
  /// One workspace per thread — the sharded executor exposes a per-shard
  /// instance through ShardContext::cf_workspace. Null falls back to
  /// per-call local buffers.
  stats::CfInversionWorkspace* workspace = nullptr;
};

/// SUM over attribute `attr_index`, incremental per pane. Certain numerics
/// fold into a running shift; distribution-valued attributes use the
/// strategy selected by `kind` (see file comment for the per-kind pane
/// partial).
stream::PaneAggregateSpec MakePaneSumAggregate(
    std::string output_name, size_t attr_index, SumStrategyKind kind,
    const PaneAggregateOptions& opts = {});

/// AVG: affine rescale of SUM by the group's window count.
stream::PaneAggregateSpec MakePaneAvgAggregate(
    std::string output_name, size_t attr_index, SumStrategyKind kind,
    const PaneAggregateOptions& opts = {});

/// MAX via exact order statistics over accumulated per-pane log-CDF grids.
stream::PaneAggregateSpec MakePaneMaxAggregate(
    std::string output_name, size_t attr_index, size_t bins = 256,
    const PaneAggregateOptions& opts = {});

/// MIN, symmetric to MAX (log-survival grids).
stream::PaneAggregateSpec MakePaneMinAggregate(
    std::string output_name, size_t attr_index, size_t bins = 256,
    const PaneAggregateOptions& opts = {});

/// COUNT of tuples in the group.
stream::PaneAggregateSpec MakePaneCountAggregate(std::string output_name);

}  // namespace uncertain
}  // namespace usp

#endif  // USP_UNCERTAIN_PANE_AGGREGATES_H_
