// Windowed GROUP BY + aggregate + HAVING — the shape of the paper's Q1:
//   Group By R2.area  Having sum(R2.weight) > 200 pounds
// over a `[Range 5 seconds]` window. The aggregate functions are supplied
// by the caller (the uncertain:: library provides SUM/MAX over
// distribution-valued attributes), so this operator stays agnostic of the
// uncertainty machinery.

#ifndef USP_STREAM_GROUP_BY_H_
#define USP_STREAM_GROUP_BY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stream/window.h"

namespace usp {
namespace stream {

/// One output aggregate column.
struct AggregateSpec {
  std::string output_name;
  /// Computes the aggregate value over a group's tuples (arrival order).
  std::function<common::Result<Value>(const std::vector<const Tuple*>&)> fn;
};

/// \brief Windowed group-by-aggregate with an optional HAVING filter.
///
/// Output tuple layout: [group_key (string), agg_1, ..., agg_m], timestamp
/// = window end (Rstream semantics: results are streamed when the window
/// closes), lineage = union of the group's input lineage.
///
/// Group keys are computed once per batch tuple and cached per window, so
/// a sliding window with overlap k evaluates the key function once per
/// tuple instead of k times at emit.
class GroupByAggregateOperator final : public WindowedOperator {
 public:
  /// Group key of a tuple as its canonical string (CanonicalKeyString for
  /// an attribute value): tuples with equal strings form one group, and the
  /// string is the key column of their output rows. This operator groups
  /// in a string map and is the reference the differential tests hold the
  /// paned operator to, which keys groups by typed GroupKeys of the same
  /// identity.
  using KeyFn = std::function<std::string(const Tuple&)>;
  using HavingFn = std::function<bool(const Tuple&)>;

  GroupByAggregateOperator(std::string name, WindowSpec spec, KeyFn key_fn,
                           std::vector<AggregateSpec> aggregates,
                           HavingFn having = nullptr)
      : WindowedOperator(std::move(name), spec),
        key_fn_(std::move(key_fn)),
        aggregates_(std::move(aggregates)),
        having_(std::move(having)) {}

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override;
  common::Status EmitWindow(int64_t window_start, int64_t window_end,
                            const std::vector<Tuple>& tuples,
                            Collector* out) override;
  void AppendRun(int64_t window_start, const Tuple* tuples, size_t count,
                 size_t batch_offset) override;

 private:
  KeyFn key_fn_;
  std::vector<AggregateSpec> aggregates_;
  HavingFn having_;
  /// Per-window cached group keys, aligned with the window's tuple buffer.
  std::map<int64_t, std::vector<std::string>> open_keys_;
  /// Keys of the batch currently inside WindowedOperator::ProcessBatch;
  /// AppendRun slices it by batch offset.
  std::vector<std::string> batch_keys_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_GROUP_BY_H_
