// Pane-based windowed group-by-aggregate: the incremental sliding-window
// path. A pane is the gcd(size, slide)-aligned time segment; every window
// is a union of consecutive panes, so per-tuple work (key extraction,
// aggregate accumulation) happens once per pane instead of once per
// overlapping window. Aggregates plug in as type-erased pane partials
// (PaneAggregateSpec); the uncertain:: layer provides partials that exploit
// additivity of the paper's §5.1 math — running cumulant sums for CLT /
// CF-approx SUM, cached per-pane CF grids for CF-inversion SUM, and
// accumulated log-CDF grids for MAX/MIN order statistics.
//
// Group state is keyed by typed GroupKeys (group_key.h): an int64 for
// integer keys, the canonical string otherwise, with the identity of
// CanonicalKeyString. Each pane keeps its groups in one vector in
// first-seen order, indexed by a flat hash table on the key. Closing a
// window walks its panes once, merging their groups through one scratch
// index the operator reuses across closes, and renders each emitted row's
// key string once.
//
// This is the one windowed aggregate the query planner compiles. Windows
// close on event-time progress only: a watermark at or past the window end
// (the executor applies each ingested slice's source watermark right after
// the slice), or end-of-stream. Pane assignment is order-independent, so a
// tuple may arrive out of order as long as one of its windows is still
// open; a tuple whose every window the watermark already closed is late —
// dropped and counted in OperatorMetrics::late_dropped, never an error
// (so the operator never emits a row at or below a watermark it has
// passed on). With in-order input and watermark = max ingested ts, results
// match the reference GroupByAggregateOperator exactly: outputs are
// [canonical group key string, agg_1..agg_m] with timestamp = window end,
// group order is first-seen arrival order within the window, lineage is
// the group's input lineage union, and HAVING filters emitted rows.

#ifndef USP_STREAM_PANE_WINDOW_H_
#define USP_STREAM_PANE_WINDOW_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/group_by.h"
#include "stream/group_key.h"
#include "stream/window.h"

namespace usp {
namespace stream {

/// Opaque per-(pane, group) accumulator state. Concrete partials live in
/// the layer that defines the aggregate (e.g. uncertain::).
class PanePartial {
 public:
  virtual ~PanePartial() = default;
};

/// One output aggregate column computed from pane partials.
struct PaneAggregateSpec {
  std::string output_name;
  /// Fresh empty partial for a new (pane, group) cell.
  std::function<std::unique_ptr<PanePartial>()> make_partial;
  /// Accumulate one tuple (arrival order within the pane).
  std::function<common::Status(PanePartial*, const Tuple&)> add;
  /// Combine the window's partials (ascending pane order; one entry per
  /// pane where the group appeared) into the output value. Partials may
  /// mutate (lazily computed caches shared across overlapping windows).
  std::function<common::Result<Value>(const std::vector<PanePartial*>&)>
      finalize;
  /// Accumulator-sharing key. Two specs with equal non-empty signatures
  /// promise identical make_partial/add behaviour (only finalize may
  /// differ — e.g. SUM and AVG over one attribute share partials and
  /// diverge only in the denominator), so the operator accumulates ONE
  /// partial per (pane, group) for the whole signature class and each
  /// column finalizes from the shared state. Empty = never shared.
  std::string partial_signature;
};

/// Number of distinct accumulator slots `aggregates` would occupy under
/// signature sharing (== aggregates.size() when nothing is shared).
size_t CountDistinctPartialSlots(const std::vector<PaneAggregateSpec>& specs);

/// \brief Windowed GROUP BY over pane-incremental aggregates.
///
/// Accepts any WindowSpec with 0 < slide <= size (LogicalPlan::Validate
/// rejects the rest); pane width is gcd(size, slide), so tumbling
/// windows degenerate to one pane per window and sliding windows with
/// overlap k touch each pane from k windows while paying its accumulation
/// cost once.
class PanedGroupByAggregateOperator final : public Operator {
 public:
  /// Group key of a tuple. A callable returning the canonical key string
  /// (GroupByAggregateOperator::KeyFn) converts to this.
  using KeyFn = std::function<GroupKey(const Tuple&)>;
  using HavingFn = GroupByAggregateOperator::HavingFn;

  PanedGroupByAggregateOperator(std::string name, WindowSpec spec,
                                KeyFn key_fn,
                                std::vector<PaneAggregateSpec> aggregates,
                                HavingFn having = nullptr);

  int64_t pane_us() const { return pane_us_; }

  /// Metrics hook: reads the shard's cross-group CF grid-cache counters
  /// (hits, misses). The planner installs it when grid sharing is enabled
  /// so each window close refreshes OperatorMetrics::grid_cache_hits /
  /// grid_cache_misses.
  using GridCacheProbe = std::function<std::pair<uint64_t, uint64_t>()>;
  void set_grid_cache_probe(GridCacheProbe probe) {
    grid_cache_probe_ = std::move(probe);
  }

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override;
  /// Closes every window with end <= watermark.
  common::Status OnWatermark(int64_t watermark, Collector* out) override;
  common::Status Finish(Collector* out) override;

 private:
  struct GroupState {
    GroupState(GroupKey k, uint64_t h) : key(std::move(k)), hash(h) {}
    GroupKey key;
    uint64_t hash;  // key.Hash()
    std::vector<std::unique_ptr<PanePartial>> partials;  // one per SLOT
    std::vector<TupleId> lineage;
  };
  struct Pane {
    std::vector<GroupState> groups;  // first-seen order
    GroupKeyIndex index;             // key -> position in groups
    /// Approx bytes charged to this pane (tuple-rate estimate of partial
    /// state + lineage), subtracted from the gauge when the pane evicts.
    uint64_t approx_bytes = 0;
  };

  /// Every window containing `ts` is closed: the largest window start
  /// <= ts is at or below the closure cursor.
  bool IsLate(int64_t ts) const {
    return closed_start_ != std::numeric_limits<int64_t>::min() &&
           ts < closed_start_ + spec_.slide_us;
  }
  /// Accumulates one tuple into its group's partials in `pane`.
  common::Status AddToPane(Pane& pane, const Tuple& tuple, GroupKey key);
  common::Status EmitWindow(int64_t start, Collector* out);
  /// Drop leading panes fully covered by the just-emitted window `start`,
  /// keeping the buffered_bytes gauge in sync.
  void EvictPanesServedBy(int64_t start);
  /// Earliest window start that could still close, given the earliest
  /// retained pane.
  int64_t EarliestOpenWindowStart() const;

  WindowSpec spec_;
  int64_t pane_us_;
  KeyFn key_fn_;
  std::vector<PaneAggregateSpec> aggregates_;
  /// Accumulator slot per aggregate column: columns with equal non-empty
  /// partial_signature share one slot (and therefore one partial per
  /// (pane, group) — `add` runs once per slot, each column's own
  /// `finalize` reads the shared state).
  std::vector<size_t> slot_of_;
  /// Representative aggregate index per slot (owns make_partial/add).
  std::vector<size_t> slot_rep_;
  HavingFn having_;
  GridCacheProbe grid_cache_probe_;
  /// Sum of panes_' approx_bytes; mirrored into buffered_bytes.
  uint64_t buffered_bytes_ = 0;
  std::map<int64_t, Pane> panes_;  // pane start -> contents
  /// Start of the last closed window (INT64_MIN before the first) —
  /// emitted, or passed by a watermark while empty. A pane can outlive
  /// windows it already served, so closing must not revisit starts at or
  /// below this, and a tuple whose windows all start at or below it is
  /// late.
  int64_t closed_start_;
  /// Scratch of EmitWindow, cleared per close: the window's groups in
  /// first-seen order (merged_[i] lists group i's state in each pane that
  /// holds it, in pane order; only the first merge_index_.size()
  /// entries are live), the index over them, and one column's partials.
  GroupKeyIndex merge_index_;
  std::vector<std::vector<GroupState*>> merged_;
  std::vector<PanePartial*> partials_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_PANE_WINDOW_H_
