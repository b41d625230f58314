// Sliding-window stream join — the shape of the paper's Q2:
//   RFIDStream [Range 3 seconds] as R, TempStream [Range 3 seconds] as T
//   Where ... loc_equals(R.(x,y,z), T.(x,y,z))
// Matching is delegated to a caller-supplied function so that probabilistic
// predicates over distribution-valued attributes (uncertain::) plug in.
// Joined tuples carry merged lineage; when one input tuple matches several
// from the other side, the outputs share lineage and are therefore flagged
// correlated for downstream aggregation (§5.2).

#ifndef USP_STREAM_JOIN_H_
#define USP_STREAM_JOIN_H_

#include <deque>
#include <functional>
#include <optional>

#include "common/status.h"
#include "common/stopwatch.h"
#include "stream/tuple.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

/// \brief Symmetric sliding-window join over two event-time inputs.
///
/// A pair (l, r) is eligible when |l.ts - r.ts| <= range_us; the match
/// function returns the joined tuple, or nullopt for no match. Each
/// buffer is kept in timestamp order (equal timestamps in arrival order)
/// and a probe visits exactly the peer tuples in [ts - range, ts + range],
/// so the match function never sees an out-of-range pair.
///
/// Watermarks (AdvanceWatermark) are the only thing that expires state: a
/// buffered left tuple l is dropped once the RIGHT watermark passes
/// l.ts + range, because no future right tuple can reach it, and vice
/// versa. Inputs may therefore arrive out of timestamp order, on each
/// side and across the two sides, as long as each side stays at or above
/// its own watermark. A tuple that arrives below its own side's watermark
/// is dropped and counted in OperatorMetrics::late_dropped: its peers may
/// already be expired, so matching it would give a partial pair set. The
/// matched pair SET is thus independent of arrival order; only emission
/// order depends on it.
///
/// Buffer growth is range + watermark lag. Without watermarks nothing is
/// ever expired; the executor puts one on every ingested slice, and an
/// idle source's explicit watermark keeps the peer buffer bounded while
/// it is silent. Call Close() once after the last push.
class SlidingWindowJoin {
 public:
  /// Builds the joined tuple for an eligible pair, or nullopt. Contract:
  /// the joined tuple's timestamp must be >= max(left.ts, right.ts) —
  /// what ConcatJoinedTuple produces. Watermark reasoning depends on it:
  /// the executor forwards min(left wm, right wm) past this join, and
  /// output stamped at the pair max provably never regresses below that;
  /// an earlier stamp can land below the propagated watermark, where a
  /// downstream windowed aggregate drops it as late once all of its
  /// windows have closed.
  using MatchFn = std::function<std::optional<Tuple>(const Tuple& left,
                                                     const Tuple& right)>;

  SlidingWindowJoin(std::string name, int64_t range_us, MatchFn match)
      : name_(std::move(name)), range_us_(range_us), match_(std::move(match)) {}

  /// The join's input: a batch of tuples on one side (a single tuple is
  /// a batch of one). Each tuple below its own side's watermark is
  /// dropped as late; every other tuple probes the peer buffer, emits its
  /// matches into `out` at once, and is buffered. One metrics update and
  /// one Stopwatch read per batch.
  common::Status PushLeftBatch(const TupleBatch& batch, Collector* out);
  common::Status PushRightBatch(const TupleBatch& batch, Collector* out);
  /// Event-time progress on one input (`from_left` names the side the
  /// promise is about): no future tuple on that side will carry
  /// ts < watermark. It expires the OTHER side's buffer — a buffered right
  /// tuple r is provably dead once the left watermark passes r.ts + range
  /// — and makes later tuples below it on this side late. Joins emit
  /// eagerly, so watermarks never produce output here; the executor
  /// forwards min(left, right) downstream itself.
  common::Status AdvanceWatermark(bool from_left, int64_t watermark);
  /// No buffered output exists at close (joins emit eagerly), but Close
  /// releases window state.
  common::Status Close();

  const std::string& name() const { return name_; }
  const OperatorMetrics& metrics() const { return metrics_; }
  /// Buffer occupancy, for tests and memory diagnostics.
  size_t left_buffer_size() const { return left_.size(); }
  size_t right_buffer_size() const { return right_.size(); }

 private:
  common::Status PushBatchImpl(const TupleBatch& batch, bool from_left,
                               Collector* out);
  /// Unmetered core: drop a late tuple, else probe the other side and
  /// buffer the tuple.
  void ProbeAndBuffer(const Tuple& tuple, bool from_left, Collector* out);
  /// Drops the buffered tuples the peer watermarks have made unmatchable.
  void Expire();

  std::string name_;
  int64_t range_us_;
  MatchFn match_;
  /// Per-side buffers, ascending by timestamp.
  std::deque<Tuple> left_;
  std::deque<Tuple> right_;
  /// Per-side watermarks (promises about future input, independent of
  /// data arrival); INT64_MIN until the side's first watermark.
  int64_t left_wm_ = INT64_MIN;
  int64_t right_wm_ = INT64_MIN;
  /// Incremental Tuple::ApproxBytes over both buffers, mirrored into
  /// metrics_.buffered_bytes.
  uint64_t buffered_bytes_ = 0;
  OperatorMetrics metrics_;
};

/// Default lineage/timestamp plumbing for joined tuples: concatenates the
/// two value lists, takes the max timestamp, and merges lineage. Callers
/// building custom MatchFns can delegate the boilerplate here.
Tuple ConcatJoinedTuple(const Tuple& left, const Tuple& right);

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_JOIN_H_
