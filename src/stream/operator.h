// The box of the box-arrow paradigm (§3): a push-based operator that
// consumes tuples and emits tuples into a Collector. Per-operator metrics
// (tuple counts, processing time) are collected for the benches.

#ifndef USP_STREAM_OPERATOR_H_
#define USP_STREAM_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "stream/tuple.h"

namespace usp {
namespace stream {

class TupleBatch;

/// Downstream sink an operator emits into.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(Tuple tuple) = 0;
};

/// Collector that appends into a vector (used by tests and benches).
class VectorCollector final : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples_.push_back(std::move(tuple)); }
  std::vector<Tuple>& tuples() { return tuples_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  void Clear() { tuples_.clear(); }

 private:
  std::vector<Tuple> tuples_;
};

/// Cumulative per-operator counters.
///
/// Under the sharded executor each shard owns a private operator instance
/// (and therefore a private OperatorMetrics); snapshots merge the per-shard
/// structs with MergeFrom rather than sharing one mutable struct across
/// threads.
struct OperatorMetrics {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t batches_in = 0;
  double processing_seconds = 0.0;

  // Ingest-side counters, populated only on the source-node entries the
  // sharded executor appends to its MetricsSnapshot(). They make
  // backpressure observable instead of inferred: block time says how long
  // producers waited on full shard rings, peak depth says how close the
  // rings came to full.
  /// Total time this source's producer spent blocked pushing into full
  /// shard queues (the backpressure path).
  double producer_block_seconds = 0.0;
  /// Highest per-(lane, shard) queue occupancy observed at enqueue time,
  /// in batches.
  uint64_t queue_peak_depth = 0;

  // Event-time progress + buffered-state gauges.
  /// Last watermark this operator observed (INT64_MIN before any — also
  /// the merged value when any shard has yet to see one, which is the
  /// correct conservative minimum).
  int64_t low_watermark = INT64_MIN;
  /// Approximate bytes of buffered operator state (open windows, join
  /// buffers, pane partials), per Tuple::ApproxBytes. A gauge, not a
  /// counter: it tracks current occupancy, so silent buffer growth (e.g.
  /// a join peer outrunning an idle source) is observable.
  uint64_t buffered_bytes = 0;
  /// Tuples dropped on arrival because the watermark had already passed
  /// them — every window containing them had closed, or (joins) they fell
  /// below their own side's watermark — i.e. they trailed the newest
  /// tuple by more than the plan's lateness.
  uint64_t late_dropped = 0;

  // Cross-group CF grid cache counters (aggregate operators over CF
  // inversion only; see stats::CfGridCache). A hit means one CfGrid
  // evaluation another group already paid for.
  uint64_t grid_cache_hits = 0;
  uint64_t grid_cache_misses = 0;

  void MergeFrom(const OperatorMetrics& other) {
    tuples_in += other.tuples_in;
    tuples_out += other.tuples_out;
    batches_in += other.batches_in;
    processing_seconds += other.processing_seconds;
    producer_block_seconds += other.producer_block_seconds;
    queue_peak_depth = queue_peak_depth > other.queue_peak_depth
                           ? queue_peak_depth
                           : other.queue_peak_depth;
    low_watermark =
        low_watermark < other.low_watermark ? low_watermark
                                            : other.low_watermark;
    buffered_bytes += other.buffered_bytes;
    late_dropped += other.late_dropped;
    grid_cache_hits += other.grid_cache_hits;
    grid_cache_misses += other.grid_cache_misses;
  }
};

/// \brief Base class for unary stream operators.
///
/// Contract: input arrives only as batches, through PushBatch() into the
/// ProcessBatch() hook (a single tuple is a batch of one). Per source,
/// batches arrive in push order; whether tuples must also be in timestamp
/// order is the operator's own contract: the paned aggregate accepts
/// out-of-order input down to its watermark and counts what falls below
/// it as late, the naive WindowedOperator reference needs timestamp
/// order. AdvanceWatermark() delivers event-time progress, and Close()
/// is called once at end-of-stream and must flush any buffered state
/// (open windows, pending panes).
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& name() const { return name_; }
  const OperatorMetrics& metrics() const { return metrics_; }

  /// Consume a batch, emitting zero or more results. Metrics are metered
  /// once per batch (one Stopwatch read, one tuples_in update).
  common::Status PushBatch(const TupleBatch& batch, Collector* out);
  /// Event-time progress: the executor promises every future input tuple
  /// has timestamp >= `watermark`. Stateful operators close windows and
  /// expire buffers here (emissions go to `out`); the default is a no-op
  /// for stateless operators. The executor forwards the watermark along
  /// graph edges itself — operators never re-emit it. Monotonic: the
  /// executor only delivers advances.
  common::Status AdvanceWatermark(int64_t watermark, Collector* out);
  /// End-of-stream: flush buffered state.
  common::Status Close(Collector* out);

 protected:
  /// The one input hook. Emissions go to `out`.
  virtual common::Status ProcessBatch(const TupleBatch& batch,
                                      Collector* out) = 0;
  /// Watermark hook; default no-op (stateless operators).
  virtual common::Status OnWatermark(int64_t watermark, Collector* out) {
    (void)watermark;
    (void)out;
    return common::Status::OK();
  }
  virtual common::Status Finish(Collector* out) {
    (void)out;
    return common::Status::OK();
  }
  /// For subclasses maintaining the buffered_bytes/low_watermark gauges.
  OperatorMetrics& mutable_metrics() { return metrics_; }

 private:
  // Counting wrapper so subclasses' emissions are metered.
  class CountingCollector;

  std::string name_;
  OperatorMetrics metrics_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_OPERATOR_H_
