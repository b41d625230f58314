// Key-sharded DAG runtime with lock-free parallel ingest — the one
// execution backend behind every compiled plan.
//
// The executor owns N shards; each shard runs a private copy of the plan
// (its own ExecGraph + operator instances, its own CF scratch) on a
// dedicated worker thread, except under the inline rule below. Ingest
// runs through L *lanes*: a lane is one producer thread's private ingest
// channel, connected to every shard by a bounded lock-free SPSC ring —
// one ring per (lane, shard) pair — so after the caller enters PushBatch
// no lock is ever taken on the way to a shard. Multi-sensor feeds (radar
// A + radar B + RFID readers) each own a lane and push concurrently from
// their own threads.
//
// Inline rule: with num_shards == 1 AND num_ingest_lanes == 1 there is no
// hop to make, so the executor creates no worker thread, no rings and no
// startup latch; each push runs the shard on the calling thread. Results
// are emitted before the push returns, an operator error comes back from
// the push that hit it, and the sink keeps the shard's emission order.
//
// Ordering contract: each source node must be fed through exactly ONE
// lane (enforced: a push that re-binds a source to a different lane fails
// with InvalidArgument). Lane FIFO + per-source sequence numbers then
// guarantee every shard observes each source's tuples in that source's
// timestamp arrival order — the DSMS contract windowed operators rely on.
// There is no cross-SOURCE ordering guarantee once lanes run in parallel;
// operators downstream of a single source are unaffected, and fan-in
// joins buffer by time range so their result SET is interleaving-
// independent (emission order is not — under skew it regresses in
// timestamp, but never below the join's propagated watermark, which is
// what closes the windows of an aggregate downstream of it and expires
// the buffers of a join downstream of it).
// Workers verify the per-source sequence numbers and fail the shard
// loudly on a violation instead of silently mis-windowing.
//
// Ingest forwards the caller's batches: each push is partitioned by shard
// key on the lane's producer thread and enqueued as ONE message per shard
// that got tuples — nothing is held back in the lane, so a push's tuples
// (and the watermark they carry) reach the shards as soon as a worker
// pops them. The caller's push size is the message size: push in chunks
// to amortise the ring hop, or tuple by tuple for the lowest latency.
//
// Shards partition nothing themselves, and all tuples of one key are
// processed by one shard: keyed plans (group-by, keyed joins) need no
// cross-shard coordination, and the result SET is independent of both
// the shard count and the lane count (merged output is timestamp-sorted
// unless the plan runs inline; equal-timestamp tie order follows shard
// assignment and worker interleaving).
//
// Thread safety: PushBatch(lane, ...) is single-producer PER LANE — two
// threads may push concurrently only on different lanes. The lane-less
// overloads use lane 0 (the seed single-caller API, unchanged).
//
// Metrics: every shard's operator instances accumulate private
// OperatorMetrics; MetricsSnapshot() merges them under the shard locks
// and appends one entry per source node carrying the ingest counters
// (tuples/batches enqueued, producer block time, peak queue depth), so
// backpressure is observable instead of inferred.
//
// The executor keeps no tuple state of its own, per lane or per shard:
// anything that must outlive a batch (window panes, join buffers)
// belongs to an operator, which bounds it in OnWatermark.

#ifndef USP_STREAM_SHARDED_EXECUTOR_H_
#define USP_STREAM_SHARDED_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "stats/characteristic_function.h"
#include "stream/exec_graph.h"
#include "stream/spsc_ring.h"
#include "stream/watermark.h"

namespace usp {
namespace stream {

/// Everything a plan builder may bind shard-locally.
struct ShardContext {
  size_t shard_index = 0;
  size_t num_shards = 1;
  /// Shard-private scratch for CF inversion / order-statistics grids.
  /// Owned by the shard and touched only by the thread running it (its
  /// worker, or the pushing thread under the inline rule); plan
  /// builders hand it to the pane aggregates so the per-window hot loop
  /// is allocation-free.
  stats::CfInversionWorkspace* cf_workspace = nullptr;
};

class ShardedExecutor {
 public:
  /// One producer thread's private ingest channel (index into the lanes).
  using LaneId = size_t;

  struct Options {
    size_t num_shards = 1;
    /// Parallel ingest lanes. Each lane accepts pushes from exactly one
    /// producer thread at a time and owns one SPSC ring per shard; bind
    /// each source to its own lane to ingest multi-sensor feeds
    /// concurrently.
    size_t num_ingest_lanes = 1;
    /// Bounded ring depth per (lane, shard) pair, in messages: one per
    /// push per shard it reaches, plus watermark broadcasts (rounded up
    /// to a power of two; producers block beyond = backpressure).
    size_t queue_capacity = 64;
    /// Event-time watermarks. Every ingested slice carries its source's
    /// watermark — max ingested timestamp minus `watermark_lateness_us` —
    /// whenever the slice advanced it, and the shard applies it right
    /// after the slice's tuples: windows close and join buffers expire
    /// as soon as a shard's own data passes them. With several shards, a
    /// shard may get none of a source's recent tuples, so once the
    /// source's watermark has advanced at least `watermark_period_us`
    /// past its last broadcast, the lane also broadcasts it to EVERY
    /// shard. 0 disables the broadcast (explicit PushWatermark still
    /// works); a negative value fails Create(). A single shard receives
    /// every slice and never needs the broadcast.
    int64_t watermark_period_us = 0;
    /// Slack subtracted from the max ingested timestamp: the promise
    /// becomes "no future tuple below max - L", so a window stays open
    /// for tuples up to L behind the newest one. Windowed aggregates drop
    /// (and count) tuples that arrive after all of their windows closed,
    /// and joins tuples below their own side's watermark. A negative
    /// value would promise past the data and fails Create().
    int64_t watermark_lateness_us = 0;
    /// Pin threads to distinct cores (Linux only; elsewhere a no-op):
    /// shard worker i -> core i % ncpu, and the producer thread of lane l
    /// -> core (num_shards + l) % ncpu on its FIRST push (the executor
    /// never owns producer threads, so the pin rides the push; a caller
    /// that pushes one lane from several threads over time — legal as
    /// long as pushes don't overlap — gets only the first thread pinned).
    /// Ring slot arrays and the shard's CF workspace are then
    /// first-touched from the pinned worker, so the hot consumer-side
    /// state is core-local. The planner sets this on sharded plans when
    /// the machine has >= 4 hardware threads.
    bool pin_threads = false;
  };

  /// Maps a tuple to a shard-key hash; the shard is `hash % num_shards`.
  /// Must be pure: same tuple -> same key on every call and thread.
  using KeyFn = std::function<uint64_t(const Tuple&)>;

  /// Builds one shard's plan. Runs once per shard at Create() time; must
  /// be deterministic so every shard gets the same node numbering.
  using PlanBuilder =
      std::function<common::Status(ExecGraph* graph, const ShardContext& ctx)>;

  /// Builds the per-shard graphs (validated) and starts the workers —
  /// none under the inline rule (one shard, one lane).
  static common::Result<std::unique_ptr<ShardedExecutor>> Create(
      const Options& options, KeyFn key_fn, const PlanBuilder& builder);

  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Partition a batch by shard key on the calling thread and enqueue each
  /// non-empty per-shard sub-batch on `lane`'s rings as one message (under
  /// the inline rule, process it before returning). Nothing is buffered:
  /// when the call returns OK every tuple is in a ring or processed.
  /// Single producer per lane; the source becomes bound to `lane` on first
  /// push and may not move.
  common::Status PushBatch(LaneId lane, ExecGraph::NodeId source,
                           TupleBatch&& batch);
  common::Status PushBatch(LaneId lane, ExecGraph::NodeId source,
                           const TupleBatch& batch);

  /// Event-time progress for one source: promises every future tuple
  /// pushed for `source` has timestamp >= watermark. Broadcast to every
  /// shard on the source's lane; the lane holds no data back, so lane
  /// FIFO alone orders the watermark after every tuple pushed before it
  /// and it can never overtake data it covers. The explicit entry point
  /// for IDLE sources — a sensor outage stops data, not progress — which
  /// is what keeps the peer side of a join bounded; live sources carry
  /// their watermark on every slice (see Options::watermark_period_us).
  /// Same single-producer-per-lane contract as PushBatch; monotonic per
  /// source (regressions and values at or below the watermark ingested
  /// data already carried are ignored).
  common::Status PushWatermark(LaneId lane, ExecGraph::NodeId source,
                               int64_t watermark);
  /// Lane-0 convenience overload.
  common::Status PushWatermark(ExecGraph::NodeId source, int64_t watermark);

  /// Single-caller convenience API: lane 0.
  common::Status PushBatch(ExecGraph::NodeId source, const TupleBatch& batch);
  /// Move ingest: tuples are moved into the partitions (and with a single
  /// shard the whole batch is forwarded without copying). Prefer this for
  /// batches the caller does not reuse.
  common::Status PushBatch(ExecGraph::NodeId source, TupleBatch&& batch);
  common::Status Push(ExecGraph::NodeId source, Tuple tuple);

  /// Shutdown, in backpressure-safe order: (1) close every ingest lane so
  /// a racing push fails loudly with FailedPrecondition instead of
  /// enqueueing into rings about to close, then wait for pushes already
  /// in flight to leave (the workers are still consuming, so a blocked
  /// producer drains, never wedges), (2) close the rings, join the
  /// workers (they drain everything accepted), flush every shard's graph,
  /// and merge the per-shard sink outputs. Idempotent; returns the
  /// first error any shard hit. A push acknowledged with OK is always
  /// delivered; a push racing Finish() gets a loud error, never a
  /// deadlock or a silent drop.
  common::Status Finish();

  /// Merged output of a sink node: shard-index concatenation, then a
  /// stable sort by timestamp — deterministic for any worker interleaving
  /// at a fixed shard count with single-lane ingest; across shard or lane
  /// counts the tuple SET and the timestamp order are identical but
  /// equal-timestamp ties may reorder. Under the inline rule the output
  /// is not sorted: it keeps the shard's emission order. Empty until
  /// Finish().
  const TupleBatch& sink_output(ExecGraph::NodeId sink) const;
  TupleBatch TakeSinkOutput(ExecGraph::NodeId sink);

  /// Per-node metrics merged across shards, plus one appended entry per
  /// source node carrying the ingest counters (queue depth, producer
  /// block time); safe to call while running.
  std::vector<NodeMetrics> MetricsSnapshot() const;

  size_t num_shards() const { return shards_.size(); }
  size_t num_lanes() const { return lanes_.size(); }

 private:
  struct Message {
    ExecGraph::NodeId source = ExecGraph::kInvalidNode;
    /// Per-(lane, source) slice counter; strictly increasing in the
    /// subsequence each shard receives. Workers verify it.
    uint64_t seq = 0;
    /// Tuples to push at `source`; empty for a broadcast or explicit
    /// watermark.
    TupleBatch batch;
    /// Source watermark the shard applies after `batch` (INT64_MIN =
    /// none): data slices carry it whenever they advanced their source's
    /// clock, and watermark-only messages always do.
    int64_t watermark = INT64_MIN;
  };

  /// Lane a source is bound to (first push wins); kUnboundLane = free.
  static constexpr uint32_t kUnboundLane = UINT32_MAX;

  /// Per-source ingest state: the lane binding plus counters written by
  /// the owning lane's producer thread and read by MetricsSnapshot() from
  /// anywhere (hence atomics).
  struct SourceIngest {
    std::atomic<uint32_t> lane{kUnboundLane};
    std::atomic<uint64_t> tuples{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> blocked_ns{0};
    std::atomic<uint64_t> peak_depth{0};
  };

  struct Lane {
    /// One SPSC ring per shard (none under the inline rule); this lane's
    /// producer thread is the only pusher, the shard worker the only
    /// popper.
    std::vector<std::unique_ptr<SpscRing<Message>>> rings;
    /// Flipped first during Finish() so racing pushes fail loudly.
    /// seq_cst together with `active` (store/load vs. RMW/load on the
    /// other side) so Finish() and a racing push cannot both miss each
    /// other.
    std::atomic<bool> closed{false};
    /// Pushes currently inside PushBatch. Finish() waits for zero after
    /// closing the lane, so an acknowledged push is never stranded in a
    /// ring the workers already drained. Blocked producers cannot wedge
    /// the wait: the workers keep consuming until the rings close, which
    /// happens after.
    std::atomic<int> active{0};
    /// Under Options::pin_threads, the first pushing thread claims this
    /// flag and pins itself to the lane's core.
    std::atomic<bool> producer_pinned{false};
    // ---- producer-thread-local state (no locks; single producer) ----
    /// Next slice sequence number per source node id.
    std::vector<uint64_t> next_seq;
    /// Watermark generation, monotone-commit and broadcast-period state
    /// per source.
    std::vector<SourceWatermarkClock> watermark_clocks;
  };

  struct Shard {
    std::unique_ptr<DagExecutor> exec;
    /// Reusable CF/order-statistics scratch; private to the thread
    /// running the shard.
    stats::CfInversionWorkspace cf_workspace;
    std::thread worker;
    size_t index = 0;
    /// Guards exec/status against snapshot readers.
    mutable std::mutex mu;
    common::Status status;
    /// Last sequence number seen per source node id (worker-private).
    std::vector<uint64_t> last_seq;
  };

  ShardedExecutor(const Options& options, KeyFn key_fn);

  /// The inline rule: one shard behind one lane runs on the pushing
  /// thread (no rings, no worker).
  bool RunsInline() const {
    return shards_.size() == 1 && lanes_.size() == 1;
  }

  void WorkerLoop(Shard* shard);
  /// Runs one message through the shard's graph under its lock — the
  /// batch, then the watermark it carries — and returns the shard's
  /// (latched) status.
  common::Status ProcessMessage(Shard* shard, Message&& msg);
  /// RAII in-flight marker (Lane::active); engaged by AdmitPush, released
  /// when the push leaves PushBatch/PushWatermark.
  struct PushTicket {
    std::atomic<int>* active = nullptr;
    PushTicket() = default;
    PushTicket(const PushTicket&) = delete;
    PushTicket& operator=(const PushTicket&) = delete;
    ~PushTicket() {
      if (active) active->fetch_sub(1, std::memory_order_release);
    }
  };

  /// Shared producer-admission protocol of PushBatch and PushWatermark:
  /// finished/lane/source validation (the id must name a source node, so a
  /// bad push is refused before it can reach and fail a shard), then the
  /// in-flight marker (seq_cst,
  /// paired with the seq_cst lane close in Finish — either Finish sees
  /// the increment and waits, or the push sees the closed flag and fails
  /// loudly), then the closed-lane check. On OK, `*lane_out` is set and
  /// `ticket` holds the in-flight marker for the caller's scope.
  common::Status AdmitPush(LaneId lane_id, ExecGraph::NodeId source,
                           Lane** lane_out, PushTicket* ticket);
  /// Source->lane binding (first push wins; a later push on a different
  /// lane would break per-source arrival order and fails loudly).
  common::Status BindSourceToLane(LaneId lane_id, ExecGraph::NodeId source);
  /// Blocking enqueue with block-time/peak-depth accounting; under the
  /// inline rule, processes the message on the calling thread instead.
  common::Status Enqueue(Lane* lane, size_t shard, Message&& msg);
  /// Send a watermark-only message for `source` to every shard on this
  /// lane's rings. Callers commit the value on the source clock first.
  common::Status BroadcastWatermark(Lane* lane, ExecGraph::NodeId source,
                                    int64_t watermark);

  Options options_;
  KeyFn key_fn_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<SourceIngest[]> ingest_by_source_;
  size_t num_nodes_ = 0;
  /// Startup latch: each worker bumps this after (optionally) pinning
  /// itself and first-touch-allocating its ring slots; Create() waits for
  /// num_shards before returning, so no producer can push into an
  /// unallocated ring.
  std::atomic<size_t> rings_ready_{0};
  std::vector<TupleBatch> merged_sinks_;  // indexed by NodeId, post-Finish
  std::mutex finish_mu_;  // serialises Finish() calls
  /// True only once workers are joined and sinks merged; gates the
  /// sink_output() accessors.
  std::atomic<bool> finished_{false};
  common::Status final_status_;
};

/// KeyFn helpers: shard by the hash of one attribute.
ShardedExecutor::KeyFn KeyByStringValue(size_t value_index);
ShardedExecutor::KeyFn KeyByIntValue(size_t value_index);

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_SHARDED_EXECUTOR_H_
