#include "stream/sharded_executor.h"

#include <algorithm>
#include <cassert>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/stopwatch.h"

namespace usp {
namespace stream {

namespace {

/// Best-effort: pin the calling thread to one core (modulo the machine's
/// hardware thread count). Failure — a restrictive cgroup cpuset, an
/// affinity mask narrower than the core id, a non-Linux platform — is
/// silently ignored: pinning is a locality optimisation, never a
/// correctness requirement.
void PinThreadToCore(size_t core) {
#ifdef __linux__
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % ncpu), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

}  // namespace

constexpr uint32_t ShardedExecutor::kUnboundLane;

ShardedExecutor::ShardedExecutor(const Options& options, KeyFn key_fn)
    : options_(options), key_fn_(std::move(key_fn)) {}

ShardedExecutor::~ShardedExecutor() {
  // Abandon politely if the caller forgot Finish(): same order as Finish
  // (lanes, then rings) so a racing push errors instead of buffering.
  for (auto& lane : lanes_) {
    lane->closed.store(true, std::memory_order_release);
  }
  for (auto& lane : lanes_) {
    for (auto& ring : lane->rings) ring->Close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

common::Result<std::unique_ptr<ShardedExecutor>> ShardedExecutor::Create(
    const Options& options, KeyFn key_fn, const PlanBuilder& builder) {
  if (options.num_shards == 0) {
    return common::Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.num_ingest_lanes == 0) {
    return common::Status::InvalidArgument("num_ingest_lanes must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return common::Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.watermark_period_us < 0) {
    return common::Status::InvalidArgument(
        "watermark_period_us must be >= 0 (0 = no periodic broadcast), got " +
        std::to_string(options.watermark_period_us));
  }
  // A negative lateness would run each watermark ahead of its source's
  // data: windows would close before their tuples arrive, and those
  // tuples would land in panes evicted without ever being emitted.
  if (options.watermark_lateness_us < 0) {
    return common::Status::InvalidArgument(
        "watermark_lateness_us must be >= 0, got " +
        std::to_string(options.watermark_lateness_us));
  }
  if (!key_fn) {
    return common::Status::InvalidArgument("key_fn is required");
  }
  std::unique_ptr<ShardedExecutor> exec(
      new ShardedExecutor(options, std::move(key_fn)));
  for (size_t i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    auto graph = std::make_unique<ExecGraph>();
    ShardContext ctx;
    ctx.shard_index = i;
    ctx.num_shards = options.num_shards;
    ctx.cf_workspace = &shard->cf_workspace;
    USP_RETURN_NOT_OK(builder(graph.get(), ctx));
    USP_RETURN_NOT_OK(graph->Validate());
    if (i > 0) {
      // Same node count, kinds, and names as shard 0, or the positional
      // metrics merge (and the sink merge) would read mismatched plans.
      const ExecGraph& first = exec->shards_[0]->exec->graph();
      bool same = graph->num_nodes() == first.num_nodes();
      for (ExecGraph::NodeId id = 0; same && id < first.num_nodes(); ++id) {
        same = graph->kind(id) == first.kind(id) &&
               graph->name(id) == first.name(id) &&
               graph->outputs(id) == first.outputs(id) &&
               graph->num_inputs(id) == first.num_inputs(id);
      }
      if (!same) {
        return common::Status::FailedPrecondition(
            "plan builder is not deterministic across shards");
      }
    }
    shard->exec = std::make_unique<DagExecutor>(std::move(graph));
    exec->shards_.push_back(std::move(shard));
  }
  const size_t num_nodes = exec->shards_[0]->exec->graph().num_nodes();
  exec->num_nodes_ = num_nodes;
  for (auto& shard : exec->shards_) shard->last_seq.assign(num_nodes, 0);
  exec->ingest_by_source_ = std::make_unique<SourceIngest[]>(num_nodes);
  for (size_t l = 0; l < options.num_ingest_lanes; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->next_seq.assign(num_nodes, 0);
    lane->watermark_clocks.assign(num_nodes, SourceWatermarkClock());
    exec->lanes_.push_back(std::move(lane));
  }
  // Pre-size the merged sink store so sink_output() before Finish() reads
  // an empty batch instead of indexing out of bounds.
  exec->merged_sinks_.assign(num_nodes, TupleBatch());
  // One shard behind one lane runs on the pushing thread: there is no hop
  // to place, so no rings, no workers, no startup latch.
  if (exec->RunsInline()) return exec;
  for (auto& lane : exec->lanes_) {
    lane->rings.reserve(options.num_shards);
    for (size_t s = 0; s < options.num_shards; ++s) {
      // Slot allocation is deferred to shard s's worker thread, which
      // first-touches the pages on its (possibly pinned) core; the
      // rings_ready_ wait below keeps producers out until then.
      lane->rings.push_back(std::make_unique<SpscRing<Message>>(
          options.queue_capacity, /*defer_alloc=*/true));
    }
  }
  for (auto& shard : exec->shards_) {
    Shard* raw = shard.get();
    shard->worker = std::thread([exec_ptr = exec.get(), raw] {
      exec_ptr->WorkerLoop(raw);
    });
  }
  // Wait for every worker to allocate its rings (on its own core) before
  // handing the executor out — a producer must never push into a ring
  // whose slot array does not exist yet.
  Backoff backoff;
  while (exec->rings_ready_.load(std::memory_order_acquire) <
         options.num_shards) {
    backoff.Pause();
  }
  return exec;
}

common::Status ShardedExecutor::ProcessMessage(Shard* shard, Message&& msg) {
  std::lock_guard<std::mutex> lock(shard->mu);
  if (!shard->status.ok()) return shard->status;  // drain after failure
  // Per-source arrival-order invariant: lane FIFO means the slice
  // sequence this shard observes for one source must be strictly
  // increasing (gaps are slices whose partition had no tuples for us).
  if (msg.source < shard->last_seq.size()) {
    if (msg.seq <= shard->last_seq[msg.source]) {
      shard->status = common::Status::Internal(
          "shard " + std::to_string(shard->index) +
          " observed out-of-order ingest for source node " +
          std::to_string(msg.source) + " (seq " + std::to_string(msg.seq) +
          " after " + std::to_string(shard->last_seq[msg.source]) +
          "); was the source pushed from more than one thread?");
      return shard->status;
    }
    shard->last_seq[msg.source] = msg.seq;
  }
  if (!msg.batch.empty()) {
    shard->status = shard->exec->PushBatch(msg.source, msg.batch);
  }
  // The source's progress applies right after the tuples it covers:
  // windows close, join buffers expire.
  if (shard->status.ok() && msg.watermark != INT64_MIN) {
    shard->status = shard->exec->PushWatermark(msg.source, msg.watermark);
  }
  return shard->status;
}

void ShardedExecutor::WorkerLoop(Shard* shard) {
  // Startup, in order: (1) pin this worker to its core so everything it
  // touches from here on faults in core-local, (2) first-touch-allocate
  // this shard's ring slots from every lane, (3) publish readiness —
  // Create() releases producers only after all shards reach (3).
  if (options_.pin_threads) PinThreadToCore(shard->index);
  for (auto& lane : lanes_) lane->rings[shard->index]->AllocateSlots();
  rings_ready_.fetch_add(1, std::memory_order_release);
  // Round-robin over this shard's ring per lane; a lane is finished once
  // its ring is closed AND drained. Lock-free consume; backoff only when
  // a full sweep made no progress.
  const size_t num_lanes = lanes_.size();
  std::vector<bool> drained(num_lanes, false);
  size_t num_drained = 0;
  // Long idle cap: a worker on a quiet feed parks at ~50 sweeps/sec
  // instead of polling at the producer-oriented 1 ms default.
  Backoff backoff(/*max_sleep_us=*/20 * 1000);
  while (num_drained < num_lanes) {
    bool progressed = false;
    for (size_t l = 0; l < num_lanes; ++l) {
      if (drained[l]) continue;
      SpscRing<Message>& ring = *lanes_[l]->rings[shard->index];
      auto msg = ring.TryPop();
      if (!msg && ring.closed()) {
        msg = ring.TryPop();  // drain a push that raced the close
        if (!msg) {
          drained[l] = true;
          ++num_drained;
          continue;
        }
      }
      if (!msg) continue;
      progressed = true;
      ProcessMessage(shard, std::move(*msg));
    }
    if (progressed) {
      backoff.Reset();
    } else if (num_drained < num_lanes) {
      backoff.Pause();
    }
  }
}

common::Status ShardedExecutor::Enqueue(Lane* lane, size_t shard,
                                        Message&& msg) {
  const ExecGraph::NodeId source = msg.source;
  const uint64_t tuples = msg.batch.size();
  common::Status status;
  uint64_t depth = 0;
  if (RunsInline()) {
    // No ring and no worker: the pushing thread runs the shard, so an
    // operator error comes back from the push that hit it.
    status = ProcessMessage(shards_[shard].get(), std::move(msg));
  } else {
    SpscRing<Message>& ring = *lane->rings[shard];
    if (!ring.TryPush(msg)) {
      // Full (backpressure) or closed: block with backoff and meter the
      // wait so it shows up in the source's ingest counters.
      common::Stopwatch blocked;
      Backoff backoff;
      for (;;) {
        if (ring.closed()) {
          return common::Status::FailedPrecondition("shard queue closed");
        }
        backoff.Pause();
        if (ring.TryPush(msg)) break;
      }
      ingest_by_source_[source].blocked_ns.fetch_add(
          static_cast<uint64_t>(blocked.ElapsedSeconds() * 1e9),
          std::memory_order_relaxed);
    }
    depth = ring.size();
  }
  SourceIngest& counters = ingest_by_source_[source];
  counters.tuples.fetch_add(tuples, std::memory_order_relaxed);
  if (tuples > 0) {
    // Watermark-only messages ride the same rings but are not data
    // batches; counting them would skew the ingest batch counters.
    counters.batches.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t prev = counters.peak_depth.load(std::memory_order_relaxed);
  while (depth > prev && !counters.peak_depth.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
  return status;
}

common::Status ShardedExecutor::BroadcastWatermark(Lane* lane,
                                                   ExecGraph::NodeId source,
                                                   int64_t watermark) {
  const uint64_t seq = ++lane->next_seq[source];
  // Every shard sees only a partition of the source's tuples, so every
  // shard must hear the source's progress signal (one message per shard,
  // same seq — each shard receives it exactly once).
  for (size_t s = 0; s < shards_.size(); ++s) {
    Message msg;
    msg.source = source;
    msg.seq = seq;
    msg.watermark = watermark;
    USP_RETURN_NOT_OK(Enqueue(lane, s, std::move(msg)));
  }
  return common::Status::OK();
}

common::Status ShardedExecutor::PushBatch(LaneId lane,
                                          ExecGraph::NodeId source,
                                          const TupleBatch& batch) {
  TupleBatch copy = batch;
  return PushBatch(lane, source, std::move(copy));
}

common::Status ShardedExecutor::AdmitPush(LaneId lane_id,
                                          ExecGraph::NodeId source,
                                          Lane** lane_out,
                                          PushTicket* ticket) {
  if (finished_.load(std::memory_order_acquire)) {
    return common::Status::FailedPrecondition("executor already finished");
  }
  if (lane_id >= lanes_.size()) {
    return common::Status::InvalidArgument(
        "ingest lane " + std::to_string(lane_id) + " out of range (" +
        std::to_string(lanes_.size()) + " lanes)");
  }
  // Reject non-source ids before anything is enqueued: delivered to a
  // shard, the push would fail there and poison the whole plan.
  if (source >= num_nodes_ || shards_[0]->exec->graph().kind(source) !=
                                  ExecGraph::NodeKind::kSource) {
    return common::Status::InvalidArgument(
        "node " + std::to_string(source) + " is not a source");
  }
  Lane* lane = lanes_[lane_id].get();
  // In-flight marker (seq_cst, paired with the seq_cst close in Finish):
  // either Finish sees our increment and waits for us, or we see the
  // closed flag and fail loudly — never both missing each other.
  lane->active.fetch_add(1);
  ticket->active = &lane->active;
  if (lane->closed.load()) {
    return common::Status::FailedPrecondition("ingest lane closed");
  }
  if (options_.pin_threads &&
      !lane->producer_pinned.exchange(true, std::memory_order_relaxed)) {
    // First push on this lane: pin the producer past the workers' cores.
    PinThreadToCore(options_.num_shards + lane_id);
  }
  *lane_out = lane;
  return common::Status::OK();
}

common::Status ShardedExecutor::BindSourceToLane(LaneId lane_id,
                                                 ExecGraph::NodeId source) {
  // Per-source order needs one lane per source: the first push binds the
  // source; a later push on a different lane is a contract violation.
  uint32_t expected = kUnboundLane;
  if (!ingest_by_source_[source].lane.compare_exchange_strong(
          expected, static_cast<uint32_t>(lane_id),
          std::memory_order_acq_rel) &&
      expected != static_cast<uint32_t>(lane_id)) {
    return common::Status::InvalidArgument(
        "source node " + std::to_string(source) + " is bound to ingest lane " +
        std::to_string(expected) + "; pushing it on lane " +
        std::to_string(lane_id) +
        " would break per-source arrival order");
  }
  return common::Status::OK();
}

common::Status ShardedExecutor::PushBatch(LaneId lane_id,
                                          ExecGraph::NodeId source,
                                          TupleBatch&& batch) {
  Lane* lane = nullptr;
  PushTicket ticket;
  USP_RETURN_NOT_OK(AdmitPush(lane_id, source, &lane, &ticket));
  if (batch.empty()) return common::Status::OK();
  USP_RETURN_NOT_OK(BindSourceToLane(lane_id, source));
  // The push goes out at once, one slice per shard it reaches. Each slice
  // carries its source's watermark whenever ingesting the push advanced
  // the source clock; the shard applies it right after the slice's
  // tuples, so a shard closes windows as soon as its data passes them.
  SourceWatermarkClock& clock = lane->watermark_clocks[source];
  const int64_t watermark =
      clock.Observe(batch.MaxTimestamp(), options_.watermark_lateness_us);
  const uint64_t seq = ++lane->next_seq[source];
  if (shards_.size() == 1) {
    // Single shard: forward the whole batch without re-partitioning. The
    // shard receives every slice and its watermark, so it needs no
    // broadcast.
    return Enqueue(lane, 0,
                   Message{source, seq, std::move(batch), watermark});
  }
  std::vector<TupleBatch> partitions(shards_.size());
  for (Tuple& t : batch.mutable_tuples()) {
    partitions[key_fn_(t) % shards_.size()].Append(std::move(t));
  }
  batch.Clear();
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].empty()) continue;
    USP_RETURN_NOT_OK(Enqueue(
        lane, i, Message{source, seq, std::move(partitions[i]), watermark}));
  }
  // A shard that got none of the source's recent tuples hears its
  // progress from the periodic broadcast, enqueued after the data it
  // covers (lane FIFO then guarantees no shard sees the watermark before
  // the tuples it promises about).
  if (clock.BroadcastDue(options_.watermark_period_us)) {
    USP_RETURN_NOT_OK(BroadcastWatermark(lane, source, clock.last_watermark));
  }
  return common::Status::OK();
}

common::Status ShardedExecutor::PushWatermark(LaneId lane_id,
                                              ExecGraph::NodeId source,
                                              int64_t watermark) {
  // Same admission protocol as PushBatch. An idle source that only ever
  // sends watermarks still binds its lane — its data, if any ever comes,
  // must use the same one.
  Lane* lane = nullptr;
  PushTicket ticket;
  USP_RETURN_NOT_OK(AdmitPush(lane_id, source, &lane, &ticket));
  USP_RETURN_NOT_OK(BindSourceToLane(lane_id, source));
  // Monotone per source; re-sends and regressions are no-ops.
  if (!lane->watermark_clocks[source].CommitBroadcast(watermark)) {
    return common::Status::OK();
  }
  return BroadcastWatermark(lane, source, watermark);
}

common::Status ShardedExecutor::PushWatermark(ExecGraph::NodeId source,
                                              int64_t watermark) {
  return PushWatermark(LaneId{0}, source, watermark);
}

common::Status ShardedExecutor::PushBatch(ExecGraph::NodeId source,
                                          const TupleBatch& batch) {
  TupleBatch copy = batch;
  return PushBatch(LaneId{0}, source, std::move(copy));
}

common::Status ShardedExecutor::PushBatch(ExecGraph::NodeId source,
                                          TupleBatch&& batch) {
  return PushBatch(LaneId{0}, source, std::move(batch));
}

common::Status ShardedExecutor::Push(ExecGraph::NodeId source, Tuple tuple) {
  TupleBatch batch;
  batch.Append(std::move(tuple));
  return PushBatch(LaneId{0}, source, std::move(batch));
}

common::Status ShardedExecutor::Finish() {
  // Serialises concurrent Finish() calls: a second caller blocks until the
  // first completes, then sees finished_ == true and the final status.
  // finished_ itself only flips after the merge, so the sink_output()
  // guards stay closed while workers drain.
  std::lock_guard<std::mutex> finish_lock(finish_mu_);
  if (finished_) return final_status_;
  // (1) Close the lanes FIRST: a racing push fails loudly with
  // FailedPrecondition from here on instead of enqueueing into rings
  // about to close.
  for (auto& lane : lanes_) {
    lane->closed.store(true);
  }
  // (1b) Wait out pushes already inside PushBatch. The workers are still
  // consuming (rings close below), so a producer blocked on a full ring
  // drains and exits; once active hits zero no acknowledged push can be
  // stranded.
  for (auto& lane : lanes_) {
    Backoff backoff;
    while (lane->active.load() != 0) backoff.Pause();
  }
  // (2) Only now close the rings; workers drain everything accepted.
  for (auto& lane : lanes_) {
    for (auto& ring : lane->rings) ring->Close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Workers are gone; flush every graph and collect the first error. The
  // shard lock is still taken: MetricsSnapshot() is documented as safe to
  // call while running, and Close() mutates operator metrics.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (final_status_.ok() && !shard->status.ok()) {
      final_status_ = shard->status;
    }
    const common::Status close_st = shard->exec->Close();
    if (final_status_.ok() && !close_st.ok()) final_status_ = close_st;
  }
  // Merge sink outputs: concatenate in shard-index order, then stable-sort
  // by timestamp. Per-shard output order is deterministic for single-lane
  // ingest, so the merged order is too, independent of how the workers
  // interleaved. An inline plan's output is taken as is, in emission
  // order — no copy, no sort buffer. (One shard behind several lanes is
  // still sorted: its emission order depends on how the worker
  // interleaved the lanes.)
  const ExecGraph& plan = shards_[0]->exec->graph();
  merged_sinks_.assign(plan.num_nodes(), TupleBatch());
  for (ExecGraph::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) != ExecGraph::NodeKind::kSink) continue;
    TupleBatch& merged = merged_sinks_[id];
    for (auto& shard : shards_) {
      merged.Concat(shard->exec->TakeSinkOutput(id));
    }
    if (RunsInline()) continue;
    std::stable_sort(
        merged.mutable_tuples().begin(), merged.mutable_tuples().end(),
        [](const Tuple& a, const Tuple& b) {
          return a.timestamp() < b.timestamp();
        });
  }
  finished_ = true;
  return final_status_;
}

const TupleBatch& ShardedExecutor::sink_output(ExecGraph::NodeId sink) const {
  assert(finished_ && "sink_output is only valid after Finish()");
  return merged_sinks_[sink];
}

TupleBatch ShardedExecutor::TakeSinkOutput(ExecGraph::NodeId sink) {
  assert(finished_ && "TakeSinkOutput is only valid after Finish()");
  return std::move(merged_sinks_[sink]);
}

std::vector<NodeMetrics> ShardedExecutor::MetricsSnapshot() const {
  std::vector<NodeMetrics> merged;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    const auto shard_metrics = shards_[i]->exec->MetricsSnapshot();
    if (i == 0) {
      merged = shard_metrics;
    } else {
      // Same plan per shard => same node numbering; merge positionally.
      for (size_t j = 0; j < merged.size(); ++j) {
        merged[j].metrics.MergeFrom(shard_metrics[j].metrics);
      }
    }
  }
  // Append one entry per source node with the ingest-side counters, so
  // backpressure (block time, queue depth) is observable per feed.
  const ExecGraph& plan = shards_[0]->exec->graph();
  for (ExecGraph::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) != ExecGraph::NodeKind::kSource) continue;
    NodeMetrics entry;
    entry.node = id;
    entry.name = plan.name(id);
    const SourceIngest& c = ingest_by_source_[id];
    entry.metrics.tuples_in = c.tuples.load(std::memory_order_relaxed);
    entry.metrics.batches_in = c.batches.load(std::memory_order_relaxed);
    entry.metrics.producer_block_seconds =
        static_cast<double>(c.blocked_ns.load(std::memory_order_relaxed)) /
        1e9;
    entry.metrics.queue_peak_depth =
        c.peak_depth.load(std::memory_order_relaxed);
    merged.push_back(std::move(entry));
  }
  return merged;
}

ShardedExecutor::KeyFn KeyByStringValue(size_t value_index) {
  return [value_index](const Tuple& t) {
    return static_cast<uint64_t>(
        std::hash<std::string>{}(t.value(value_index).AsString()));
  };
}

ShardedExecutor::KeyFn KeyByIntValue(size_t value_index) {
  return [value_index](const Tuple& t) {
    return static_cast<uint64_t>(
        std::hash<int64_t>{}(t.value(value_index).AsInt()));
  };
}

}  // namespace stream
}  // namespace usp
