// The physical half of the query layer: Planner::Compile turns a validated
// LogicalPlan into the existing physical runtime and makes every physical
// choice the repo's examples used to hand-wire —
//
//   * aggregation operator: every windowed aggregate compiles to
//     PanedGroupByAggregateOperator. Overlapping windows (slide < size)
//     pay each tuple's accumulation once per pane instead of once per
//     window; tumbling windows are one pane per window and take the exact
//     per-window kernels, so their results equal the reference
//     GroupByAggregateOperator bitwise (tested);
//   * aggregate scratch: each shard's pane partials use that shard's
//     CfInversionWorkspace (ShardContext::cf_workspace), so aggregate
//     state never crosses threads and the per-window FFT hot loop is
//     allocation-free;
//   * execution backend: always a ShardedExecutor, which runs a 1-shard,
//     1-lane plan inline on the caller's thread (no worker, no ring);
//   * ingest partition key (sharded only): the caller's PartitionBy()
//     override if present, else derived from the group-by key — hashed
//     directly when only filters sit between the source and the group-by,
//     or by replaying the intermediate (pure) map functions on the ingest
//     thread when maps do. Underivable cases (joins with no override,
//     ungrouped aggregates, multiple group-bys) fail Compile() with an
//     actionable Status instead of silently mis-partitioning — unless the
//     shard count itself was auto, in which case the planner falls back
//     to one shard and says why in the summary;
//   * physical auto-tuning: shard count from
//     std::thread::hardware_concurrency() and one ingest lane per source
//     on sharded plans so multi-sensor feeds push from their own threads
//     — each overridable in PlannerOptions. Shard workers and ingest
//     lanes are pinned to cores when the machine has >= 4 hardware
//     threads; plans that run inline are not pinned, as pinning places a
//     ring hop those plans do not have. Ingest forwards the caller's
//     batches on every plan: the push size is the unit each shard sees;
//   * logical rewrites: filters are pushed below maps whenever the
//     filter's declared read set lies inside the map's preserved prefix
//     (an opaque filter — no declared reads — stays where it is);
//   * CF grid sharing: a plan with a CF-inversion SUM/AVG turns on its
//     shards' CF grid caches (stats::CfGridCache), so groups over
//     identically-parameterised models evaluate each grid once.
//
// The result is a CompiledQuery: an ingest/finish/result facade over the
// executor, plus a PlanSummary describing the decisions for logs, tests,
// and examples.

#ifndef USP_QUERY_PLANNER_H_
#define USP_QUERY_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/logical_plan.h"
#include "query/subscription.h"
#include "stream/exec_graph.h"
#include "stream/sharded_executor.h"

namespace usp {
namespace query {

struct PlannerOptions {
  /// Auto markers: the planner picks the value from the machine and the
  /// plan, reports it in PlanSummary, and any explicit value still wins.
  static constexpr size_t kAutoShards = 0;
  static constexpr size_t kAutoLanes = 0;

  /// Worker shards. kAutoShards (the default) derives the count from
  /// std::thread::hardware_concurrency() (capped at kMaxAutoShards) when
  /// the plan's partition key is derivable, falling back to 1 — with the
  /// reason recorded in PlanSummary — when it is not (joins, ungrouped
  /// aggregates). One shard behind one ingest lane runs inline on the
  /// caller's thread — each push processes its batch before returning —
  /// while every other shape gets worker threads; an explicit N > 1 fails
  /// Compile() if no key can be derived or supplied.
  size_t num_shards = kAutoShards;
  /// Parallel ingest lanes (single producer thread each). kAutoLanes
  /// gives every source its own lane when the plan is sharded — radar A,
  /// radar B, and the RFID feed each push from their own thread — and 1
  /// lane otherwise. Sources are assigned round-robin in declaration
  /// order when there are fewer lanes than sources.
  size_t num_ingest_lanes = kAutoLanes;

  /// Event-time lateness: a source's watermark is its max ingested
  /// timestamp minus this ("no future tuple below max - L"). Watermarks
  /// are the runtime's progress signal: every ingested slice carries its
  /// source's, fan-in nodes take the min of their inputs, windowed
  /// aggregates close windows by it, and join buffers expire by it —
  /// which is what keeps a join bounded when one input goes silent
  /// (CompiledQuery::PushWatermark covers the fully idle case). A window
  /// therefore still accepts tuples up to L behind the newest one; a
  /// tuple that arrives after all of its windows closed is dropped and
  /// counted in the aggregate's OperatorMetrics::late_dropped; a join
  /// drops and counts a tuple below its own side's watermark the same
  /// way. 0 (the default) is exact for in-order sources and closes each
  /// window as soon as data passes it. A negative value would run the
  /// watermark ahead of the data and fails Compile().
  int64_t watermark_lateness_us = 0;

  /// Auto shard counts are capped here: past ~8 shards ingest
  /// partitioning saturates before the workers do.
  static constexpr size_t kMaxAutoShards = 8;
  /// Test hook: pretend the machine has this many cores (0 = ask the OS).
  size_t hardware_concurrency_override = 0;
};

/// What the planner decided, for inspection. Every auto-tuned value is
/// reported here alongside whether it was chosen or explicitly supplied.
struct PlanSummary {
  size_t num_shards = 1;
  bool auto_num_shards = false;
  /// Why an auto shard choice fell back to 1 (e.g. underivable key);
  /// empty when it did not.
  std::string auto_shard_note;

  size_t num_ingest_lanes = 1;
  bool auto_num_ingest_lanes = false;

  /// Always 0: ingest forwards the caller's batches and has no re-batching
  /// target. Kept only because the perfbench workloads still read it for
  /// their `stream.batch_target` metric; goes with that metric.
  size_t target_batch_size = 0;

  enum class ShardKeySource {
    kNone,              ///< single shard, no partitioning
    kExplicit,          ///< caller's PartitionBy() override
    kGroupKey,          ///< hash of the group key, evaluated at ingest
    kReplayedGroupKey,  ///< group key after replaying upstream maps
  };
  ShardKeySource shard_key_source = ShardKeySource::kNone;

  /// Watermark broadcast period, derived from the plan (a quarter of the
  /// smallest window slide / join range; 0 when the plan has no
  /// event-time state), and the lateness in force.
  int64_t watermark_period_us = 0;
  int64_t watermark_lateness_us = 0;

  /// The plan's windowed aggregate nodes, in plan order (each compiled to
  /// PanedGroupByAggregateOperator).
  struct AggregateChoice {
    std::string node_name;
  };
  std::vector<AggregateChoice> aggregates;

  /// Cross-group CF grid sharing is live (the plan has a CF-inversion
  /// SUM/AVG). Hit/miss counts surface in the aggregate node's
  /// OperatorMetrics.
  bool cf_grid_sharing = false;

  /// Shard workers / ingest lanes are pinned to cores (plans with worker
  /// threads, on machines with >= 4 hardware threads).
  bool pin_threads = false;

  /// Filters the planner pushed below maps: (filter_name, map_name).
  std::vector<std::pair<std::string, std::string>> pushed_filters;

  /// Standing-query multiplexing (Planner::CompileMultiplexed): how many
  /// subscriptions the shared plan served at compile time, and the
  /// state-sharing decision for the aggregate stage — m output columns
  /// backed by s distinct accumulator slots (s < m when e.g.
  /// SUM and AVG of one attribute share a partial). Zeros on ordinary
  /// Compile() plans.
  bool multiplexed = false;
  size_t subscriptions_at_compile = 0;
  size_t multiplex_agg_columns = 0;
  size_t multiplex_partial_slots = 0;

  std::string ToString() const;
};

/// \brief A compiled, runnable physical plan.
///
/// Push batches at sources (ids via source()), call Finish() exactly once
/// after the last push, then read per-sink results. One ShardedExecutor
/// runs every plan; a 1-shard, 1-lane plan runs inline on the pushing
/// thread and keeps its emission order, any other plan merges by
/// timestamp (result sets are shard-count-independent, equal-timestamp
/// tie order is not).
class CompiledQuery {
 public:
  /// Source/sink handle by the name declared in the logical plan;
  /// kInvalidNode if absent.
  stream::ExecGraph::NodeId source(const std::string& name) const;
  stream::ExecGraph::NodeId sink(const std::string& name) const;

  /// Ingest lane a source is routed through. Pushes for sources on
  /// DIFFERENT lanes may run concurrently from different threads (the
  /// multi-producer contract); pushes for one source — or two sources
  /// sharing a lane — must be externally serialised. One-lane plans
  /// report lane 0 for every source.
  size_t ingest_lane(stream::ExecGraph::NodeId source) const;

  /// Ingest a batch at a source (a single tuple is a batch of one). When
  /// the source declares its arity, a push holding a tuple of another
  /// arity is refused whole with InvalidArgument before any of it is
  /// ingested, so the stream continues as if it had not been made.
  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           const stream::TupleBatch& batch);
  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           stream::TupleBatch&& batch);
  /// Event-time progress for an IDLE source: promises every future tuple
  /// pushed at `source` has timestamp >= watermark, letting windows close
  /// and the peer side of a join expire while this feed is silent (a
  /// sensor outage stops data, not time). Live sources need no explicit
  /// calls — every ingested slice carries its source's watermark (see
  /// PlannerOptions::watermark_lateness_us). Same
  /// threading contract as PushBatch for the same source; monotonic per
  /// source (regressions are ignored).
  common::Status PushWatermark(stream::ExecGraph::NodeId source,
                               int64_t watermark);

  /// Always 0: ingest forwards the caller's batches and has no re-batching
  /// target. Kept only because the perfbench workloads still read it for
  /// their `stream.batch_target` metric; goes with that metric.
  size_t current_target_batch_size() const { return 0; }

  /// End-of-stream: flush windows/joins (and join + drain the shard
  /// workers, if any). Idempotent; returns the first error any part of
  /// the plan hit.
  common::Status Finish();

  /// Accumulated output of a sink, by id or by name. Complete only after
  /// Finish().
  const stream::TupleBatch& Result(stream::ExecGraph::NodeId sink) const;
  const stream::TupleBatch& Result(const std::string& name) const;
  stream::TupleBatch TakeResult(stream::ExecGraph::NodeId sink);

  /// Per-node metrics merged across shards, plus one ingest-counter entry
  /// per source.
  std::vector<stream::NodeMetrics> MetricsSnapshot() const;

  const PlanSummary& summary() const { return summary_; }
  size_t num_shards() const { return summary_.num_shards; }

 private:
  friend class Planner;
  CompiledQuery() = default;

  /// InvalidArgument naming the source and the first tuple whose arity
  /// differs from the source's declared one; OK when it declares none.
  common::Status CheckArity(stream::ExecGraph::NodeId source,
                            const stream::TupleBatch& batch) const;

  PlanSummary summary_;
  std::unordered_map<std::string, stream::ExecGraph::NodeId> sources_;
  std::unordered_map<std::string, stream::ExecGraph::NodeId> sinks_;
  /// Ingest lane per source node id.
  std::unordered_map<stream::ExecGraph::NodeId, size_t> lane_of_source_;
  /// Declared arity per source node id; 0 = undeclared (not checked).
  std::vector<size_t> declared_arity_;
  std::unique_ptr<stream::ShardedExecutor> executor_;
  /// Set by Finish(); results exist only after it.
  bool finished_ = false;
};

/// \brief Many standing queries compiled onto ONE physical plan.
///
/// Produced by Planner::CompileMultiplexed from a template LogicalPlan
/// (source → [filters/maps] → window/group-by/aggregate → sink) and a
/// SubscriptionSet whose entries differ only in group-key scope and
/// HAVING threshold. The ingest-side API mirrors CompiledQuery — there is
/// exactly one source scan, one pane/window buffer, and one CF grid per
/// aggregate signature regardless of the subscription count. Each result
/// row the shared aggregate emits is routed by the predicate-index
/// dispatch operator: the sink accumulates tagged rows
/// [group_key, agg_1..agg_m, subscription_id] (ascending id per source
/// row), and per-subscription OnMatch callbacks fire as windows close.
/// Subscribe/Unsubscribe through subscriptions() stays legal while
/// streaming.
class MultiplexedQuery {
 public:
  stream::ExecGraph::NodeId source(const std::string& name) const;
  stream::ExecGraph::NodeId sink(const std::string& name) const;
  size_t ingest_lane(stream::ExecGraph::NodeId source) const;

  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           const stream::TupleBatch& batch);
  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           stream::TupleBatch&& batch);
  common::Status PushWatermark(stream::ExecGraph::NodeId source,
                               int64_t watermark);
  common::Status Finish();

  const stream::TupleBatch& Result(stream::ExecGraph::NodeId sink) const;
  const stream::TupleBatch& Result(const std::string& name) const;
  stream::TupleBatch TakeResult(stream::ExecGraph::NodeId sink);

  std::vector<stream::NodeMetrics> MetricsSnapshot() const;

  const PlanSummary& summary() const;
  size_t num_shards() const;

  /// The live registry this plan serves; mid-stream Subscribe/Unsubscribe
  /// take effect on the next window the dispatch routes.
  SubscriptionSet& subscriptions() { return *subscriptions_; }
  const std::shared_ptr<SubscriptionSet>& subscription_set() const {
    return subscriptions_;
  }

 private:
  friend class Planner;
  MultiplexedQuery() = default;

  std::unique_ptr<CompiledQuery> compiled_;
  std::shared_ptr<SubscriptionSet> subscriptions_;
};

class Planner {
 public:
  /// Validates `plan` and compiles it. Taken by value (closures are
  /// shared): move a plan in to skip the copy the planner's rewrites need.
  /// It does not need to outlive the result.
  static common::Result<std::unique_ptr<CompiledQuery>> Compile(
      LogicalPlan plan, const PlannerOptions& options = {});

  /// Compiles `templ` once and binds `subscriptions` to it (the set must
  /// be fresh — one set per call). The template must be the multiplexable
  /// shape: exactly one source, one grouped windowed aggregate, one sink,
  /// no joins, and no explicit PartitionBy (the planner owns placement so
  /// the subscription table partitions exactly like the data). All
  /// physical planning (sharding, lanes, watermarks, aggregate scratch) is
  /// inherited from Compile; the per-shard dispatch operator is spliced
  /// between the aggregate and the sink.
  static common::Result<std::unique_ptr<MultiplexedQuery>> CompileMultiplexed(
      const LogicalPlan& templ, std::shared_ptr<SubscriptionSet> subscriptions,
      const PlannerOptions& options = {});

  /// Per-shard dispatch-operator factory threaded through graph building
  /// (an implementation detail of CompileMultiplexed; public only so the
  /// internal build helper can name the type).
  using DispatchFactory =
      std::function<common::Result<std::unique_ptr<stream::Operator>>(
          const stream::ShardContext&)>;

 private:
  static common::Result<std::unique_ptr<CompiledQuery>> CompileImpl(
      LogicalPlan plan, const PlannerOptions& options,
      const DispatchFactory* make_dispatch);
};

}  // namespace query
}  // namespace usp

#endif  // USP_QUERY_PLANNER_H_
