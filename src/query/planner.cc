#include "query/planner.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "query/query.h"
#include "stream/pane_window.h"
#include "stream/subscription_index.h"
#include "uncertain/pane_aggregates.h"
#include "uncertain/selection.h"

namespace usp {
namespace query {

namespace {

using stream::ExecGraph;
using stream::ShardContext;
using stream::ShardedExecutor;
using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

using stream::CanonicalKeyString;
using stream::GroupKey;

stream::PanedGroupByAggregateOperator::KeyFn OperatorKeyFn(
    const LogicalPlan::Node& node) {
  if (node.group_key_fn) return node.group_key_fn;
  if (node.group_key_attr.has_value()) {
    const size_t attr = *node.group_key_attr;
    return [attr](const Tuple& t) { return GroupKey::Of(t.value(attr)); };
  }
  // Ungrouped aggregate: the whole window is one group.
  return [all = GroupKey(std::string("all"))](const Tuple&) { return all; };
}

struct ShardKeyDecision {
  ShardedExecutor::KeyFn fn;
  PlanSummary::ShardKeySource source = PlanSummary::ShardKeySource::kNone;
};

/// Physical partition key for sharded execution. The caller's override
/// wins; otherwise the key is derived from the (single) group-by so that
/// one group's tuples always land on one shard: hash the group key
/// directly when only filters precede the group-by, or replay the (pure)
/// upstream map functions at ingest when maps sit in between.
common::Result<ShardKeyDecision> DeriveShardKey(const LogicalPlan& plan) {
  if (plan.partition_key()) {
    ShardKeyDecision d;
    d.fn = plan.partition_key();
    d.source = PlanSummary::ShardKeySource::kExplicit;
    return d;
  }
  size_t num_sources = 0;
  bool has_join = false;
  std::vector<LogicalPlan::NodeId> agg_nodes;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    switch (plan.kind(id)) {
      case LogicalPlan::NodeKind::kSource:
        ++num_sources;
        break;
      case LogicalPlan::NodeKind::kJoin:
        has_join = true;
        break;
      case LogicalPlan::NodeKind::kAggregate:
        agg_nodes.push_back(id);
        break;
      default:
        break;
    }
  }
  if (has_join) {
    return common::Status::InvalidArgument(
        "cannot derive a shard key for a plan with join nodes: "
        "probabilistic matches have no exact key to co-partition both "
        "inputs on — supply PartitionBy() (asserting matching pairs "
        "co-locate) or compile with num_shards = 1");
  }
  if (agg_nodes.empty()) {
    return common::Status::InvalidArgument(
        "no group-by to derive a shard key from; stateless plans need an "
        "explicit PartitionBy() or num_shards = 1");
  }
  if (agg_nodes.size() > 1) {
    return common::Status::InvalidArgument(
        "plan has " + std::to_string(agg_nodes.size()) +
        " aggregate stages with possibly different keys; supply "
        "PartitionBy() or num_shards = 1 (cross-shard exchange is a "
        "ROADMAP item)");
  }
  if (num_sources > 1) {
    return common::Status::InvalidArgument(
        "plan has multiple sources with different tuple layouts; the "
        "derived group key cannot be applied to all of them — supply "
        "PartitionBy() or num_shards = 1");
  }
  const LogicalPlan::Node& agg = plan.node(agg_nodes[0]);
  std::function<std::string(const Tuple&)> logical_key;
  if (agg.group_key_attr.has_value()) {
    const size_t attr = *agg.group_key_attr;
    logical_key = [attr](const Tuple& t) {
      return CanonicalKeyString(t.value(attr));
    };
  } else if (agg.group_key_fn) {
    logical_key = agg.group_key_fn;
  } else {
    return common::Status::InvalidArgument(
        "ungrouped (global) aggregate cannot be hash-sharded: every tuple "
        "belongs to one group, so use num_shards = 1");
  }
  // Walk the path source -> group-by input, collecting the maps the key
  // would need replayed (source-to-aggregate order).
  std::vector<stream::MapOperator::MapFn> maps;
  LogicalPlan::NodeId cur = agg.inputs[0];
  while (plan.kind(cur) != LogicalPlan::NodeKind::kSource) {
    const LogicalPlan::Node& n = plan.node(cur);
    if (n.kind == LogicalPlan::NodeKind::kMap) {
      maps.push_back(n.map);
    } else if (n.kind != LogicalPlan::NodeKind::kFilter) {
      return common::Status::InvalidArgument(
          "cannot derive a shard key through '" + n.name +
          "'; supply PartitionBy() or num_shards = 1");
    }
    cur = n.inputs[0];
  }
  std::reverse(maps.begin(), maps.end());
  ShardKeyDecision d;
  if (maps.empty()) {
    d.fn = [logical_key](const Tuple& t) {
      return static_cast<uint64_t>(std::hash<std::string>{}(logical_key(t)));
    };
    d.source = PlanSummary::ShardKeySource::kGroupKey;
  } else {
    // Maps must be pure (same contract as the operator path); a map that
    // drops the tuple (NotFound) pins it to shard 0 — it will be dropped
    // again by the in-graph map, so the placement is irrelevant.
    d.fn = [maps, logical_key](const Tuple& t) {
      Tuple cur_tuple = t;
      for (const auto& m : maps) {
        auto r = m(cur_tuple);
        if (!r.ok()) return static_cast<uint64_t>(0);
        cur_tuple = r.MoveValueUnsafe();
      }
      return static_cast<uint64_t>(
          std::hash<std::string>{}(logical_key(cur_tuple)));
    };
    d.source = PlanSummary::ShardKeySource::kReplayedGroupKey;
  }
  return d;
}

/// Materialises one shard's ExecGraph from the logical plan. `record` is
/// true exactly once (shard 0) so the name maps and the summary are filled
/// without duplicates.
common::Status BuildGraph(const LogicalPlan& plan,
                          const ShardContext& ctx, bool record,
                          ExecGraph* graph,
                          PlanSummary* summary,
                          std::unordered_map<std::string, ExecGraph::NodeId>*
                              sources,
                          std::unordered_map<std::string, ExecGraph::NodeId>*
                              sinks,
                          const Planner::DispatchFactory* make_dispatch) {
  std::vector<ExecGraph::NodeId> phys(plan.num_nodes(),
                                      ExecGraph::kInvalidNode);
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    const LogicalPlan::Node& n = plan.node(id);
    switch (n.kind) {
      case LogicalPlan::NodeKind::kSource:
        phys[id] = graph->AddSource(n.name);
        if (record) (*sources)[n.name] = phys[id];
        break;
      case LogicalPlan::NodeKind::kFilter:
        phys[id] = graph->AddOperator(
            phys[n.inputs[0]],
            std::make_unique<stream::FilterOperator>(n.name, n.filter));
        break;
      case LogicalPlan::NodeKind::kMap:
        phys[id] = graph->AddOperator(
            phys[n.inputs[0]],
            std::make_unique<stream::MapOperator>(n.name, n.map));
        break;
      case LogicalPlan::NodeKind::kAggregate: {
        // Cross-group CF grid sharing: when this aggregate runs CF
        // inversion, turn on the shard workspace's grid cache so G groups
        // over identically-parameterised models evaluate each CfGrid once
        // (bitwise-neutral — a hit returns exactly what the miss would
        // compute), and install a probe so the operator's metrics report
        // the hit rate.
        bool share_grids = false;
        if (ctx.cf_workspace != nullptr) {
          for (const AggregateDecl& a : n.aggregates) {
            if ((a.kind == AggregateKind::kSum ||
                 a.kind == AggregateKind::kAvg) &&
                a.strategy == uncertain::SumStrategyKind::kCfInversion) {
              share_grids = true;
              break;
            }
          }
        }
        uncertain::PaneAggregateOptions popts;
        popts.workspace = ctx.cf_workspace;
        std::vector<stream::PaneAggregateSpec> specs;
        specs.reserve(n.aggregates.size());
        for (const AggregateDecl& a : n.aggregates) {
          switch (a.kind) {
            case AggregateKind::kSum:
              specs.push_back(uncertain::MakePaneSumAggregate(
                  a.output_name, a.attr_index, a.strategy, popts));
              break;
            case AggregateKind::kAvg:
              specs.push_back(uncertain::MakePaneAvgAggregate(
                  a.output_name, a.attr_index, a.strategy, popts));
              break;
            case AggregateKind::kMax:
              specs.push_back(uncertain::MakePaneMaxAggregate(
                  a.output_name, a.attr_index, a.bins, popts));
              break;
            case AggregateKind::kMin:
              specs.push_back(uncertain::MakePaneMinAggregate(
                  a.output_name, a.attr_index, a.bins, popts));
              break;
            case AggregateKind::kCount:
              specs.push_back(uncertain::MakePaneCountAggregate(a.output_name));
              break;
          }
        }
        // Accumulator footprint for the summary: output columns vs.
        // distinct partial slots (columns with equal partial signatures,
        // e.g. SUM + AVG of one attribute, share one slot).
        const size_t partial_slots = stream::CountDistinctPartialSlots(specs);
        auto op = std::make_unique<stream::PanedGroupByAggregateOperator>(
            n.name, *n.window, OperatorKeyFn(n), std::move(specs), n.having);
        if (share_grids) {
          stats::CfGridCache* cache = &ctx.cf_workspace->grid_cache;
          cache->enabled = true;
          op->set_grid_cache_probe([cache] {
            return std::make_pair(cache->hits, cache->misses);
          });
        }
        phys[id] = graph->AddOperator(phys[n.inputs[0]], std::move(op));
        if (make_dispatch != nullptr && *make_dispatch) {
          // Multiplexed plan: splice the predicate-index dispatch between
          // the shared aggregate and whatever consumes it, so every
          // result row is routed to its subscribers before the sink.
          USP_ASSIGN_OR_RETURN(std::unique_ptr<stream::Operator> dispatch_op,
                               (*make_dispatch)(ctx));
          phys[id] = graph->AddOperator(phys[id], std::move(dispatch_op));
        }
        if (record) {
          summary->aggregates.push_back({n.name});
          if (share_grids) summary->cf_grid_sharing = true;
          if (make_dispatch != nullptr && *make_dispatch) {
            summary->multiplex_agg_columns = n.aggregates.size();
            summary->multiplex_partial_slots = partial_slots;
          }
        }
        break;
      }
      case LogicalPlan::NodeKind::kJoin:
        phys[id] = graph->AddJoin(
            phys[n.inputs[0]], phys[n.inputs[1]],
            std::make_unique<stream::SlidingWindowJoin>(
                n.name, n.join_range_us, n.join_match));
        break;
      case LogicalPlan::NodeKind::kSink:
        phys[id] = graph->AddSink(phys[n.inputs[0]], n.name);
        if (record) (*sinks)[n.name] = phys[id];
        break;
    }
  }
  return common::Status::OK();
}

const TupleBatch& EmptyBatch() {
  static const TupleBatch* empty = new TupleBatch();
  return *empty;
}

}  // namespace

std::string PlanSummary::ToString() const {
  const bool runs_inline = num_shards == 1 && num_ingest_lanes == 1;
  std::ostringstream out;
  out << num_shards << " shard" << (num_shards == 1 ? "" : "s")
      << (auto_num_shards ? " [auto]" : "") << " ("
      << (runs_inline ? "inline on the caller's thread" : "worker threads")
      << ")";
  if (!auto_shard_note.empty()) {
    out << " — " << auto_shard_note;
  }
  if (!runs_inline) {
    out << ", " << num_ingest_lanes << " ingest lane"
        << (num_ingest_lanes == 1 ? "" : "s")
        << (auto_num_ingest_lanes ? " [auto]" : "");
  }
  if (watermark_period_us > 0) {
    out << ", watermarks every " << watermark_period_us << " us";
  }
  if (watermark_lateness_us > 0) {
    out << " (lateness " << watermark_lateness_us << " us)";
  }
  switch (shard_key_source) {
    case ShardKeySource::kNone:
      break;
    case ShardKeySource::kExplicit:
      out << ", partition key: caller override";
      break;
    case ShardKeySource::kGroupKey:
      out << ", partition key: hashed group key";
      break;
    case ShardKeySource::kReplayedGroupKey:
      out << ", partition key: group key via replayed maps";
      break;
  }
  if (cf_grid_sharing) out << "; cross-group CF grid sharing";
  if (!runs_inline) {
    out << "; thread pinning " << (pin_threads ? "on" : "off");
  }
  for (const auto& [filter_name, map_name] : pushed_filters) {
    out << "; filter '" << filter_name << "' pushed below map '" << map_name
        << "'";
  }
  if (multiplexed) {
    out << "; multiplexed: " << subscriptions_at_compile
        << " subscription(s) on one shared plan, " << multiplex_agg_columns
        << " aggregate column(s) in " << multiplex_partial_slots
        << " partial slot(s), predicate-index dispatch";
  }
  return out.str();
}

stream::ExecGraph::NodeId CompiledQuery::source(
    const std::string& name) const {
  const auto it = sources_.find(name);
  return it == sources_.end() ? ExecGraph::kInvalidNode : it->second;
}

stream::ExecGraph::NodeId CompiledQuery::sink(const std::string& name) const {
  const auto it = sinks_.find(name);
  return it == sinks_.end() ? ExecGraph::kInvalidNode : it->second;
}

common::Status CompiledQuery::PushBatch(stream::ExecGraph::NodeId source,
                                        const stream::TupleBatch& batch) {
  TupleBatch copy = batch;
  return PushBatch(source, std::move(copy));
}

size_t CompiledQuery::ingest_lane(stream::ExecGraph::NodeId source) const {
  const auto it = lane_of_source_.find(source);
  return it == lane_of_source_.end() ? 0 : it->second;
}

common::Status CompiledQuery::CheckArity(
    stream::ExecGraph::NodeId source, const stream::TupleBatch& batch) const {
  const size_t arity =
      source < declared_arity_.size() ? declared_arity_[source] : 0;
  if (arity == 0) return common::Status::OK();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].num_values() == arity) continue;
    std::string name = std::to_string(source);
    for (const auto& [n, id] : sources_) {
      if (id == source) name = n;
    }
    return common::Status::InvalidArgument(
        "source '" + name + "' declares arity " + std::to_string(arity) +
        " but tuple " + std::to_string(i) + " of the push has " +
        std::to_string(batch[i].num_values()) +
        " values; nothing of this push was ingested");
  }
  return common::Status::OK();
}

common::Status CompiledQuery::PushBatch(stream::ExecGraph::NodeId source,
                                        stream::TupleBatch&& batch) {
  USP_RETURN_NOT_OK(CheckArity(source, batch));
  return executor_->PushBatch(ingest_lane(source), source, std::move(batch));
}

common::Status CompiledQuery::PushWatermark(stream::ExecGraph::NodeId source,
                                            int64_t watermark) {
  return executor_->PushWatermark(ingest_lane(source), source, watermark);
}

common::Status CompiledQuery::Finish() {
  finished_ = true;
  return executor_->Finish();
}

const stream::TupleBatch& CompiledQuery::Result(
    stream::ExecGraph::NodeId sink) const {
  // The merged output only exists after Finish().
  if (sink == ExecGraph::kInvalidNode || !finished_) return EmptyBatch();
  return executor_->sink_output(sink);
}

const stream::TupleBatch& CompiledQuery::Result(
    const std::string& name) const {
  return Result(sink(name));
}

stream::TupleBatch CompiledQuery::TakeResult(stream::ExecGraph::NodeId sink) {
  if (sink == ExecGraph::kInvalidNode || !finished_) return TupleBatch();
  return executor_->TakeSinkOutput(sink);
}

std::vector<stream::NodeMetrics> CompiledQuery::MetricsSnapshot() const {
  return executor_->MetricsSnapshot();
}

common::Result<std::unique_ptr<CompiledQuery>> Planner::Compile(
    LogicalPlan plan, const PlannerOptions& options) {
  return CompileImpl(std::move(plan), options, /*make_dispatch=*/nullptr);
}

common::Result<std::unique_ptr<CompiledQuery>> Planner::CompileImpl(
    LogicalPlan plan, const PlannerOptions& options,
    const DispatchFactory* make_dispatch) {
  USP_RETURN_NOT_OK(plan.Validate());
  std::unique_ptr<CompiledQuery> compiled(new CompiledQuery());
  PlanSummary& summary = compiled->summary_;
  CompiledQuery* raw = compiled.get();

  // Logical rewrite first: push declared-read filters below
  // preserved-prefix maps so the (often expensive) map runs only on
  // surviving tuples. Everything downstream — key derivation included —
  // sees the rewritten plan.
  plan.PushFiltersBelowMaps(&summary.pushed_filters);

  size_t num_sources = 0;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) == LogicalPlan::NodeKind::kSource) ++num_sources;
  }

  // --- resolve the watermark broadcast period ---------------------------
  // A quarter of the smallest window slide / join range keeps several
  // watermarks per window on every shard (timely closure, bounded join
  // buffers) at negligible signalling cost. Plans with no event-time
  // state have nothing to consume the signal and get no broadcast.
  int64_t min_span = INT64_MAX;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    const LogicalPlan::Node& n = plan.node(id);
    if (n.kind == LogicalPlan::NodeKind::kAggregate && n.window) {
      min_span = std::min(min_span, n.window->slide_us);
    } else if (n.kind == LogicalPlan::NodeKind::kJoin &&
               n.join_range_us > 0) {
      min_span = std::min(min_span, n.join_range_us);
    }
  }
  summary.watermark_period_us =
      min_span == INT64_MAX ? 0 : std::max<int64_t>(1, min_span / 4);
  summary.watermark_lateness_us = options.watermark_lateness_us;

  // Asked only when a decision needs it: hardware_concurrency() may read
  // sysfs, which would dominate compiling a small plan.
  const auto hardware_threads = [&options]() -> size_t {
    return options.hardware_concurrency_override > 0
               ? options.hardware_concurrency_override
               : std::max(1u, std::thread::hardware_concurrency());
  };

  // --- resolve num_shards -------------------------------------------------
  // Auto: as many shards as the machine has cores (capped) when a
  // partition key exists; plans with no derivable key degrade to one
  // shard with the reason recorded, instead of failing a default compile.
  // Explicit values keep the strict behaviour: N > 1 without a key fails.
  summary.auto_num_shards = options.num_shards == PlannerOptions::kAutoShards;
  size_t num_shards = options.num_shards;
  ShardKeyDecision key;
  bool have_key = false;
  if (summary.auto_num_shards) {
    num_shards = std::min(hardware_threads(), PlannerOptions::kMaxAutoShards);
    if (num_shards > 1) {
      auto key_or = DeriveShardKey(plan);
      if (key_or.ok()) {
        key = key_or.MoveValueUnsafe();
        have_key = true;
      } else {
        summary.auto_shard_note =
            "auto-sharding fell back to 1 shard: " +
            key_or.status().message();
        num_shards = 1;
      }
    }
  } else if (num_shards > 1) {
    USP_ASSIGN_OR_RETURN(key, DeriveShardKey(plan));
    have_key = true;
  }
  summary.num_shards = num_shards;

  // --- resolve ingest lanes ----------------------------------------------
  // Auto: one lane per source on sharded plans (each sensor feed pushes
  // from its own thread), one lane otherwise — a single-shard,
  // single-lane plan runs inline on the caller's thread and keeps its
  // exact emission order.
  summary.auto_num_ingest_lanes =
      options.num_ingest_lanes == PlannerOptions::kAutoLanes;
  const size_t num_lanes = summary.auto_num_ingest_lanes
                               ? (num_shards > 1 ? num_sources : 1)
                               : options.num_ingest_lanes;
  // Multi-lane ingest only keeps each source's own arrival order, and join
  // output regresses in timestamp under cross-lane skew. Neither matters:
  // windows close and join buffers expire only on watermarks, and a
  // join's output is stamped at the max of a pair whose probing tuple sat
  // at or above its own side's watermark, so it never falls below the
  // min watermark the join forwards — any number of lanes is safe.
  summary.num_ingest_lanes = num_lanes;
  summary.shard_key_source = key.source;

  // One shard behind one lane runs inline (ShardedExecutor's inline
  // rule). Pinning places a ring hop such a plan does not have, so it
  // is not pinned.
  const bool runs_inline = num_shards == 1 && num_lanes == 1;

  // --- resolve thread pinning --------------------------------------------
  // Pin shard workers and ingest lanes to distinct cores when the machine
  // has enough of them that placement matters (>= 4 hardware threads).
  // On smaller machines pinning to the few shared cores only fights the
  // OS scheduler.
  summary.pin_threads = !runs_inline && hardware_threads() >= 4;
  ShardedExecutor::Options sopts;
  sopts.num_shards = num_shards;
  sopts.num_ingest_lanes = num_lanes;
  sopts.watermark_period_us = summary.watermark_period_us;
  sopts.watermark_lateness_us = options.watermark_lateness_us;
  sopts.pin_threads = summary.pin_threads;
  if (!have_key) {
    // Single shard: partitioning is a no-op, but the executor still
    // requires a key function.
    key.fn = [](const Tuple&) { return uint64_t{0}; };
  }
  auto exec_or = ShardedExecutor::Create(
      sopts, std::move(key.fn),
      [&plan, raw, make_dispatch](ExecGraph* g, const ShardContext& ctx) {
        return BuildGraph(plan, ctx, /*record=*/ctx.shard_index == 0, g,
                          &raw->summary_, &raw->sources_, &raw->sinks_,
                          make_dispatch);
      });
  USP_RETURN_NOT_OK(exec_or.status());
  compiled->executor_ = exec_or.MoveValueUnsafe();
  // Route each source to its lane, round-robin in declaration order (the
  // identity mapping when lanes were auto-chosen as one per source). With
  // one lane every source stays on lane 0, ingest_lane()'s default. Record
  // each source's declared arity for the ingest check.
  size_t source_index = 0;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) != LogicalPlan::NodeKind::kSource) continue;
    const auto it = compiled->sources_.find(plan.node(id).name);
    if (it != compiled->sources_.end()) {
      if (num_lanes > 1) {
        compiled->lane_of_source_[it->second] = source_index % num_lanes;
      }
      std::vector<size_t>& arity = compiled->declared_arity_;
      if (arity.size() <= it->second) arity.resize(it->second + 1, 0);
      arity[it->second] = plan.node(id).declared_arity;
    }
    ++source_index;
  }
  return compiled;
}

common::Result<std::unique_ptr<MultiplexedQuery>> Planner::CompileMultiplexed(
    const LogicalPlan& templ, std::shared_ptr<SubscriptionSet> subscriptions,
    const PlannerOptions& options) {
  if (subscriptions == nullptr) {
    return common::Status::InvalidArgument(
        "CompileMultiplexed needs a SubscriptionSet (it may be empty; "
        "subscriptions can be added after compilation)");
  }
  if (subscriptions->bound()) {
    return common::Status::InvalidArgument(
        "SubscriptionSet is already bound to a compiled plan; use one set "
        "per CompileMultiplexed call");
  }
  USP_RETURN_NOT_OK(templ.Validate());

  // Template shape: the sharing argument needs exactly one grouped,
  // windowed aggregate feeding one sink from one source — every
  // subscription then reads the same shared pane/CF state and differs
  // only in dispatch constants. Richer templates (joins, fan-out) are
  // per-query plans; compile them with Compile().
  size_t num_sources = 0, num_sinks = 0, num_joins = 0;
  std::vector<LogicalPlan::NodeId> agg_nodes;
  for (LogicalPlan::NodeId id = 0; id < templ.num_nodes(); ++id) {
    switch (templ.kind(id)) {
      case LogicalPlan::NodeKind::kSource:
        ++num_sources;
        break;
      case LogicalPlan::NodeKind::kSink:
        ++num_sinks;
        break;
      case LogicalPlan::NodeKind::kJoin:
        ++num_joins;
        break;
      case LogicalPlan::NodeKind::kAggregate:
        agg_nodes.push_back(id);
        break;
      default:
        break;
    }
  }
  if (num_sources != 1 || num_sinks != 1 || num_joins != 0 ||
      agg_nodes.size() != 1) {
    return common::Status::InvalidArgument(
        "multiplexed template must be source -> [filters/maps] -> one "
        "windowed group-by aggregate -> one sink (got " +
        std::to_string(num_sources) + " source(s), " +
        std::to_string(agg_nodes.size()) + " aggregate(s), " +
        std::to_string(num_joins) + " join(s), " + std::to_string(num_sinks) +
        " sink(s))");
  }
  const LogicalPlan::Node& agg = templ.node(agg_nodes[0]);
  if (!agg.group_key_attr.has_value() && !agg.group_key_fn) {
    return common::Status::InvalidArgument(
        "multiplexed template aggregate '" + agg.name +
        "' has no group key; subscription scopes select group keys, so an "
        "ungrouped aggregate has nothing to dispatch on");
  }
  if (templ.partition_key()) {
    return common::Status::InvalidArgument(
        "multiplexed templates cannot use PartitionBy(): the subscription "
        "table must partition exactly like the data, so the planner owns "
        "placement (drop the override; the group key derives it)");
  }

  // The factory runs once per shard while that shard's graph is built
  // (sequentially, on the compiling thread). The first call learns the
  // final shard count from the ShardContext and materialises the table
  // with one partition per shard — the same modulo placement the derived
  // ingest key uses, so a shard's dispatch partition holds exactly the
  // exact-key subscriptions whose groups that shard aggregates.
  const std::string dispatch_name = agg.name + "_dispatch";
  DispatchFactory make_dispatch =
      [subscriptions, dispatch_name,
       prob = uncertain::MakeSubscriptionProbFn()](const ShardContext& ctx)
      -> common::Result<std::unique_ptr<stream::Operator>> {
    if (!subscriptions->bound()) {
      USP_RETURN_NOT_OK(subscriptions->Bind(ctx.num_shards));
    }
    return std::unique_ptr<stream::Operator>(
        std::make_unique<stream::SubscriptionDispatchOperator>(
            dispatch_name, subscriptions->table(), ctx.shard_index, prob));
  };

  USP_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> compiled,
                       CompileImpl(templ, options, &make_dispatch));
  compiled->summary_.multiplexed = true;
  compiled->summary_.subscriptions_at_compile = subscriptions->size();

  std::unique_ptr<MultiplexedQuery> mq(new MultiplexedQuery());
  mq->compiled_ = std::move(compiled);
  mq->subscriptions_ = std::move(subscriptions);
  return mq;
}

stream::ExecGraph::NodeId MultiplexedQuery::source(
    const std::string& name) const {
  return compiled_->source(name);
}

stream::ExecGraph::NodeId MultiplexedQuery::sink(
    const std::string& name) const {
  return compiled_->sink(name);
}

size_t MultiplexedQuery::ingest_lane(stream::ExecGraph::NodeId source) const {
  return compiled_->ingest_lane(source);
}

common::Status MultiplexedQuery::PushBatch(stream::ExecGraph::NodeId source,
                                           const stream::TupleBatch& batch) {
  return compiled_->PushBatch(source, batch);
}

common::Status MultiplexedQuery::PushBatch(stream::ExecGraph::NodeId source,
                                           stream::TupleBatch&& batch) {
  return compiled_->PushBatch(source, std::move(batch));
}

common::Status MultiplexedQuery::PushWatermark(
    stream::ExecGraph::NodeId source, int64_t watermark) {
  return compiled_->PushWatermark(source, watermark);
}

common::Status MultiplexedQuery::Finish() { return compiled_->Finish(); }

const stream::TupleBatch& MultiplexedQuery::Result(
    stream::ExecGraph::NodeId sink) const {
  return compiled_->Result(sink);
}

const stream::TupleBatch& MultiplexedQuery::Result(
    const std::string& name) const {
  return compiled_->Result(name);
}

stream::TupleBatch MultiplexedQuery::TakeResult(
    stream::ExecGraph::NodeId sink) {
  return compiled_->TakeResult(sink);
}

std::vector<stream::NodeMetrics> MultiplexedQuery::MetricsSnapshot() const {
  return compiled_->MetricsSnapshot();
}

const PlanSummary& MultiplexedQuery::summary() const {
  return compiled_->summary();
}

size_t MultiplexedQuery::num_shards() const { return compiled_->num_shards(); }

common::Result<std::unique_ptr<CompiledQuery>> Query::Compile() const {
  return Compile(PlannerOptions{});
}

common::Result<std::unique_ptr<CompiledQuery>> Query::Compile(
    const PlannerOptions& options) const {
  USP_ASSIGN_OR_RETURN(LogicalPlan plan, Build());
  return Planner::Compile(std::move(plan), options);
}

common::Result<std::unique_ptr<MultiplexedQuery>> Query::CompileMultiplexed(
    std::shared_ptr<SubscriptionSet> subscriptions) const {
  return CompileMultiplexed(std::move(subscriptions), PlannerOptions{});
}

common::Result<std::unique_ptr<MultiplexedQuery>> Query::CompileMultiplexed(
    std::shared_ptr<SubscriptionSet> subscriptions,
    const PlannerOptions& options) const {
  USP_ASSIGN_OR_RETURN(LogicalPlan plan, Build());
  return Planner::CompileMultiplexed(plan, std::move(subscriptions), options);
}

}  // namespace query
}  // namespace usp
