// Fluent builder for LogicalPlans — the declarative front door of the
// runtime. The paper's Q1 reads almost verbatim:
//
//   auto q1 = Query::From("rfid_stream", 3)
//                 .Map("annotate", AnnotateAreaAndWeight(), 5)
//                 .Window(stream::WindowSpec::Tumbling(5'000'000))
//                 .GroupBy(3)                       // R2.area
//                 .Sum("total_weight", 4,           // sum(R2.weight)
//                      uncertain::SumStrategyKind::kCfApprox)
//                 .Having(uncertain::MakeHavingProbGreater(1, 200.0, 0.5))
//                 .Sink("alerts");
//   auto exec = q1.Compile({.num_shards = 4});      // planner picks the rest
//
// Query values are lightweight cursors into a shared plan under
// construction: copying a Query and extending both copies creates fan-out
// (two branches reading one source), and Join() merges two builders into
// one fan-in plan. Window/GroupBy/Aggregate/Having accumulate one pending
// aggregate stage that is sealed into a LogicalPlan node by the next
// non-aggregate step (Sink, Filter, Map, Join, or Build).
//
// Builder misuse (GroupBy after Aggregate, extending past a Sink, Having
// without an aggregate, ...) cannot return a Status from a fluent chain,
// so errors latch into the builder and surface from Build()/Compile() —
// one failure report per plan, at the same place physical planning errors
// appear.

#ifndef USP_QUERY_QUERY_H_
#define USP_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <utility>

#include "query/expr.h"
#include "query/logical_plan.h"

namespace usp {
namespace query {

struct PlannerOptions;
class CompiledQuery;
class MultiplexedQuery;
class SubscriptionSet;

class Query {
 public:
  /// Starts a plan at a named external source. `arity` (optional) declares
  /// how many attributes the source's tuples carry, enabling compile-time
  /// validation of attribute references downstream; 0 skips those checks.
  static Query From(std::string source_name, size_t arity = 0);

  /// Selection on a caller predicate (certain attributes or probability
  /// thresholds; see uncertain::PredicateProbability for the latter).
  Query Filter(std::string name, stream::FilterOperator::Predicate pred) const;
  /// Same, declaring the attribute indices the predicate reads. The
  /// declaration is what lets the planner push the filter below an
  /// upstream Map whose preserved prefix covers every read attribute, so
  /// the map runs only on surviving tuples.
  Query Filter(std::string name, stream::FilterOperator::Predicate pred,
               std::vector<size_t> reads_attrs) const;
  /// Comparison-helper form: `q.Filter("hot", Attr(1) > 30.0)`. The read
  /// set ({attr_index}) is derived from the predicate, so the planner's
  /// filter pushdown applies without a hand-declared reads_attrs.
  Query Filter(std::string name, const ComparePredicate& pred) const;

  /// Projection / derived attributes. `output_arity` (optional) declares
  /// the transformed tuple width for downstream validation; 0 = unknown.
  /// `preserved_prefix` (optional) declares that input attributes
  /// [0, preserved_prefix) pass through unchanged at the same indices —
  /// the usual annotate-by-appending shape — which enables the planner's
  /// filter pushdown for filters that read only those attributes.
  Query Map(std::string name, stream::MapOperator::MapFn fn,
            size_t output_arity = 0, size_t preserved_prefix = 0) const;

  /// Opens a pending aggregate stage over `spec` windows.
  Query Window(stream::WindowSpec spec) const;

  /// Groups the pending stage by the given attribute (declarative — lets
  /// the planner derive the shard partition key) or by a custom key
  /// function. Must precede Aggregate()/Sum()/...; omitting GroupBy
  /// aggregates the whole window as one group.
  Query GroupBy(size_t key_attr) const;
  Query GroupBy(stream::GroupByAggregateOperator::KeyFn key_fn) const;

  /// Appends an aggregate column to the pending stage. For kSum/kAvg the
  /// `strategy` picks the Table 2 algorithm; the planner owns the physical
  /// realisation.
  Query Aggregate(AggregateDecl decl) const;
  Query Sum(std::string output_name, size_t attr_index,
            uncertain::SumStrategyKind strategy =
                uncertain::SumStrategyKind::kClt) const;
  Query Avg(std::string output_name, size_t attr_index,
            uncertain::SumStrategyKind strategy =
                uncertain::SumStrategyKind::kClt) const;
  Query Max(std::string output_name, size_t attr_index,
            size_t bins = 256) const;
  Query Min(std::string output_name, size_t attr_index,
            size_t bins = 256) const;
  Query Count(std::string output_name) const;

  /// HAVING filter over the pending stage's output rows
  /// [group_key, agg_1..agg_m].
  Query Having(stream::GroupByAggregateOperator::HavingFn having) const;

  /// Fan-in: symmetric sliding-window join of this stream (left) with
  /// `right` within `range_us`. `right` may come from the same From()
  /// chain (self-fan-out) or a separate builder (its nodes are copied in;
  /// do not keep extending `right` afterwards — it will not affect the
  /// joined plan).
  Query Join(const Query& right, int64_t range_us,
             stream::SlidingWindowJoin::MatchFn match,
             std::string name) const;

  /// Terminal collection point. The returned cursor only accepts Build(),
  /// Compile(), and PartitionBy(); branch before Sink() for fan-out.
  Query Sink(std::string name) const;

  /// Physical override: ingest partition key for sharded execution. When
  /// absent the planner derives the key from the group-by keys (replaying
  /// upstream maps if needed). Plan-wide; allowed at any chain position.
  Query PartitionBy(stream::ShardedExecutor::KeyFn key_fn) const;

  /// Seals pending stages into a snapshot of the logical plan built so
  /// far, or reports the first latched builder error. Does not run the
  /// full shape validation — Compile()/Planner::Compile does.
  common::Result<LogicalPlan> Build() const;

  /// Build() + Planner::Compile: validates the plan and materialises the
  /// physical runtime. Defined in planner.cc.
  common::Result<std::unique_ptr<CompiledQuery>> Compile() const;
  common::Result<std::unique_ptr<CompiledQuery>> Compile(
      const PlannerOptions& options) const;

  /// Build() + Planner::CompileMultiplexed: this chain is the shared
  /// TEMPLATE (one source, one grouped windowed aggregate, one sink);
  /// every standing query in `subscriptions` runs against its single
  /// physical plan. Defined in planner.cc.
  common::Result<std::unique_ptr<MultiplexedQuery>> CompileMultiplexed(
      std::shared_ptr<SubscriptionSet> subscriptions) const;
  common::Result<std::unique_ptr<MultiplexedQuery>> CompileMultiplexed(
      std::shared_ptr<SubscriptionSet> subscriptions,
      const PlannerOptions& options) const;

 private:
  struct State;       // shared plan under construction
  struct PendingAgg;  // per-branch window/group-by/aggregate accumulator

  Query() = default;
  Query WithError(std::string msg) const;
  /// Seals a pending aggregate stage as a kAggregate node consuming
  /// `input` in `into` (the shared plan, or a snapshot during Build).
  static LogicalPlan::NodeId SealInto(const PendingAgg& pending,
                                      LogicalPlan::NodeId input,
                                      LogicalPlan* into);
  /// Seals this branch's pending stage and returns the sealed cursor.
  LogicalPlan::NodeId SealPending(LogicalPlan* into) const;
  bool has_pending() const;

  std::shared_ptr<State> state_;
  std::shared_ptr<PendingAgg> pending_;
  LogicalPlan::NodeId cursor_ = LogicalPlan::kInvalidNode;
  bool at_sink_ = false;
};

}  // namespace query
}  // namespace usp

#endif  // USP_QUERY_QUERY_H_
