// The logical half of the query layer: a declarative, inspectable plan of
// the paper's box-arrow queries (Q1 fire-code group-by, Q2 flammable join,
// the radar tornado plans) with NO physical choices in it. A LogicalPlan
// says *what* to compute — sources, filters, maps, windowed group-by
// aggregates, sliding-window joins, sinks — while the physical planner
// (planner.h) decides *how*: shard counts and partition keys, ingest
// lanes, watermarks, workspace wiring.
//
// Plans are built with the fluent query::Query builder (query.h) and are
// acyclic by construction: every node's inputs must already exist, so
// creation order is a topological order (same invariant as
// stream::ExecGraph). Validate() checks the declarative shapes the builder
// cannot enforce locally — aggregates need a window, joins need two
// distinct inputs, group/aggregate attribute references must fit the
// declared source arity.

#ifndef USP_QUERY_LOGICAL_PLAN_H_
#define USP_QUERY_LOGICAL_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/basic_operators.h"
#include "stream/group_by.h"
#include "stream/join.h"
#include "stream/sharded_executor.h"
#include "stream/window.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace query {

/// Aggregate functions the planner materialises as pane-incremental
/// partials (uncertain/pane_aggregates.h).
enum class AggregateKind : uint8_t { kSum, kAvg, kMax, kMin, kCount };

const char* AggregateKindName(AggregateKind kind);

/// One declared output aggregate column of a windowed group-by.
struct AggregateDecl {
  AggregateKind kind = AggregateKind::kCount;
  std::string output_name;
  /// Input attribute aggregated over (ignored for kCount).
  size_t attr_index = 0;
  /// SUM/AVG algorithm from the paper's Table 2 (§5.1). The planner turns
  /// this into the matching pane partial.
  uncertain::SumStrategyKind strategy = uncertain::SumStrategyKind::kClt;
  /// Output histogram resolution for kMax/kMin order statistics.
  size_t bins = 256;
};

/// \brief A typed, inspectable logical query plan.
///
/// Nodes reference their inputs by id; ids are dense and creation-ordered
/// (topological). The plan owns the user-supplied closures (predicates,
/// map functions, join matchers, custom group keys) but no operator
/// instances — those are materialised per shard by the Planner.
class LogicalPlan {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kInvalidNode = UINT32_MAX;

  enum class NodeKind : uint8_t {
    kSource,
    kFilter,
    kMap,
    kAggregate,  ///< windowed group-by + aggregates (+ optional HAVING)
    kJoin,
    kSink,
  };

  struct Node {
    NodeKind kind = NodeKind::kSource;
    std::string name;
    std::vector<NodeId> inputs;

    // kSource: number of attributes its tuples carry; 0 = undeclared
    // (arity-dependent validation is skipped downstream of it).
    size_t declared_arity = 0;

    // kFilter. `filter_reads` (optional) declares which attribute indices
    // the predicate reads; with it the planner may push the filter below
    // an upstream map whose preserved prefix covers every read attribute.
    // Unset = opaque predicate, never reordered.
    stream::FilterOperator::Predicate filter;
    std::optional<std::vector<size_t>> filter_reads;

    // kMap: the transform plus the (optional) arity of its output tuples;
    // 0 = undeclared. `map_preserved_prefix` declares that input
    // attributes [0, prefix) pass through unchanged at the same indices
    // (the common annotate-by-appending shape); 0 = no such guarantee.
    stream::MapOperator::MapFn map;
    size_t map_output_arity = 0;
    size_t map_preserved_prefix = 0;

    // kAggregate. Exactly one of group_key_attr / group_key_fn may be set;
    // neither means a single global group.
    std::optional<stream::WindowSpec> window;
    std::optional<size_t> group_key_attr;
    stream::GroupByAggregateOperator::KeyFn group_key_fn;
    std::vector<AggregateDecl> aggregates;
    stream::GroupByAggregateOperator::HavingFn having;

    // kJoin: symmetric sliding-window join, inputs = {left, right}.
    int64_t join_range_us = 0;
    stream::SlidingWindowJoin::MatchFn join_match;
  };

  /// Appends a node. Inputs must reference existing nodes; violations are
  /// reported by Validate(), not here, so the fluent builder can stay
  /// error-latching instead of throwing.
  NodeId AddNode(Node node);

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  /// Builder-side annotation hook (e.g. attaching a filter's read set to
  /// the node just appended); nullptr when `id` is out of range.
  Node* mutable_node(NodeId id) {
    return id < nodes_.size() ? &nodes_[id] : nullptr;
  }
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  const std::string& name(NodeId id) const { return nodes_[id].name; }
  const std::vector<NodeId>& inputs(NodeId id) const {
    return nodes_[id].inputs;
  }

  /// Optional caller-supplied ingest partition key (a *physical* hint the
  /// builder forwards for power users; when absent the planner derives the
  /// key from the group-by keys).
  void SetPartitionKey(stream::ShardedExecutor::KeyFn fn) {
    partition_key_ = std::move(fn);
  }
  const stream::ShardedExecutor::KeyFn& partition_key() const {
    return partition_key_;
  }

  /// Tuple arity flowing out of each node, where derivable: sources/maps
  /// use their declared arity, filters preserve their input, aggregates
  /// emit [key, agg_1..agg_m], joins and undeclared maps are unknown
  /// (nullopt).
  std::vector<std::optional<size_t>> OutputArities() const;

  /// Planner rewrite: swap each filter below its upstream map when the
  /// filter declares the attributes it reads (`filter_reads`), the map
  /// declares a preserved prefix covering all of them, and the filter is
  /// the map's only consumer — then the (possibly expensive) map runs
  /// only on tuples that survive the filter. Semantics-preserving for
  /// pure maps: the predicate reads only attributes the map passes
  /// through unchanged. Iterates to a fixpoint, so one filter can sink
  /// below a whole map chain. Appends (filter_name, map_name) per swap to
  /// `moved` (if non-null) and returns the number of swaps.
  size_t PushFiltersBelowMaps(
      std::vector<std::pair<std::string, std::string>>* moved = nullptr);

  /// Shape validation: at least one source and sink, edges respect
  /// creation order, joins have two distinct non-sink inputs, every
  /// non-source node is reachable from a source and every non-sink node
  /// feeds something, aggregates have a window and at least one aggregate
  /// column, attribute references fit known arities, and source/sink names
  /// are unique.
  common::Status Validate() const;

  /// One line per node, for tests, logs, and example output.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
  stream::ShardedExecutor::KeyFn partition_key_;
};

}  // namespace query
}  // namespace usp

#endif  // USP_QUERY_LOGICAL_PLAN_H_
