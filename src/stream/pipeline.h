// Linear operator pipelines and an archive for lineage resolution.
//
// Pipeline is now a thin compatibility wrapper over a path-shaped
// ExecGraph run by the batch DagExecutor (exec_graph.h): Add() stages are
// wired source -> op1 -> ... -> opN -> sink on first use. The per-tuple
// Push/Close/Run API and its core semantics (flush output traverses later
// stages, NotFound drops, other errors abort, pre-error results are still
// delivered) match the seed runtime, so existing plans keep working while
// new code targets ExecGraph or ShardedExecutor directly. Two contracts
// are tightened versus the seed: Push after Close returns
// FailedPrecondition, and Add after the first Push aborts loudly (the
// graph is already materialised).
//
// The TupleArchive implements §3's "archives these input tuples for later
// computation of the query result distributions": independent tuples are
// stored by id so a downstream operator can resolve a lineage set back to
// the distributions it needs.

#ifndef USP_STREAM_PIPELINE_H_
#define USP_STREAM_PIPELINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "stream/exec_graph.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

/// \brief A chain of unary operators; compatibility facade over ExecGraph.
///
/// Deprecated: new code should describe plans declaratively with
/// query::Query and compile them with query::Planner (src/query/), which
/// picks the physical runtime (shard and lane counts, naive vs.
/// pane-incremental aggregation) instead of hand-wiring it. Pipeline stays
/// for the seed per-tuple API and its tests.
class [[deprecated(
    "build plans with query::Query and compile with query::Planner "
    "(src/query/); Pipeline is the seed-era compatibility wrapper")]]
Pipeline {
 public:
  /// Append an operator; returns *this for chaining. Must not be called
  /// after the first Push/Run.
  Pipeline& Add(std::unique_ptr<Operator> op);

  /// Push one source tuple through all stages into `sink`.
  common::Status Push(const Tuple& tuple, Collector* sink);
  /// Push a whole batch through all stages into `sink` (amortised
  /// metering; the batch-native fast path).
  common::Status PushBatch(const TupleBatch& batch, Collector* sink);
  /// End-of-stream: flush every stage in order.
  common::Status Close(Collector* sink);

  /// Convenience: push a whole ordered batch, then Close. Taken by value
  /// so temporaries are moved rather than copied tuple-by-tuple.
  common::Status Run(std::vector<Tuple> source, Collector* sink);

  size_t num_operators() const;
  const Operator& op(size_t i) const;

  /// Per-operator metrics snapshot, in stage order.
  std::vector<OperatorMetrics> MetricsSnapshot() const;

 private:
  void EnsureBuilt();
  common::Status Drain(Collector* sink);

  // Stages accumulate here until the graph is materialised on first use.
  std::vector<std::unique_ptr<Operator>> pending_;
  std::unique_ptr<DagExecutor> exec_;
  std::vector<ExecGraph::NodeId> op_nodes_;
  ExecGraph::NodeId source_ = ExecGraph::kInvalidNode;
  ExecGraph::NodeId sink_ = ExecGraph::kInvalidNode;
};

/// \brief Id-addressable store of archived base tuples (§3, operator A4 /
/// J1 example: the last operator "uses the tuple lineage and previously
/// archived independent tuples to compute its result distributions").
/// Under the sharded executor each shard owns a private archive, so
/// lineage resolution stays shard-local and needs no locking.
class TupleArchive {
 public:
  void Archive(const Tuple& tuple) { by_id_.emplace(tuple.id(), tuple); }

  /// Lookup by id; error if the id was never archived.
  common::Result<Tuple> Lookup(TupleId id) const;

  /// Resolve a lineage set to archived tuples; ids missing from the
  /// archive are skipped (they belonged to pruned streams).
  std::vector<Tuple> ResolveLineage(const std::vector<TupleId>& ids) const;

  /// Drop archived tuples older than `watermark_us` to bound memory.
  void EvictBefore(int64_t watermark_us);

  size_t size() const { return by_id_.size(); }

 private:
  std::unordered_map<TupleId, Tuple> by_id_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_PIPELINE_H_
