// The box-arrow graph of §3 as an executable plan: a DAG with fan-out (one
// node feeding several downstream plans, e.g. a sensor source driving both
// the Q1 fire-code group-by and the Q2 flammable join) and fan-in
// (two-input join nodes).
//
// ExecGraph describes topology and owns the operator instances; the graph
// is acyclic by construction because every edge must point at an
// already-created node, so creation order is a topological order.
// DagExecutor runs one graph single-threaded over TupleBatches; the
// sharded, multi-threaded runtime (sharded_executor.h) owns one
// DagExecutor per shard.

#ifndef USP_STREAM_EXEC_GRAPH_H_
#define USP_STREAM_EXEC_GRAPH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/batch.h"
#include "stream/join.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

/// \brief A DAG of stream operators: sources, unary operator nodes,
/// two-input join nodes, and sinks.
class ExecGraph {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kInvalidNode = UINT32_MAX;

  enum class NodeKind : uint8_t { kSource, kOperator, kJoin, kSink };

  /// Input port of a two-input join node.
  enum : int { kLeftPort = 0, kRightPort = 1 };

  /// External entry point; tuples are injected here by the executor.
  NodeId AddSource(std::string name);

  /// Unary operator node consuming `input`'s output.
  NodeId AddOperator(NodeId input, std::unique_ptr<Operator> op);

  /// Fan-in: a symmetric sliding-window join fed by two upstream nodes.
  NodeId AddJoin(NodeId left, NodeId right,
                 std::unique_ptr<SlidingWindowJoin> join);

  /// Collection point; the executor accumulates this node's input.
  NodeId AddSink(NodeId input, std::string name);

  size_t num_nodes() const { return nodes_.size(); }
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  const std::string& name(NodeId id) const { return nodes_[id].name; }
  /// Downstream edges of a node: (consumer node, consumer input port).
  const std::vector<std::pair<NodeId, int>>& outputs(NodeId id) const {
    return nodes_[id].outputs;
  }
  int num_inputs(NodeId id) const { return nodes_[id].num_inputs; }
  /// The operator instance of an kOperator node (for configuration or
  /// metrics inspection).
  const Operator& op(NodeId id) const { return *nodes_[id].op; }

  /// Structural checks: at least one source and one sink, every
  /// non-source node reachable from a source, every non-sink node
  /// feeding something.
  common::Status Validate() const;

 private:
  friend class DagExecutor;

  struct Node {
    NodeKind kind;
    std::string name;
    std::unique_ptr<Operator> op;            // kOperator
    std::unique_ptr<SlidingWindowJoin> join;  // kJoin
    /// Downstream edges: (consumer node, consumer input port).
    std::vector<std::pair<NodeId, int>> outputs;
    int num_inputs = 0;
  };

  NodeId AddNode(Node node);
  void Connect(NodeId from, NodeId to, int port);

  std::vector<Node> nodes_;
};

/// Per-node metrics snapshot entry.
struct NodeMetrics {
  ExecGraph::NodeId node = ExecGraph::kInvalidNode;
  std::string name;
  OperatorMetrics metrics;
};

/// \brief Single-threaded batch executor for one ExecGraph.
///
/// Batches injected at a source propagate depth-first along the edges;
/// fan-out edges beyond the first receive copies. Close() flushes stateful
/// nodes in topological (creation) order so a window's flush output still
/// traverses all downstream nodes.
class DagExecutor {
 public:
  explicit DagExecutor(std::unique_ptr<ExecGraph> graph)
      : graph_(std::move(graph)),
        sink_outputs_(graph_->num_nodes()),
        input_watermark_(graph_->num_nodes(), {INT64_MIN, INT64_MIN}),
        node_watermark_(graph_->num_nodes(), INT64_MIN) {}

  const ExecGraph& graph() const { return *graph_; }

  /// Inject a batch at a source node.
  common::Status PushBatch(ExecGraph::NodeId source, const TupleBatch& batch);
  /// Event-time progress injection: promises every future tuple pushed at
  /// `source` has timestamp >= watermark. The signal propagates along the
  /// graph edges — stateful operators close windows / expire buffers as
  /// it passes, fan-in (join) nodes forward the MIN of their per-input
  /// watermarks, data emitted by a watermark-triggered closure traverses
  /// downstream edges BEFORE the watermark itself. Monotonic per edge;
  /// regressions are ignored (idempotent to re-send).
  common::Status PushWatermark(ExecGraph::NodeId source, int64_t watermark);
  /// Current propagated watermark of a node (INT64_MIN before any; for a
  /// fan-in node, the min across its inputs).
  int64_t node_watermark(ExecGraph::NodeId node) const {
    return node_watermark_[node];
  }
  /// End-of-stream: flush every stateful node, topologically.
  common::Status Close();

  /// Accumulated output of a sink node.
  const TupleBatch& sink_output(ExecGraph::NodeId sink) const {
    return sink_outputs_[sink];
  }
  TupleBatch TakeSinkOutput(ExecGraph::NodeId sink) {
    TupleBatch out = std::move(sink_outputs_[sink]);
    sink_outputs_[sink].Clear();
    return out;
  }

  /// Metrics of every kOperator and kJoin node, in topological order.
  std::vector<NodeMetrics> MetricsSnapshot() const;

 private:
  common::Status Deliver(ExecGraph::NodeId node, int port,
                         const TupleBatch& batch);
  common::Status Forward(ExecGraph::NodeId from, const TupleBatch& batch);
  common::Status DeliverWatermark(ExecGraph::NodeId node, int port,
                                  int64_t watermark);
  common::Status ForwardWatermark(ExecGraph::NodeId from, int64_t watermark);

  std::unique_ptr<ExecGraph> graph_;
  std::vector<TupleBatch> sink_outputs_;  // indexed by NodeId; sinks only
  /// Per-node per-input-port watermark (port 1 used by joins only).
  std::vector<std::array<int64_t, 2>> input_watermark_;
  /// Per-node propagated watermark: min over the node's input ports.
  std::vector<int64_t> node_watermark_;
  bool closed_ = false;
  common::Status close_status_;  // first flush error; re-reported on retry
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_EXEC_GRAPH_H_
