#include "stream/exec_graph.h"

#include <cassert>
#include <cstdlib>

#include "common/logging.h"

namespace usp {
namespace stream {

ExecGraph::NodeId ExecGraph::AddNode(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void ExecGraph::Connect(NodeId from, NodeId to, int port) {
  if (from >= nodes_.size()) {
    // Always-on check: an invalid upstream id would be an out-of-bounds
    // write (silent heap corruption) in NDEBUG builds.
    USP_LOG(Error) << "ExecGraph edge from unknown node id " << from
                   << " (graph has " << nodes_.size() << " nodes)";
    std::abort();
  }
  nodes_[from].outputs.emplace_back(to, port);
}

ExecGraph::NodeId ExecGraph::AddSource(std::string name) {
  Node node;
  node.kind = NodeKind::kSource;
  node.name = std::move(name);
  return AddNode(std::move(node));
}

ExecGraph::NodeId ExecGraph::AddOperator(NodeId input,
                                         std::unique_ptr<Operator> op) {
  assert(op != nullptr);
  Node node;
  node.kind = NodeKind::kOperator;
  node.name = op->name();
  node.op = std::move(op);
  node.num_inputs = 1;
  const NodeId id = AddNode(std::move(node));
  Connect(input, id, 0);
  return id;
}

ExecGraph::NodeId ExecGraph::AddJoin(NodeId left, NodeId right,
                                     std::unique_ptr<SlidingWindowJoin> join) {
  assert(join != nullptr);
  Node node;
  node.kind = NodeKind::kJoin;
  node.name = join->name();
  node.join = std::move(join);
  node.num_inputs = 2;
  const NodeId id = AddNode(std::move(node));
  Connect(left, id, kLeftPort);
  Connect(right, id, kRightPort);
  return id;
}

ExecGraph::NodeId ExecGraph::AddSink(NodeId input, std::string name) {
  Node node;
  node.kind = NodeKind::kSink;
  node.name = std::move(name);
  node.num_inputs = 1;
  const NodeId id = AddNode(std::move(node));
  Connect(input, id, 0);
  return id;
}

common::Status ExecGraph::Validate() const {
  bool has_source = false;
  bool has_sink = false;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kSource:
        has_source = true;
        if (node.outputs.empty()) {
          return common::Status::FailedPrecondition(
              "source '" + node.name + "' feeds nothing");
        }
        break;
      case NodeKind::kOperator:
      case NodeKind::kJoin:
        if (node.outputs.empty()) {
          return common::Status::FailedPrecondition(
              "node '" + node.name + "' feeds nothing (missing sink?)");
        }
        break;
      case NodeKind::kSink:
        has_sink = true;
        if (!node.outputs.empty()) {
          return common::Status::FailedPrecondition(
              "sink '" + node.name + "' must not feed other nodes");
        }
        break;
    }
  }
  if (!has_source) {
    return common::Status::FailedPrecondition("graph has no source");
  }
  if (!has_sink) {
    return common::Status::FailedPrecondition("graph has no sink");
  }
  return common::Status::OK();
}

common::Status DagExecutor::Forward(ExecGraph::NodeId from,
                                    const TupleBatch& batch) {
  if (batch.empty()) return common::Status::OK();
  // Fan-out delivers the same const batch to every consumer; only sinks
  // copy tuples out of it. One branch's error must not starve its
  // siblings (their windowed state would silently diverge from the
  // input), so every branch is fed and the first error is reported.
  common::Status first;
  for (const auto& [to, port] : graph_->nodes_[from].outputs) {
    const common::Status st = Deliver(to, port, batch);
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

common::Status DagExecutor::Deliver(ExecGraph::NodeId id, int port,
                                    const TupleBatch& batch) {
  ExecGraph::Node& node = graph_->nodes_[id];
  switch (node.kind) {
    case ExecGraph::NodeKind::kSource:
      return Forward(id, batch);
    case ExecGraph::NodeKind::kOperator: {
      TupleBatch out;
      BatchCollector collector(&out);
      // On a mid-batch error, still forward what was emitted before the
      // failing tuple, as if the batch had been pushed one tuple at a
      // time.
      const common::Status st = node.op->PushBatch(batch, &collector);
      const common::Status fwd = Forward(id, out);
      return st.ok() ? fwd : st;
    }
    case ExecGraph::NodeKind::kJoin: {
      TupleBatch out;
      BatchCollector collector(&out);
      const common::Status st =
          port == ExecGraph::kLeftPort
              ? node.join->PushLeftBatch(batch, &collector)
              : node.join->PushRightBatch(batch, &collector);
      const common::Status fwd = Forward(id, out);
      return st.ok() ? fwd : st;
    }
    case ExecGraph::NodeKind::kSink: {
      // Plain appends: reserving size + batch on every delivery would
      // defeat the vector's geometric growth and make many small
      // deliveries quadratic.
      TupleBatch& sink = sink_outputs_[id];
      for (const Tuple& t : batch) sink.Append(t);
      return common::Status::OK();
    }
  }
  return common::Status::Internal("unreachable node kind");
}

common::Status DagExecutor::ForwardWatermark(ExecGraph::NodeId from,
                                             int64_t watermark) {
  // Same sibling-fairness rule as Forward: every branch hears the
  // watermark, the first error is reported.
  common::Status first;
  for (const auto& [to, port] : graph_->nodes_[from].outputs) {
    const common::Status st = DeliverWatermark(to, port, watermark);
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

common::Status DagExecutor::DeliverWatermark(ExecGraph::NodeId id, int port,
                                             int64_t watermark) {
  // Per-edge monotonicity: a regressing (or repeated) watermark is a
  // no-op, so idempotent re-sends are safe.
  if (watermark <= input_watermark_[id][port]) return common::Status::OK();
  input_watermark_[id][port] = watermark;
  ExecGraph::Node& node = graph_->nodes_[id];
  // A join consumes the PER-SIDE watermark even when its combined output
  // watermark does not advance: the left watermark is what expires the
  // RIGHT buffer, and an idle right side never advances the min.
  common::Status side_status;
  if (node.kind == ExecGraph::NodeKind::kJoin) {
    side_status = node.join->AdvanceWatermark(
        /*from_left=*/port == ExecGraph::kLeftPort, watermark);
  }
  // Fan-in rule: a node's own watermark is the min over its input ports.
  int64_t advanced = watermark;
  if (node.num_inputs > 1) {
    advanced = input_watermark_[id][0] < input_watermark_[id][1]
                   ? input_watermark_[id][0]
                   : input_watermark_[id][1];
  }
  if (advanced <= node_watermark_[id]) return side_status;
  node_watermark_[id] = advanced;
  switch (node.kind) {
    case ExecGraph::NodeKind::kSource:
      return ForwardWatermark(id, advanced);
    case ExecGraph::NodeKind::kOperator: {
      // Window closures triggered by the watermark must traverse the
      // downstream edges before the watermark itself, or a downstream
      // window could close under data still in flight toward it.
      TupleBatch flush;
      BatchCollector collector(&flush);
      const common::Status st = node.op->AdvanceWatermark(advanced,
                                                          &collector);
      const common::Status fwd = Forward(id, flush);
      const common::Status wm = ForwardWatermark(id, advanced);
      if (!st.ok()) return st;
      return fwd.ok() ? wm : fwd;
    }
    case ExecGraph::NodeKind::kJoin: {
      const common::Status wm = ForwardWatermark(id, advanced);
      return side_status.ok() ? wm : side_status;
    }
    case ExecGraph::NodeKind::kSink:
      return common::Status::OK();
  }
  return common::Status::Internal("unreachable node kind");
}

common::Status DagExecutor::PushWatermark(ExecGraph::NodeId source,
                                          int64_t watermark) {
  if (closed_) {
    return common::Status::FailedPrecondition("executor already closed");
  }
  if (source >= graph_->num_nodes() ||
      graph_->kind(source) != ExecGraph::NodeKind::kSource) {
    return common::Status::InvalidArgument(
        "PushWatermark target is not a source");
  }
  return DeliverWatermark(source, 0, watermark);
}

common::Status DagExecutor::PushBatch(ExecGraph::NodeId source,
                                      const TupleBatch& batch) {
  if (closed_) {
    return common::Status::FailedPrecondition("executor already closed");
  }
  if (source >= graph_->num_nodes() ||
      graph_->kind(source) != ExecGraph::NodeKind::kSource) {
    return common::Status::InvalidArgument("PushBatch target is not a source");
  }
  return Deliver(source, 0, batch);
}

common::Status DagExecutor::Close() {
  if (closed_) return close_status_;
  closed_ = true;
  // Creation order is topological, so flushing node i before i+1 lets a
  // window's flush output traverse every not-yet-flushed downstream node.
  // A node's flush error does not stop the remaining flushes (downstream
  // state must still drain); the first error is kept and re-reported by
  // any later Close() call.
  for (ExecGraph::NodeId id = 0; id < graph_->nodes_.size(); ++id) {
    ExecGraph::Node& node = graph_->nodes_[id];
    if (node.kind == ExecGraph::NodeKind::kOperator) {
      TupleBatch flush;
      BatchCollector collector(&flush);
      const common::Status st = node.op->Close(&collector);
      const common::Status fwd = Forward(id, flush);
      if (close_status_.ok() && !st.ok()) close_status_ = st;
      if (close_status_.ok() && !fwd.ok()) close_status_ = fwd;
    } else if (node.kind == ExecGraph::NodeKind::kJoin) {
      const common::Status st = node.join->Close();
      if (close_status_.ok() && !st.ok()) close_status_ = st;
    }
  }
  return close_status_;
}

std::vector<NodeMetrics> DagExecutor::MetricsSnapshot() const {
  std::vector<NodeMetrics> out;
  for (ExecGraph::NodeId id = 0; id < graph_->nodes_.size(); ++id) {
    const ExecGraph::Node& node = graph_->nodes_[id];
    if (node.kind == ExecGraph::NodeKind::kOperator) {
      out.push_back({id, node.name, node.op->metrics()});
    } else if (node.kind == ExecGraph::NodeKind::kJoin) {
      out.push_back({id, node.name, node.join->metrics()});
    }
  }
  return out;
}

}  // namespace stream
}  // namespace usp
