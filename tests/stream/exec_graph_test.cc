// DAG executor topology tests: fan-out (one node feeding several
// downstream plans), fan-in (two-input joins), flush propagation, and
// structural validation.

#include "stream/exec_graph.h"

#include <gtest/gtest.h>

#include "stream/basic_operators.h"
#include "stream/batch.h"
#include "stream/join.h"
#include "stream/window.h"

namespace usp {
namespace stream {
namespace {

Tuple V(int64_t ts, double v) {
  Tuple t(ts, {Value(v)});
  t.InitBaseLineage();
  return t;
}

TupleBatch Batch(std::initializer_list<Tuple> tuples) {
  TupleBatch b;
  for (const Tuple& t : tuples) b.Append(t);
  return b;
}

TEST(ExecGraphTest, LinearChainPassesBatches) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto doubler = graph->AddOperator(
      src, std::make_unique<MapOperator>(
               "double", [](const Tuple& t) -> common::Result<Tuple> {
                 Tuple out = t;
                 out.mutable_value(0) = Value(t.value(0).AsDouble() * 2.0);
                 return out;
               }));
  const auto sink = graph->AddSink(doubler, "sink");
  ASSERT_TRUE(graph->Validate().ok());

  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, 2.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  const TupleBatch& out = exec.sink_output(sink);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value(0).AsDouble(), 2.0);
  EXPECT_EQ(out[1].value(0).AsDouble(), 4.0);
}

TEST(ExecGraphTest, MapNotFoundDropsTupleWithoutError) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto drop_neg = graph->AddOperator(
      src, std::make_unique<MapOperator>(
               "drop_neg", [](const Tuple& t) -> common::Result<Tuple> {
                 if (t.value(0).AsDouble() < 0.0) {
                   return common::Status::NotFound("dropped");
                 }
                 return t;
               }));
  const auto sink = graph->AddSink(drop_neg, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, -2.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  const TupleBatch& out = exec.sink_output(sink);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsDouble(), 1.0);
}

TEST(ExecGraphTest, TapObservesWithoutModifying) {
  int seen = 0;
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto tap = graph->AddOperator(
      src,
      std::make_unique<TapOperator>("tap", [&seen](const Tuple&) { ++seen; }));
  const auto sink = graph->AddSink(tap, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, 2.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  EXPECT_EQ(seen, 2);
  const TupleBatch& out = exec.sink_output(sink);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value(0).AsDouble(), 1.0);
  EXPECT_EQ(out[1].value(0).AsDouble(), 2.0);
}

TEST(ExecGraphTest, FanOutDeliversToEveryBranch) {
  // src feeds two independent filters; each sink sees its own selection.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto low = graph->AddOperator(
      src, std::make_unique<FilterOperator>("low", [](const Tuple& t) {
        return t.value(0).AsDouble() < 10.0;
      }));
  const auto low_sink = graph->AddSink(low, "low_sink");
  const auto high = graph->AddOperator(
      src, std::make_unique<FilterOperator>("high", [](const Tuple& t) {
        return t.value(0).AsDouble() >= 10.0;
      }));
  const auto high_sink = graph->AddSink(high, "high_sink");
  ASSERT_TRUE(graph->Validate().ok());

  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(
      exec.PushBatch(src, Batch({V(0, 1.0), V(1, 15.0), V(2, 3.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  EXPECT_EQ(exec.sink_output(low_sink).size(), 2u);
  EXPECT_EQ(exec.sink_output(high_sink).size(), 1u);
}

TEST(ExecGraphTest, FanOutToSinkAndOperator) {
  // A sink and an operator both tap the same node (raw + derived view).
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto raw_sink = graph->AddSink(src, "raw");
  const auto filt = graph->AddOperator(
      src, std::make_unique<FilterOperator>("pos", [](const Tuple& t) {
        return t.value(0).AsDouble() > 0.0;
      }));
  const auto filt_sink = graph->AddSink(filt, "filtered");
  ASSERT_TRUE(graph->Validate().ok());

  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(0, -1.0), V(1, 2.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  EXPECT_EQ(exec.sink_output(raw_sink).size(), 2u);
  EXPECT_EQ(exec.sink_output(filt_sink).size(), 1u);
}

TEST(ExecGraphTest, FanInJoinMatchesAcrossSources) {
  auto graph = std::make_unique<ExecGraph>();
  const auto left = graph->AddSource("left");
  const auto right = graph->AddSource("right");
  const auto join = graph->AddJoin(
      left, right,
      std::make_unique<SlidingWindowJoin>(
          "eq", 10,
          [](const Tuple& l, const Tuple& r) -> std::optional<Tuple> {
            if (l.value(0).AsDouble() != r.value(0).AsDouble()) {
              return std::nullopt;
            }
            return ConcatJoinedTuple(l, r);
          }));
  const auto sink = graph->AddSink(join, "sink");
  ASSERT_TRUE(graph->Validate().ok());

  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(left, Batch({V(0, 1.0), V(1, 2.0)})).ok());
  ASSERT_TRUE(exec.PushBatch(right, Batch({V(2, 2.0), V(3, 9.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  const TupleBatch& out = exec.sink_output(sink);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsDouble(), 2.0);
  EXPECT_EQ(out[0].num_values(), 2u);
  // Joined lineage: both base ids.
  EXPECT_EQ(out[0].lineage().size(), 2u);
}

TEST(ExecGraphTest, CloseFlushTraversesDownstreamNodes) {
  // Window flush output must still pass the downstream filter.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto win = graph->AddOperator(
      src, std::make_unique<WindowCountOperator>("count",
                                                 WindowSpec::Tumbling(10)));
  const auto filt = graph->AddOperator(
      win, std::make_unique<FilterOperator>("gt1", [](const Tuple& t) {
        return t.value(0).AsInt() > 1;
      }));
  const auto sink = graph->AddSink(filt, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(
      exec.PushBatch(src, Batch({V(0, 1.0), V(1, 1.0), V(12, 1.0)})).ok());
  ASSERT_TRUE(exec.Close().ok());
  const TupleBatch& out = exec.sink_output(sink);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsInt(), 2);
}

TEST(ExecGraphTest, MetricsSnapshotCoversOperatorAndJoinNodes) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto pass = graph->AddOperator(
      src, std::make_unique<FilterOperator>("pass",
                                            [](const Tuple&) { return true; }));
  graph->AddSink(pass, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, 2.0)})).ok());
  const auto metrics = exec.MetricsSnapshot();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "pass");
  EXPECT_EQ(metrics[0].metrics.tuples_in, 2u);
  EXPECT_EQ(metrics[0].metrics.tuples_out, 2u);
  EXPECT_EQ(metrics[0].metrics.batches_in, 1u);
}

TEST(ExecGraphTest, ValidateRejectsDanglingNodes) {
  {
    ExecGraph graph;
    graph.AddSource("src");  // feeds nothing
    EXPECT_FALSE(graph.Validate().ok());
  }
  {
    ExecGraph graph;
    const auto src = graph.AddSource("src");
    graph.AddOperator(src, std::make_unique<FilterOperator>(
                               "f", [](const Tuple&) { return true; }));
    // operator feeds nothing -> invalid
    EXPECT_FALSE(graph.Validate().ok());
  }
  {
    ExecGraph graph;
    const auto src = graph.AddSource("src");
    graph.AddSink(src, "sink");
    EXPECT_TRUE(graph.Validate().ok());
  }
}

TEST(ExecGraphTest, PushToNonSourceFails) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto sink = graph->AddSink(src, "sink");
  DagExecutor exec(std::move(graph));
  EXPECT_FALSE(exec.PushBatch(sink, TupleBatch({V(0, 1.0)})).ok());
  EXPECT_FALSE(exec.PushBatch(99, Batch({V(0, 1.0)})).ok());
}

TEST(ExecGraphTest, PushAfterCloseFails) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  graph->AddSink(src, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.Close().ok());
  EXPECT_FALSE(exec.PushBatch(src, TupleBatch({V(0, 1.0)})).ok());
}

TEST(ExecGraphTest, OperatorErrorPropagates) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto boom = graph->AddOperator(
      src, std::make_unique<MapOperator>(
               "boom", [](const Tuple&) -> common::Result<Tuple> {
                 return common::Status::Internal("boom");
               }));
  graph->AddSink(boom, "sink");
  DagExecutor exec(std::move(graph));
  EXPECT_FALSE(exec.PushBatch(src, TupleBatch({V(0, 1.0)})).ok());
}

TEST(ExecGraphTest, BranchErrorDoesNotStarveSiblingBranches) {
  // One fan-out branch failing must not keep the batch from its siblings,
  // or their windowed state would silently diverge from the input.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto boom = graph->AddOperator(
      src, std::make_unique<MapOperator>(
               "boom", [](const Tuple&) -> common::Result<Tuple> {
                 return common::Status::Internal("boom");
               }));
  graph->AddSink(boom, "boom_sink");
  const auto pass = graph->AddOperator(
      src, std::make_unique<FilterOperator>("pass",
                                            [](const Tuple&) { return true; }));
  const auto pass_sink = graph->AddSink(pass, "pass_sink");
  DagExecutor exec(std::move(graph));
  EXPECT_FALSE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, 2.0)})).ok());
  EXPECT_EQ(exec.sink_output(pass_sink).size(), 2u);
}

TEST(ExecGraphTest, MidBatchErrorStillDeliversEarlierResults) {
  // Seed per-tuple semantics: tuples that cleared the failing stage before
  // the error had already traversed downstream; batching must not lose
  // them.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto fail_neg = graph->AddOperator(
      src, std::make_unique<MapOperator>(
               "fail_neg", [](const Tuple& t) -> common::Result<Tuple> {
                 if (t.value(0).AsDouble() < 0.0) {
                   return common::Status::Internal("boom");
                 }
                 return t;
               }));
  const auto sink = graph->AddSink(fail_neg, "sink");
  DagExecutor exec(std::move(graph));
  EXPECT_FALSE(exec.PushBatch(src, Batch({V(0, 1.0), V(1, -1.0)})).ok());
  EXPECT_EQ(exec.sink_output(sink).size(), 1u);
}

}  // namespace
}  // namespace stream
}  // namespace usp
