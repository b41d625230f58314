// Event-time watermark subsystem tests: edge propagation through the DAG
// executor, fan-in min at joins, watermark-driven window closure (incl.
// out-of-order input and the late-tuple policy of the paned operator),
// monotonicity, the low_watermark / buffered_bytes metric surfaces, and
// the sharded executor's carried, broadcast and explicit watermarks.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "stream/basic_operators.h"
#include "stream/exec_graph.h"
#include "stream/join.h"
#include "stream/pane_window.h"
#include "stream/sharded_executor.h"
#include "stream/window.h"
#include "test_wait.h"

namespace usp {
namespace stream {
namespace {

Tuple V(int64_t ts, double v) {
  Tuple t(ts, {Value(v)});
  t.InitBaseLineage();
  return t;
}

Tuple KV(int64_t ts, int64_t key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

TupleBatch Batch(std::initializer_list<Tuple> tuples) {
  TupleBatch b;
  for (const Tuple& t : tuples) b.Append(t);
  return b;
}

SlidingWindowJoin::MatchFn ConcatMatch() {
  return [](const Tuple& l, const Tuple& r) {
    return std::optional<Tuple>(ConcatJoinedTuple(l, r));
  };
}

using testutil::WaitUntil;

/// Shared pane partial for COUNT, used by the paned watermark tests.
struct CountPartial final : public PanePartial {
  int64_t n = 0;
};

PaneAggregateSpec CountPaneSpec() {
  PaneAggregateSpec spec;
  spec.output_name = "n";
  spec.make_partial = [] {
    return std::unique_ptr<PanePartial>(new CountPartial());
  };
  spec.add = [](PanePartial* p, const Tuple&) {
    static_cast<CountPartial*>(p)->n += 1;
    return common::Status::OK();
  };
  spec.finalize =
      [](const std::vector<PanePartial*>& parts) -> common::Result<Value> {
    int64_t total = 0;
    for (PanePartial* p : parts) total += static_cast<CountPartial*>(p)->n;
    return Value(total);
  };
  return spec;
}

// ---- DagExecutor propagation --------------------------------------------

TEST(WatermarkTest, WatermarkClosesWindowsWithoutDataArrival) {
  // One open tumbling window; a watermark at its end flushes it into the
  // sink even though no further tuple ever arrives — the idle-stream
  // progress signal arrival-driven closure can never provide.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto win = graph->AddOperator(
      src, std::make_unique<WindowCountOperator>("count",
                                                 WindowSpec::Tumbling(100)));
  const auto sink = graph->AddSink(win, "sink");
  DagExecutor exec(std::move(graph));

  ASSERT_TRUE(exec.PushBatch(src, Batch({V(10, 1.0), V(20, 2.0)})).ok());
  EXPECT_EQ(exec.sink_output(sink).size(), 0u);  // window [0, 100) open
  ASSERT_TRUE(exec.PushWatermark(src, 100).ok());
  ASSERT_EQ(exec.sink_output(sink).size(), 1u);
  EXPECT_EQ(exec.sink_output(sink)[0].value(0).AsInt(), 2);
  EXPECT_EQ(exec.node_watermark(win), 100);
  EXPECT_EQ(exec.node_watermark(sink), 100);
}

TEST(WatermarkTest, WatermarkFlushTraversesDownstreamOperators) {
  // A window closed by a watermark emits THROUGH downstream operators,
  // exactly like arrival-driven flushes: count -> doubler map -> sink.
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto win = graph->AddOperator(
      src, std::make_unique<WindowCountOperator>("count",
                                                 WindowSpec::Tumbling(100)));
  const auto dbl = graph->AddOperator(
      win, std::make_unique<MapOperator>(
               "double", [](const Tuple& t) -> common::Result<Tuple> {
                 Tuple out = t;
                 out.mutable_value(0) = Value(t.value(0).AsInt() * 2);
                 return out;
               }));
  const auto sink = graph->AddSink(dbl, "sink");
  DagExecutor exec(std::move(graph));

  ASSERT_TRUE(exec.PushBatch(src, Batch({V(10, 1.0), V(60, 1.0)})).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 250).ok());
  ASSERT_EQ(exec.sink_output(sink).size(), 1u);
  EXPECT_EQ(exec.sink_output(sink)[0].value(0).AsInt(), 4);
}

TEST(WatermarkTest, WatermarkRegressionsAreIgnored) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto win = graph->AddOperator(
      src, std::make_unique<WindowCountOperator>("count",
                                                 WindowSpec::Tumbling(100)));
  const auto sink = graph->AddSink(win, "sink");
  DagExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushWatermark(src, 500).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 200).ok());  // no-op, not an error
  EXPECT_EQ(exec.node_watermark(win), 500);
  ASSERT_TRUE(exec.PushBatch(src, Batch({V(600, 1.0)})).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 500).ok());  // idempotent re-send
  EXPECT_EQ(exec.node_watermark(win), 500);
  (void)sink;
}

TEST(WatermarkTest, FanInTakesMinOfInputWatermarks) {
  // join(a, b) -> window count: the count's windows close only once BOTH
  // inputs' watermarks pass the window end (min rule); one fast input
  // alone must not close them.
  auto graph = std::make_unique<ExecGraph>();
  const auto a = graph->AddSource("a");
  const auto b = graph->AddSource("b");
  const auto join = graph->AddJoin(
      a, b, std::make_unique<SlidingWindowJoin>("j", 1000, ConcatMatch()));
  const auto win = graph->AddOperator(
      join, std::make_unique<WindowCountOperator>("count",
                                                  WindowSpec::Tumbling(100)));
  const auto sink = graph->AddSink(win, "sink");
  DagExecutor exec(std::move(graph));

  ASSERT_TRUE(exec.PushBatch(a, Batch({V(10, 1.0)})).ok());
  ASSERT_TRUE(exec.PushBatch(b, Batch({V(20, 2.0)})).ok());  // one match
  ASSERT_TRUE(exec.PushWatermark(a, 500).ok());
  EXPECT_EQ(exec.node_watermark(join), INT64_MIN);  // b never spoke
  EXPECT_EQ(exec.sink_output(sink).size(), 0u);
  ASSERT_TRUE(exec.PushWatermark(b, 300).ok());
  EXPECT_EQ(exec.node_watermark(join), 300);  // min(500, 300)
  ASSERT_EQ(exec.sink_output(sink).size(), 1u);
  EXPECT_EQ(exec.sink_output(sink)[0].value(0).AsInt(), 1);
}

TEST(WatermarkTest, PeerWatermarkExpiresJoinBufferOfSilentSource) {
  // The idle-source fix at the join level: the LEFT side goes silent
  // after one tuple; right keeps flowing. Without watermarks the right
  // buffer grows without bound (left's clock never advances). A left
  // watermark — pure progress, no data — expires it.
  auto graph = std::make_unique<ExecGraph>();
  const auto a = graph->AddSource("a");
  const auto b = graph->AddSource("b");
  const auto join_id = graph->AddJoin(
      a, b, std::make_unique<SlidingWindowJoin>("j", 100, ConcatMatch()));
  graph->AddSink(join_id, "sink");
  DagExecutor exec(std::move(graph));

  ASSERT_TRUE(exec.PushBatch(a, Batch({V(0, 1.0)})).ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(exec.PushBatch(b, Batch({V(i * 100, 2.0)})).ok());
  }
  // Right buffer grew while left was silent: visible via metrics.
  uint64_t buffered_before = 0;
  for (const NodeMetrics& m : exec.MetricsSnapshot()) {
    if (m.node == join_id) buffered_before = m.metrics.buffered_bytes;
  }
  EXPECT_GT(buffered_before, 0u);
  // Left announces progress without data: right tuples below wm - range
  // are provably dead and must be dropped.
  ASSERT_TRUE(exec.PushWatermark(a, 5000).ok());
  uint64_t buffered_after = 0;
  int64_t low_wm = 0;
  for (const NodeMetrics& m : exec.MetricsSnapshot()) {
    if (m.node == join_id) {
      buffered_after = m.metrics.buffered_bytes;
      low_wm = m.metrics.low_watermark;
    }
  }
  EXPECT_LT(buffered_after, buffered_before);
  // Join low watermark = min of the two input watermarks; right's data
  // alone announces no progress.
  EXPECT_EQ(low_wm, INT64_MIN);
  ASSERT_TRUE(exec.PushWatermark(b, 4900).ok());
  for (const NodeMetrics& m : exec.MetricsSnapshot()) {
    if (m.node == join_id) low_wm = m.metrics.low_watermark;
  }
  EXPECT_EQ(low_wm, 4900);  // right wm 4900, left wm 5000
}

TEST(WatermarkTest, WindowedOperatorMetricsExposeWatermarkAndBytes) {
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto win_id = graph->AddOperator(
      src, std::make_unique<WindowCountOperator>("count",
                                                 WindowSpec::Tumbling(100)));
  graph->AddSink(win_id, "sink");
  DagExecutor exec(std::move(graph));

  ASSERT_TRUE(exec.PushBatch(src, Batch({V(10, 1.0), V(20, 2.0)})).ok());
  uint64_t buffered = 0;
  for (const NodeMetrics& m : exec.MetricsSnapshot()) {
    if (m.node == win_id) buffered = m.metrics.buffered_bytes;
  }
  EXPECT_GT(buffered, 0u);  // window [0, 100) holds two tuples
  ASSERT_TRUE(exec.PushWatermark(src, 120).ok());
  for (const NodeMetrics& m : exec.MetricsSnapshot()) {
    if (m.node == win_id) {
      EXPECT_EQ(m.metrics.buffered_bytes, 0u);  // window flushed
      EXPECT_EQ(m.metrics.low_watermark, 120);
    }
  }
}

// ---- paned closure: out-of-order input and late tuples -------------------

TEST(WatermarkTest, PanedWatermarkOnlyClosureToleratesOutOfOrderInput) {
  // The pane-incremental operator closes windows only by watermark, so
  // out-of-order input lands in its windows; sliding windows [s, s+100)
  // every 50.
  PanedGroupByAggregateOperator paned(
      "p", WindowSpec::Sliding(100, 50),
      [](const Tuple& t) { return std::to_string(t.value(0).AsInt()); },
      {CountPaneSpec()});
  VectorCollector out;
  ASSERT_TRUE(paned.Push(KV(160, 1, 1.0), &out).ok());
  ASSERT_TRUE(paned.Push(KV(40, 1, 1.0), &out).ok());   // late
  ASSERT_TRUE(paned.Push(KV(120, 1, 1.0), &out).ok());  // late
  EXPECT_TRUE(out.tuples().empty());
  ASSERT_TRUE(paned.AdvanceWatermark(150, &out).ok());
  // Windows ending <= 150: [-50,50) {ts40}, [0,100) {ts40}, [50,150)
  // {ts120}.
  ASSERT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.tuples()[0].timestamp(), 50);
  EXPECT_EQ(out.tuples()[0].value(1).AsInt(), 1);
  EXPECT_EQ(out.tuples()[1].timestamp(), 100);
  EXPECT_EQ(out.tuples()[1].value(1).AsInt(), 1);
  EXPECT_EQ(out.tuples()[2].timestamp(), 150);
  EXPECT_EQ(out.tuples()[2].value(1).AsInt(), 1);
  ASSERT_TRUE(paned.Close(&out).ok());
  // Remaining windows [100,200) {ts120, ts160} and [150,250) {ts160}.
  ASSERT_EQ(out.tuples().size(), 5u);
  EXPECT_EQ(out.tuples()[3].value(1).AsInt(), 2);
  EXPECT_EQ(out.tuples()[4].value(1).AsInt(), 1);
}

TEST(WatermarkTest, LateTuplesAreDroppedAndCounted) {
  // A tuple whose EVERY containing window the watermark already closed
  // could only re-open a window at or below a watermark the operator has
  // passed on: it is dropped, counted in late_dropped, and the push
  // returns OK (one late tuple must not fail the plan). A tuple with one
  // window still open is accepted. Sliding windows [s, s+100) every 50.
  PanedGroupByAggregateOperator paned(
      "p", WindowSpec::Sliding(100, 50),
      [](const Tuple& t) { return std::to_string(t.value(0).AsInt()); },
      {CountPaneSpec()});
  VectorCollector out;
  ASSERT_TRUE(paned.AdvanceWatermark(200, &out).ok());
  // ts 200: earliest window [150, 250) still open under wm 200 — fine.
  EXPECT_TRUE(paned.Push(KV(200, 1, 1.0), &out).ok());
  // ts 40: [-50, 50) and [0, 100) closed while empty — late.
  EXPECT_TRUE(paned.Push(KV(40, 1, 1.0), &out).ok());
  EXPECT_EQ(paned.metrics().late_dropped, 1u);
  EXPECT_TRUE(out.tuples().empty());

  ASSERT_TRUE(paned.AdvanceWatermark(250, &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);  // [150, 250) {ts200}
  // ts 220: [150, 250) was emitted but [200, 300) is open — accepted.
  EXPECT_TRUE(paned.Push(KV(220, 1, 1.0), &out).ok());
  // ts 190: [100, 200) and [150, 250) are closed — late.
  EXPECT_TRUE(paned.Push(KV(190, 1, 1.0), &out).ok());
  EXPECT_EQ(paned.metrics().late_dropped, 2u);
  ASSERT_EQ(out.tuples().size(), 1u);  // emitted windows unchanged
  EXPECT_EQ(out.tuples()[0].timestamp(), 250);
  EXPECT_EQ(out.tuples()[0].value(1).AsInt(), 1);
  ASSERT_TRUE(paned.Close(&out).ok());
  // [200, 300) {ts200, ts220} and [250, 350) {}: only the first emits.
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[1].timestamp(), 300);
  EXPECT_EQ(out.tuples()[1].value(1).AsInt(), 2);
}

// ---- sharded executor plumbing ------------------------------------------

TEST(WatermarkTest, ShardedPushWatermarkReachesEveryShard) {
  // Keyed window counts over 2 shards: tuples for key 0 and key 1 land on
  // different shards; one watermark must close the open window on BOTH.
  ShardedExecutor::Options opts;
  opts.num_shards = 2;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto win = g->AddOperator(
            source, std::make_unique<WindowCountOperator>(
                        "count", WindowSpec::Tumbling(100)));
        sink = g->AddSink(win, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch feed;
  for (int64_t i = 0; i < 16; ++i) feed.Append(KV(10 + i, i % 2, 1.0));
  ASSERT_TRUE(exec->PushBatch(source, std::move(feed)).ok());
  ASSERT_TRUE(exec->PushWatermark(source, 100).ok());
  // Observable pre-Finish through the merged metrics: both shards' window
  // operators saw the watermark and flushed (tuples_out 1 each).
  uint64_t flushed = 0;
  int64_t low_wm = INT64_MIN;
  const bool converged = WaitUntil([&] {
    flushed = 0;
    for (const NodeMetrics& m : exec->MetricsSnapshot()) {
      if (m.name == "count") {
        flushed = m.metrics.tuples_out;
        low_wm = m.metrics.low_watermark;
      }
    }
    return flushed >= 2;
  });
  EXPECT_TRUE(converged) << "watermark did not reach both shards";
  EXPECT_EQ(flushed, 2u);
  EXPECT_EQ(low_wm, 100);
  ASSERT_TRUE(exec->Finish().ok());
  EXPECT_EQ(exec->sink_output(sink).size(), 2u);
  // Lane FIFO orders the watermark after the data it covers: each shard's
  // window closed holding all 8 of its tuples.
  for (const Tuple& row : exec->sink_output(sink)) {
    EXPECT_EQ(row.value(0).AsInt(), 8);
  }
}

TEST(WatermarkTest, PeriodicGenerationClosesWindowsMidStream) {
  // Ingested timestamps alone generate the progress signal; windows flush
  // while the stream is still running (no Finish, no explicit
  // PushWatermark). Key 0 lands on shard 0 and then stops; key 1 keeps
  // shard 1 busy. Shard 0 never sees another slice, so only the periodic
  // broadcast (Options::watermark_period_us) can close its window.
  ShardedExecutor::Options opts;
  opts.num_shards = 2;
  opts.watermark_period_us = 50;
  ExecGraph::NodeId source = 0;
  const auto key_is_shard = [](const Tuple& t) {
    return static_cast<uint64_t>(t.value(0).AsInt());
  };
  auto exec_or = ShardedExecutor::Create(
      opts, key_is_shard, [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto win = g->AddOperator(
            source, std::make_unique<WindowCountOperator>(
                        "count", WindowSpec::Tumbling(100)));
        g->AddSink(win, "out");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  for (int64_t i = 0; i < 30; ++i) {
    TupleBatch b;
    b.Append(KV(i * 10, i < 10 ? 0 : 1, 1.0));
    ASSERT_TRUE(exec->PushBatch(source, std::move(b)).ok());
  }
  // ts reached 290 => watermarks reached >= 250 => shard 0's [0,100) and
  // shard 1's [100,200) flushed without any explicit watermark call.
  uint64_t flushed = 0;
  const bool converged = WaitUntil([&] {
    for (const NodeMetrics& m : exec->MetricsSnapshot()) {
      if (m.name == "count") flushed = m.metrics.tuples_out;
    }
    return flushed >= 2;
  });
  EXPECT_TRUE(converged) << "periodic watermarks never closed a window";
  ASSERT_TRUE(exec->Finish().ok());
}

TEST(WatermarkTest, NegativeGenerationSettingsAreRejected) {
  // A negative lateness would promise past the data, and a negative
  // period is meaningless; Create() refuses both before building a shard.
  const auto build = [](ExecGraph* g, const ShardContext&) {
    g->AddSink(g->AddSource("src"), "out");
    return common::Status::OK();
  };
  ShardedExecutor::Options late;
  late.watermark_period_us = 50;
  late.watermark_lateness_us = -1;
  auto late_or = ShardedExecutor::Create(late, KeyByIntValue(0), build);
  ASSERT_FALSE(late_or.ok());
  EXPECT_EQ(late_or.status().code(), common::StatusCode::kInvalidArgument);

  ShardedExecutor::Options period;
  period.watermark_period_us = -1;
  auto period_or = ShardedExecutor::Create(period, KeyByIntValue(0), build);
  ASSERT_FALSE(period_or.ok());
  EXPECT_EQ(period_or.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stream
}  // namespace usp
