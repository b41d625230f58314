// Sharded executor tests: shard-count determinism on keyed plans, merged
// metrics, key-hash shard placement, error propagation, and the
// inline rule (one shard behind one lane runs on the pushing thread).

#include "stream/sharded_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stats/gaussian.h"
#include "stream/basic_operators.h"
#include "stream/group_by.h"
#include "stream/pane_window.h"
#include "uncertain/pane_aggregates.h"

namespace usp {
namespace stream {
namespace {

Tuple KV(int64_t ts, int64_t key, double v) {
  Tuple t(ts, {Value(key), Value(v)});
  t.InitBaseLineage();
  return t;
}

// A keyed windowed plan: group by the int key, SUM the double attribute
// over 100 us tumbling windows.
common::Status BuildKeyedSumPlan(ExecGraph* g, ExecGraph::NodeId* source,
                                 ExecGraph::NodeId* sink) {
  *source = g->AddSource("src");
  const auto group = g->AddOperator(
      *source,
      std::make_unique<GroupByAggregateOperator>(
          "sum_by_key", WindowSpec::Tumbling(100),
          [](const Tuple& t) { return std::to_string(t.value(0).AsInt()); },
          std::vector<AggregateSpec>{
              {"sum",
               [](const std::vector<const Tuple*>& group_tuples)
                   -> common::Result<Value> {
                 double sum = 0.0;
                 for (const Tuple* t : group_tuples) {
                   sum += t->value(1).AsDouble();
                 }
                 return Value(sum);
               }}}));
  *sink = g->AddSink(group, "sink");
  return common::Status::OK();
}

TupleBatch MakeKeyedStream(size_t n) {
  TupleBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.Append(KV(static_cast<int64_t>(i), static_cast<int64_t>(i % 17),
                    static_cast<double>(i % 5) + 0.5));
  }
  return batch;
}

// (window_end, key) -> sum, canonical comparison form.
std::vector<std::tuple<int64_t, std::string, double>> Canonical(
    const TupleBatch& batch) {
  std::vector<std::tuple<int64_t, std::string, double>> out;
  out.reserve(batch.size());
  for (const Tuple& t : batch) {
    out.emplace_back(t.timestamp(), t.value(0).AsString(),
                     t.value(1).AsDouble());
  }
  std::sort(out.begin(), out.end());
  return out;
}

common::Result<TupleBatch> RunKeyedPlan(size_t num_shards, size_t n) {
  ShardedExecutor::Options opts;
  opts.num_shards = num_shards;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0),
      [&](ExecGraph* g, const ShardContext&) {
        return BuildKeyedSumPlan(g, &source, &sink);
      });
  USP_RETURN_NOT_OK(exec_or.status());
  auto exec = exec_or.MoveValueUnsafe();
  USP_RETURN_NOT_OK(exec->PushBatch(0, source, MakeKeyedStream(n)));
  USP_RETURN_NOT_OK(exec->Finish());
  return exec->TakeSinkOutput(sink);
}

TEST(ShardedExecutorTest, KeyedPlanIsDeterministicAcrossShardCounts) {
  auto one = RunKeyedPlan(1, 2000);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const auto reference = Canonical(one.value());
  ASSERT_FALSE(reference.empty());
  for (size_t shards : {2u, 4u, 8u}) {
    auto many = RunKeyedPlan(shards, 2000);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    EXPECT_EQ(Canonical(many.value()), reference)
        << "results differ at " << shards << " shards";
  }
}

TEST(ShardedExecutorTest, PinnedThreadsMatchUnpinnedResults) {
  // pin_threads is a placement optimisation only: workers self-pin, ring
  // slots are first-touched on the worker's core, and the producer is
  // pinned on its first push — none of which may change a single result.
  // Runs regardless of core count (pinning is modulo ncpu, failures are
  // best-effort ignored), so this also covers the 1-core degenerate case.
  auto unpinned = RunKeyedPlan(1, 2000);
  ASSERT_TRUE(unpinned.ok()) << unpinned.status().ToString();
  const auto reference = Canonical(unpinned.value());
  ASSERT_FALSE(reference.empty());
  for (size_t shards : {1u, 4u}) {
    ShardedExecutor::Options opts;
    opts.num_shards = shards;
    opts.num_ingest_lanes = 2;
    opts.pin_threads = true;
    ExecGraph::NodeId source = 0, sink = 0;
    auto exec_or = ShardedExecutor::Create(
        opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
          return BuildKeyedSumPlan(g, &source, &sink);
        });
    ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
    auto exec = exec_or.MoveValueUnsafe();
    ASSERT_TRUE(exec->PushBatch(0, source, MakeKeyedStream(2000)).ok());
    ASSERT_TRUE(exec->Finish().ok());
    EXPECT_EQ(Canonical(exec->TakeSinkOutput(sink)), reference)
        << "pinned run differs at " << shards << " shards";
  }
}

TEST(ShardedExecutorTest, MergedSinkOutputIsTimestampSorted) {
  auto out = RunKeyedPlan(4, 2000);
  ASSERT_TRUE(out.ok());
  const auto& tuples = out.value().tuples();
  ASSERT_FALSE(tuples.empty());
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LE(tuples[i - 1].timestamp(), tuples[i].timestamp());
  }
}

TEST(ShardedExecutorTest, MetricsMergeAcrossShards) {
  ShardedExecutor::Options opts;
  opts.num_shards = 4;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto pass = g->AddOperator(
            source, std::make_unique<FilterOperator>(
                        "pass", [](const Tuple&) { return true; }));
        sink = g->AddSink(pass, "sink");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  ASSERT_TRUE(exec->PushBatch(0, source, MakeKeyedStream(1000)).ok());
  ASSERT_TRUE(exec->Finish().ok());
  const auto metrics = exec->MetricsSnapshot();
  // One operator entry plus the appended ingest entry for the source.
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "pass");
  // Every pushed tuple was seen exactly once across the shard-private
  // operator copies.
  EXPECT_EQ(metrics[0].metrics.tuples_in, 1000u);
  EXPECT_EQ(metrics[0].metrics.tuples_out, 1000u);
  EXPECT_EQ(metrics[1].name, "src");
  EXPECT_EQ(metrics[1].metrics.tuples_in, 1000u);
  EXPECT_GE(metrics[1].metrics.batches_in, 1u);
  EXPECT_EQ(exec->sink_output(sink).size(), 1000u);
}

TEST(ShardedExecutorTest, ShardPlacementFollowsKeyHash) {
  ShardedExecutor::Options opts;
  opts.num_shards = 4;
  // One id list per shard, each written only by the thread running that
  // shard and read after Finish() has joined the workers.
  std::vector<std::vector<TupleId>> seen(opts.num_shards);
  ExecGraph::NodeId source = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext& ctx) {
        source = g->AddSource("src");
        std::vector<TupleId>* mine = &seen[ctx.shard_index];
        const auto tap = g->AddOperator(
            source, std::make_unique<TapOperator>(
                        "record", [mine](const Tuple& t) {
                          mine->push_back(t.id());
                        }));
        g->AddSink(tap, "sink");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch batch;
  std::vector<Tuple> originals;
  for (int i = 0; i < 64; ++i) {
    Tuple t = KV(i, i % 8, 1.0);
    originals.push_back(t);
    batch.Append(std::move(t));
  }
  ASSERT_TRUE(exec->PushBatch(0, source, batch).ok());
  ASSERT_TRUE(exec->Finish().ok());
  // Every tuple is seen exactly once, on the shard its key hashes to.
  size_t total = 0;
  for (const auto& ids : seen) total += ids.size();
  EXPECT_EQ(total, 64u);
  for (const Tuple& t : originals) {
    const size_t expected_shard =
        std::hash<int64_t>{}(t.value(0).AsInt()) % exec->num_shards();
    EXPECT_EQ(std::count(seen[expected_shard].begin(),
                         seen[expected_shard].end(), t.id()),
              1)
        << "tuple " << t.id() << " with key " << t.value(0).AsInt();
  }
}

TEST(ShardedExecutorTest, OperatorErrorSurfacesAtFinish) {
  ShardedExecutor::Options opts;
  opts.num_shards = 2;
  ExecGraph::NodeId source = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto boom = g->AddOperator(
            source, std::make_unique<MapOperator>(
                        "boom", [](const Tuple& t) -> common::Result<Tuple> {
                          if (t.value(0).AsInt() == 3) {
                            return common::Status::Internal("boom");
                          }
                          return t;
                        }));
        g->AddSink(boom, "sink");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  (void)exec->PushBatch(0, source, MakeKeyedStream(100));
  EXPECT_FALSE(exec->Finish().ok());
}

TEST(ShardedExecutorTest, ShardContextWorkspaceFeedsPaneAggregates) {
  // A keyed pane-incremental CF-inversion plan bound to the shard's
  // CfInversionWorkspace via ShardContext: results must be identical to a
  // single-shard run (the workspace is scratch, never state).
  auto build_stream = [] {
    TupleBatch batch;
    for (size_t i = 0; i < 400; ++i) {
      Tuple t(static_cast<int64_t>(i),
              {Value(static_cast<int64_t>(i % 3)),
               Value(stats::DistributionPtr(std::make_shared<stats::Gaussian>(
                   static_cast<double>(i % 7) - 3.0,
                   0.5 + 0.1 * static_cast<double>(i % 4))))});
      t.InitBaseLineage();
      batch.Append(t);
    }
    return batch;
  };
  auto run = [&](size_t num_shards) {
    ShardedExecutor::Options opts;
    opts.num_shards = num_shards;
    ExecGraph::NodeId source = 0, sink = 0;
    auto exec_or = ShardedExecutor::Create(
        opts, KeyByIntValue(0),
        [&](ExecGraph* g, const ShardContext& ctx) {
          EXPECT_NE(ctx.cf_workspace, nullptr);
          source = g->AddSource("src");
          uncertain::PaneAggregateOptions popts;
          popts.grid_points = 256;
          popts.workspace = ctx.cf_workspace;
          std::vector<PaneAggregateSpec> aggs;
          aggs.push_back(uncertain::MakePaneSumAggregate(
              "sum", 1, uncertain::SumStrategyKind::kCfInversion, popts));
          const auto agg = g->AddOperator(
              source,
              std::make_unique<PanedGroupByAggregateOperator>(
                  "q1", WindowSpec::Sliding(40, 10),
                  [](const Tuple& t) {
                    return std::to_string(t.value(0).AsInt());
                  },
                  std::move(aggs)));
          sink = g->AddSink(agg, "sink");
          return common::Status::OK();
        });
    EXPECT_TRUE(exec_or.ok());
    auto exec = exec_or.MoveValueUnsafe();
    EXPECT_TRUE(exec->PushBatch(0, source, build_stream()).ok());
    EXPECT_TRUE(exec->Finish().ok());
    return exec->TakeSinkOutput(sink);
  };
  const TupleBatch one = run(1);
  const TupleBatch four = run(4);
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(one.size(), four.size());
  auto canonical = [](const TupleBatch& batch) {
    std::vector<std::tuple<int64_t, std::string, double, double>> out;
    for (const Tuple& t : batch) {
      const auto& d = *t.value(1).AsDistribution();
      out.emplace_back(t.timestamp(), t.value(0).AsString(), d.Mean(),
                       d.Variance());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canonical(one), canonical(four));
}

TEST(ShardedExecutorTest, CreateRejectsBadOptions) {
  ShardedExecutor::Options opts;
  opts.num_shards = 0;
  auto r = ShardedExecutor::Create(
      opts, KeyByIntValue(0),
      [](ExecGraph* g, const ShardContext&) {
        const auto s = g->AddSource("src");
        g->AddSink(s, "sink");
        return common::Status::OK();
      });
  EXPECT_FALSE(r.ok());
}

// ---- inline rule: 1 shard, 1 lane runs on the pushing thread --------------

/// source -> "where" map (records the thread each tuple runs on) -> sink.
common::Result<std::unique_ptr<ShardedExecutor>> MakeThreadRecordingPlan(
    std::vector<std::thread::id>* threads, ExecGraph::NodeId* source,
    ExecGraph::NodeId* sink) {
  return ShardedExecutor::Create(
      ShardedExecutor::Options(), KeyByIntValue(0),
      [=](ExecGraph* g, const ShardContext&) {
        *source = g->AddSource("src");
        const auto where = g->AddOperator(
            *source,
            std::make_unique<MapOperator>(
                "where", [threads](const Tuple& t) -> common::Result<Tuple> {
                  threads->push_back(std::this_thread::get_id());
                  return t;
                }));
        *sink = g->AddSink(where, "sink");
        return common::Status::OK();
      });
}

TEST(ShardedExecutorTest, InlineModeRunsOperatorsOnCallingThread) {
  std::vector<std::thread::id> threads;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = MakeThreadRecordingPlan(&threads, &source, &sink);
  ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  ASSERT_TRUE(exec->PushBatch(0, source, MakeKeyedStream(50)).ok());
  // Processed before the push returned, on this thread.
  ASSERT_EQ(threads.size(), 50u);
  ASSERT_TRUE(exec->PushBatch(0, source, MakeKeyedStream(30)).ok());
  ASSERT_TRUE(exec->Finish().ok());
  ASSERT_EQ(threads.size(), 80u);
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(exec->sink_output(sink).size(), 80u);
}

TEST(ShardedExecutorTest, InlineModeKeepsEmissionOrder) {
  // One shard: the merge takes the shard's output as emitted, without a
  // timestamp sort.
  std::vector<std::thread::id> threads;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = MakeThreadRecordingPlan(&threads, &source, &sink);
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch batch;
  for (int64_t ts : {30, 10, 20}) batch.Append(KV(ts, ts, 1.0));
  ASSERT_TRUE(exec->PushBatch(0, source, std::move(batch)).ok());
  ASSERT_TRUE(exec->Finish().ok());
  const TupleBatch& out = exec->sink_output(sink);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.tuples()[0].timestamp(), 30);
  EXPECT_EQ(out.tuples()[1].timestamp(), 10);
  EXPECT_EQ(out.tuples()[2].timestamp(), 20);
}

TEST(ShardedExecutorTest, InlineOperatorErrorReturnedByThePushThatHitIt) {
  ExecGraph::NodeId source = 0;
  auto exec_or = ShardedExecutor::Create(
      ShardedExecutor::Options(), KeyByIntValue(0),
      [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        const auto boom = g->AddOperator(
            source, std::make_unique<MapOperator>(
                        "boom", [](const Tuple& t) -> common::Result<Tuple> {
                          if (t.value(0).AsInt() == 3) {
                            return common::Status::Internal("boom");
                          }
                          return t;
                        }));
        g->AddSink(boom, "sink");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok());
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch clean;
  clean.Append(KV(0, 1, 1.0));
  ASSERT_TRUE(exec->PushBatch(0, source, std::move(clean)).ok());
  TupleBatch bad;
  bad.Append(KV(1, 3, 1.0));
  const common::Status st = exec->PushBatch(0, source, std::move(bad));
  EXPECT_EQ(st.code(), common::StatusCode::kInternal) << st.ToString();
  EXPECT_FALSE(exec->Finish().ok());
}

TEST(ShardedExecutorTest, InlineWatermarkClosureEmitsBeforePushReturns) {
  // The aggregate closes windows only by watermark; the watermark that
  // closes [0, 100) is carried by the second push's slice, and the row
  // must reach the downstream map before that push returns.
  std::vector<std::thread::id> observed;
  ShardedExecutor::Options opts;
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
        source = g->AddSource("src");
        auto agg = std::make_unique<PanedGroupByAggregateOperator>(
            "count", WindowSpec::Tumbling(100),
            [](const Tuple&) { return std::string("all"); },
            std::vector<PaneAggregateSpec>{
                uncertain::MakePaneCountAggregate("n")});
        const auto count = g->AddOperator(source, std::move(agg));
        const auto observe = g->AddOperator(
            count, std::make_unique<MapOperator>(
                       "observe",
                       [&observed](const Tuple& t) -> common::Result<Tuple> {
                         observed.push_back(std::this_thread::get_id());
                         return t;
                       }));
        sink = g->AddSink(observe, "sink");
        return common::Status::OK();
      });
  ASSERT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  TupleBatch first;
  for (int64_t ts = 0; ts < 90; ts += 10) first.Append(KV(ts, 0, 1.0));
  ASSERT_TRUE(exec->PushBatch(0, source, std::move(first)).ok());
  EXPECT_TRUE(observed.empty());  // watermark 80: window still open
  TupleBatch second;
  second.Append(KV(140, 0, 1.0));
  ASSERT_TRUE(exec->PushBatch(0, source, std::move(second)).ok());
  ASSERT_EQ(observed.size(), 1u) << "closed window not emitted in the push";
  EXPECT_EQ(observed[0], std::this_thread::get_id());
  ASSERT_TRUE(exec->Finish().ok());
  const TupleBatch& out = exec->sink_output(sink);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tuples()[0].timestamp(), 100);
  EXPECT_EQ(out.tuples()[0].value(1).AsInt(), 9);
}

// ---- admission: only source ids are pushable ------------------------------

TEST(ShardedExecutorTest, NonSourcePushIsRejectedAndDoesNotPoisonThePlan) {
  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    ShardedExecutor::Options opts;
    opts.num_shards = shards;
    ExecGraph::NodeId source = 0, op = 0, sink = 0;
    auto exec_or = ShardedExecutor::Create(
        opts, KeyByIntValue(0), [&](ExecGraph* g, const ShardContext&) {
          source = g->AddSource("src");
          op = g->AddOperator(source,
                              std::make_unique<FilterOperator>(
                                  "pass", [](const Tuple&) { return true; }));
          sink = g->AddSink(op, "sink");
          return common::Status::OK();
        });
    ASSERT_TRUE(exec_or.ok());
    auto exec = exec_or.MoveValueUnsafe();
    for (ExecGraph::NodeId bad : {op, sink}) {
      TupleBatch batch;
      batch.Append(KV(0, 1, 1.0));
      EXPECT_EQ(exec->PushBatch(0, bad, std::move(batch)).code(),
                common::StatusCode::kInvalidArgument);
      EXPECT_EQ(exec->PushWatermark(0, bad, 10).code(),
                common::StatusCode::kInvalidArgument);
    }
    TupleBatch good;
    for (int64_t i = 0; i < 3; ++i) good.Append(KV(i, i, 1.0));
    ASSERT_TRUE(exec->PushBatch(0, source, std::move(good)).ok());
    ASSERT_TRUE(exec->Finish().ok());
    EXPECT_EQ(exec->sink_output(sink).size(), 3u);
  }
}

}  // namespace
}  // namespace stream
}  // namespace usp
