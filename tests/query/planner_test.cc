// Planner decision tests: builder-compiled plans are result-identical to
// the hand-wired graphs they replaced, shard keys derive from the group-by
// (replaying upstream maps when needed), and invalid logical plans fail at
// Compile() with actionable statuses instead of failing at runtime. The
// paned-vs-naive aggregate comparison lives in the differential harness
// (tests/stream/differential_test.cc).
//
// Hand-wired ExecGraph construction is allowed HERE (and inside the
// planner) precisely because these are the graph-level equivalence
// baselines; examples and benches go through the builder.

#include "query/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/basic_operators.h"
#include "stream/exec_graph.h"
#include "stream/group_by.h"
#include "stream/join.h"
#include "stream/sharded_executor.h"
#include "uncertain/aggregates.h"
#include "uncertain/join_predicates.h"
#include "uncertain/sum_strategies.h"

#include "../stream/test_wait.h"

namespace usp {
namespace query {
namespace {

using stream::DagExecutor;
using stream::ExecGraph;
using stream::ShardContext;
using stream::ShardedExecutor;
using stream::Tuple;
using stream::TupleBatch;
using stream::Value;
using stream::WindowSpec;

// ---- canonical result rendering (bitwise via %.17g round-trips) ---------

std::string RenderValue(const Value& v) {
  char buf[96];
  switch (v.kind()) {
    case stream::ValueKind::kString:
      return v.AsString();
    case stream::ValueKind::kInt:
      return std::to_string(v.AsInt());
    case stream::ValueKind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    case stream::ValueKind::kDistribution: {
      const auto& d = *v.AsDistribution();
      std::snprintf(buf, sizeof(buf), "d(%.17g,%.17g)", d.Mean(),
                    d.Variance());
      return buf;
    }
    case stream::ValueKind::kNull:
      return "null";
  }
  return "?";
}

std::string RenderTuple(const Tuple& t) {
  std::string out = std::to_string(t.timestamp());
  for (size_t i = 0; i < t.num_values(); ++i) {
    out += "|" + RenderValue(t.value(i));
  }
  return out;
}

/// Exact result sequence (single-threaded plans: order is deterministic).
std::vector<std::string> Rendered(const TupleBatch& batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  for (const Tuple& t : batch) out.push_back(RenderTuple(t));
  return out;
}

/// Result set, sorted: shard merges only guarantee set identity plus
/// timestamp order (equal-timestamp ties follow shard assignment).
std::vector<std::string> Canonical(const TupleBatch& batch) {
  auto out = Rendered(batch);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Q1: keyed tumbling group-by, hand-wired vs. builder ----------------

// Location tuple (tag:int, x:dist, y:dist) with a deterministic layout.
Tuple LocationTuple(int64_t ts, int64_t tag, double x, double y) {
  Tuple t(ts, {Value(tag),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(x, 0.5))),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(y, 0.5)))});
  t.InitBaseLineage();
  return t;
}

std::vector<TupleBatch> Q1Input() {
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t ts = i * 40'000;  // 24 s of stream, 5 s windows
    const double x = 5.0 + 11.0 * static_cast<double>(i % 7);
    const double y = 5.0 + 11.0 * static_cast<double>((i / 7) % 5);
    batch.Append(LocationTuple(ts, i % 23, x, y));
    if (batch.size() == 64) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::string AreaOf(double x, double y) {
  return "area_" + std::to_string(static_cast<int>(x / 10.0)) + "_" +
         std::to_string(static_cast<int>(y / 10.0));
}

common::Result<Tuple> AnnotateAreaWeight(const Tuple& t) {
  Tuple out = t;
  const double x = t.value(1).AsDistribution()->Mean();
  const double y = t.value(2).AsDistribution()->Mean();
  out.AppendValue(Value(AreaOf(x, y)));
  // Uncertain weight derived from the tag (deterministic).
  const double mean = 20.0 + static_cast<double>(t.value(0).AsInt() % 7);
  out.AppendValue(Value(stats::DistributionPtr(
      std::make_shared<stats::Gaussian>(mean, 1.5))));
  return out;
}

// The pre-query-layer wiring, verbatim plan shape of the old
// examples/fire_code_monitoring.cpp: hand-picked shard key, hand-chosen
// naive operator, hand-managed per-shard strategy instances.
TupleBatch RunQ1HandWired(size_t num_shards) {
  ShardedExecutor::Options opts;
  opts.num_shards = num_shards;
  std::vector<std::unique_ptr<uncertain::CfApproxSum>> strategies(num_shards);
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts,
      [](const Tuple& t) {
        const int cx = static_cast<int>(
            t.value(1).AsDistribution()->Mean() / 10.0);
        const int cy = static_cast<int>(
            t.value(2).AsDistribution()->Mean() / 10.0);
        return std::hash<int64_t>{}((static_cast<int64_t>(cx) << 32) ^
                                    static_cast<uint32_t>(cy));
      },
      [&](ExecGraph* g, const ShardContext& ctx) {
        strategies[ctx.shard_index] =
            std::make_unique<uncertain::CfApproxSum>();
        source = g->AddSource("rfid_stream");
        const auto annotate = g->AddOperator(
            source,
            std::make_unique<stream::MapOperator>("annotate",
                                                  AnnotateAreaWeight));
        const auto group = g->AddOperator(
            annotate,
            std::make_unique<stream::GroupByAggregateOperator>(
                "q1", WindowSpec::Tumbling(5'000'000),
                [](const Tuple& t) { return t.value(3).AsString(); },
                std::vector<stream::AggregateSpec>{
                    uncertain::MakeSumAggregate(
                        "total_weight", 4, strategies[ctx.shard_index].get())},
                uncertain::MakeHavingProbGreater(1, 60.0, 0.5)));
        sink = g->AddSink(group, "alerts");
        return common::Status::OK();
      });
  EXPECT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  for (const TupleBatch& b : Q1Input()) {
    EXPECT_TRUE(exec->PushBatch(source, b).ok());
  }
  EXPECT_TRUE(exec->Finish().ok());
  return exec->TakeSinkOutput(sink);
}

Query Q1Builder() {
  return Query::From("rfid_stream", 3)
      .Map("annotate", AnnotateAreaWeight, 5)
      .Window(WindowSpec::Tumbling(5'000'000))
      .GroupBy(3)
      .Sum("total_weight", 4, uncertain::SumStrategyKind::kCfApprox)
      .Having(uncertain::MakeHavingProbGreater(1, 60.0, 0.5))
      .Sink("alerts");
}

common::Result<TupleBatch> RunQ1Builder(size_t num_shards) {
  PlannerOptions opts;
  opts.num_shards = num_shards;
  auto compiled_or = Q1Builder().Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto source = compiled->source("rfid_stream");
  for (const TupleBatch& b : Q1Input()) {
    USP_RETURN_NOT_OK(compiled->PushBatch(source, b));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("alerts"));
}

TEST(PlannerTest, Q1BuilderMatchesHandWiredFourShards) {
  const TupleBatch hand = RunQ1HandWired(4);
  auto built_or = RunQ1Builder(4);
  ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
  ASSERT_FALSE(hand.empty());
  // Tumbling window + per-shard arrival order preserved => the group
  // contents and their order are identical, so the aggregates are bitwise
  // equal; only equal-timestamp tie order may differ (different shard
  // keys), hence the canonical (sorted) comparison.
  EXPECT_EQ(Canonical(built_or.value()), Canonical(hand));
}

TEST(PlannerTest, Q1BuilderShardCountInvariant) {
  auto one_or = RunQ1Builder(1);
  auto four_or = RunQ1Builder(4);
  ASSERT_TRUE(one_or.ok()) << one_or.status().ToString();
  ASSERT_TRUE(four_or.ok()) << four_or.status().ToString();
  ASSERT_FALSE(one_or.value().empty());
  EXPECT_EQ(Canonical(one_or.value()), Canonical(four_or.value()));
}

TEST(PlannerTest, Q1ShardKeyIsReplayedGroupKey) {
  // The group key reads attribute 3, which only exists after the
  // annotate map: the planner must replay the map at ingest to derive
  // the partition key.
  PlannerOptions opts;
  opts.num_shards = 4;
  auto compiled_or = Q1Builder().Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_EQ(s.num_shards, 4u);
  EXPECT_EQ(s.shard_key_source,
            PlanSummary::ShardKeySource::kReplayedGroupKey);
  ASSERT_EQ(s.aggregates.size(), 1u);
}

// ---- Q2: fan-in join, hand-wired vs. builder ----------------------------

Tuple ObjectTuple(int64_t ts, int64_t tag, double x, double y) {
  Tuple t(ts, {Value(tag),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(x, 0.8))),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(y, 0.8)))});
  t.InitBaseLineage();
  return t;
}

Tuple TempTuple(int64_t ts, double x, double y, double temp) {
  Tuple t(ts, {Value(x), Value(y),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(temp, 2.0)))});
  t.InitBaseLineage();
  return t;
}

uncertain::EqualityJoinSpec Q2Spec() {
  uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {1, 2};
  spec.right_attrs = {0, 1};
  spec.eps = 3.0;
  spec.min_confidence = 0.3;
  return spec;
}

bool FlammablePred(const Tuple& t) { return t.value(0).AsInt() % 3 == 0; }

// Interleaved object/temperature pushes in global timestamp order.
void DriveQ2(const std::function<void(bool /*left*/, Tuple)>& push) {
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t ts = i * 500'000;
    push(true, ObjectTuple(ts, i % 9, 5.0 + static_cast<double>(i % 4),
                           5.0 + static_cast<double>(i % 3)));
    if (i % 4 == 0) {
      push(false, TempTuple(ts + 1, 6.0, 6.0,
                            55.0 + static_cast<double>(i % 20)));
    }
  }
}

TupleBatch RunQ2HandWired() {
  auto graph = std::make_unique<ExecGraph>();
  const auto rfid_src = graph->AddSource("rfid_stream");
  const auto temp_src = graph->AddSource("temp_stream");
  const auto flammable = graph->AddOperator(
      rfid_src,
      std::make_unique<stream::FilterOperator>("flammable", FlammablePred));
  const auto join = graph->AddJoin(
      flammable, temp_src,
      std::make_unique<stream::SlidingWindowJoin>(
          "q2", 3'000'000,
          uncertain::MakeProbabilisticEqualityMatch(Q2Spec())));
  const auto sink = graph->AddSink(join, "alerts");
  EXPECT_TRUE(graph->Validate().ok());
  DagExecutor exec(std::move(graph));
  DriveQ2([&](bool left, Tuple t) {
    EXPECT_TRUE(exec.Push(left ? rfid_src : temp_src, t).ok());
  });
  EXPECT_TRUE(exec.Close().ok());
  return exec.TakeSinkOutput(sink);
}

common::Result<TupleBatch> RunQ2Builder() {
  auto rfid = Query::From("rfid_stream", 3);
  auto temps = Query::From("temp_stream", 3);
  auto q2 = rfid.Filter("flammable", FlammablePred)
                .Join(temps, 3'000'000,
                      uncertain::MakeProbabilisticEqualityMatch(Q2Spec()),
                      "q2")
                .Sink("alerts");
  auto compiled_or = q2.Compile();
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto rfid_id = compiled->source("rfid_stream");
  const auto temp_id = compiled->source("temp_stream");
  common::Status push_status;
  DriveQ2([&](bool left, Tuple t) {
    const auto st = compiled->Push(left ? rfid_id : temp_id, std::move(t));
    if (push_status.ok() && !st.ok()) push_status = st;
  });
  USP_RETURN_NOT_OK(push_status);
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("alerts"));
}

TEST(PlannerTest, Q2BuilderMatchesHandWiredFanInJoin) {
  const TupleBatch hand = RunQ2HandWired();
  auto built_or = RunQ2Builder();
  ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
  ASSERT_FALSE(hand.empty());
  // Single-threaded DAG on both sides: sequences must match exactly,
  // including order.
  EXPECT_EQ(Rendered(built_or.value()), Rendered(hand));
}

// ---- planner decisions --------------------------------------------------

TupleBatch MakeKeyedGaussianStream(size_t n) {
  TupleBatch batch;
  for (size_t i = 0; i < n; ++i) {
    Tuple t(static_cast<int64_t>(i * 7),
            {Value(static_cast<int64_t>(i % 4)),
             Value(stats::DistributionPtr(std::make_shared<stats::Gaussian>(
                 static_cast<double>(i % 9) - 4.0,
                 0.5 + 0.1 * static_cast<double>(i % 3))))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
  }
  return batch;
}

Query KeyedSumQuery(WindowSpec spec) {
  return Query::From("src", 2)
      .Window(spec)
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kClt)
      .Sink("out");
}

common::Result<TupleBatch> RunKeyedSum(WindowSpec spec,
                                       const PlannerOptions& opts) {
  auto compiled_or = KeyedSumQuery(spec).Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  USP_RETURN_NOT_OK(compiled->PushBatch(compiled->source("src"),
                                        MakeKeyedGaussianStream(500)));
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("out"));
}

TEST(PlannerTest, ShardedKeyedSumMatchesSingleShard) {
  // Filters-only upstream: the shard key is the hashed group key itself.
  PlannerOptions four;
  four.num_shards = 4;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(four);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  EXPECT_EQ(compiled_or.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kGroupKey);
  auto one = RunKeyedSum(WindowSpec::Tumbling(100), PlannerOptions{});
  auto sharded = RunKeyedSum(WindowSpec::Tumbling(100), four);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(Canonical(one.value()), Canonical(sharded.value()));
}

TEST(PlannerTest, CfInversionWorkspaceWiredIntoShardedPlan) {
  // CF-inversion SUM needs the per-shard CfInversionWorkspace; result
  // must be shard-count-invariant if the wiring is scratch-only.
  auto query = Query::From("src", 2)
                   .Window(WindowSpec::Sliding(40, 10))
                   .GroupBy(0)
                   .Sum("total", 1, uncertain::SumStrategyKind::kCfInversion)
                   .Sink("out");
  auto run = [&](size_t shards) {
    PlannerOptions opts;
    opts.num_shards = shards;
    auto compiled_or = query.Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    EXPECT_TRUE(compiled
                    ->PushBatch(compiled->source("src"),
                                MakeKeyedGaussianStream(300))
                    .ok());
    EXPECT_TRUE(compiled->Finish().ok());
    return compiled->TakeResult(compiled->sink("out"));
  };
  const TupleBatch one = run(1);
  const TupleBatch four = run(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(Canonical(one), Canonical(four));
}

// ---- compile-time failures ----------------------------------------------

TEST(PlannerTest, AggregateWithoutWindowFailsAtCompile) {
  auto q = Query::From("src", 2).GroupBy(0).Sum("total", 1).Sink("out");
  auto compiled = q.Compile();
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("no window"), std::string::npos)
      << compiled.status().ToString();
}

TEST(PlannerTest, UnknownKeyFailsAtCompile) {
  auto q = Query::From("src", 2)
               .Window(WindowSpec::Tumbling(100))
               .GroupBy(9)
               .Sum("total", 1)
               .Sink("out");
  auto compiled = q.Compile();
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("unknown attribute 9"),
            std::string::npos)
      << compiled.status().ToString();
}

TEST(PlannerTest, ShardedJoinWithoutPartitionKeyFailsAtCompile) {
  auto left = Query::From("a", 2);
  auto right = Query::From("b", 2);
  auto q = left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 4;
  auto compiled = q.Compile(opts);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("join"), std::string::npos)
      << compiled.status().ToString();
  // The same plan compiles single-shard.
  EXPECT_TRUE(q.Compile().ok());
}

TEST(PlannerTest, UngroupedAggregateCannotShard) {
  auto q = Query::From("src", 2)
               .Window(WindowSpec::Tumbling(100))
               .Sum("total", 1)
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 2;
  auto compiled = q.Compile(opts);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("ungrouped"), std::string::npos)
      << compiled.status().ToString();
  EXPECT_TRUE(q.Compile().ok());
}

TEST(PlannerTest, StatelessShardedPlanNeedsExplicitKey) {
  auto q = Query::From("src", 2)
               .Filter("keep", [](const Tuple&) { return true; })
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 2;
  auto without = q.Compile(opts);
  ASSERT_FALSE(without.ok());
  EXPECT_NE(without.status().message().find("PartitionBy"),
            std::string::npos);
  auto with = q.PartitionBy(stream::KeyByIntValue(0)).Compile(opts);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(with.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kExplicit);
}

// ---- physical auto-tuning -----------------------------------------------

TEST(PlannerTest, AutoShardsResolveFromHardwareConcurrency) {
  // Default options = auto sharding; pin the "machine" to 4 cores so the
  // test behaves the same on the 1-core container and on CI.
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_shards);
  EXPECT_EQ(s.num_shards, 4u);
  EXPECT_EQ(s.shard_key_source, PlanSummary::ShardKeySource::kGroupKey);
  // Same results as the explicit single-shard plan.
  PlannerOptions one;
  one.num_shards = 1;
  auto auto_run = RunKeyedSum(WindowSpec::Tumbling(100), opts);
  auto one_run = RunKeyedSum(WindowSpec::Tumbling(100), one);
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();
  ASSERT_TRUE(one_run.ok());
  ASSERT_FALSE(one_run.value().empty());
  EXPECT_EQ(Canonical(auto_run.value()), Canonical(one_run.value()));
}

TEST(PlannerTest, ExplicitShardCountWinsOverAuto) {
  PlannerOptions opts;
  opts.hardware_concurrency_override = 8;
  opts.num_shards = 2;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(compiled_or.ok());
  EXPECT_FALSE(compiled_or.value()->summary().auto_num_shards);
  EXPECT_EQ(compiled_or.value()->summary().num_shards, 2u);
}

TEST(PlannerTest, PinThreadsResolvesFromHardwareConcurrency) {
  // Pin on sharded plans when the machine has >= 4 hardware threads; the
  // override pins the "machine" so the test is host-stable.
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto big = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big.value()->summary().num_shards, 4u);
  EXPECT_TRUE(big.value()->summary().pin_threads);
  EXPECT_NE(big.value()->summary().ToString().find("thread pinning on"),
            std::string::npos)
      << big.value()->summary().ToString();

  opts.hardware_concurrency_override = 2;
  opts.num_shards = 2;  // sharded, but too few cores for pinning
  auto small = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value()->summary().num_shards, 2u);
  EXPECT_FALSE(small.value()->summary().pin_threads);

  // A 1-shard, 1-lane plan runs inline: no worker threads to pin, however
  // many cores the machine has.
  PlannerOptions single;
  single.num_shards = 1;
  single.hardware_concurrency_override = 8;
  auto unsharded = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(single);
  ASSERT_TRUE(unsharded.ok());
  EXPECT_EQ(unsharded.value()->summary().num_shards, 1u);
  EXPECT_EQ(unsharded.value()->summary().num_ingest_lanes, 1u);
  EXPECT_FALSE(unsharded.value()->summary().pin_threads);
}

TEST(PlannerTest, CfGridSharingRecordedAndObservableInMetrics) {
  // Every tuple carries the same sensor model, split across 4 groups: the
  // cross-group CF grid cache turns all but the first evaluation of each
  // grid shape into hits, results stay bitwise-identical to an uncached
  // reference, and the hit/miss counters surface through the aggregate's
  // OperatorMetrics. Tumbling windows, so the compiled (paned) operator
  // takes the exact per-window kernel the reference uses.
  const WindowSpec window = WindowSpec::Tumbling(280);
  auto query = Query::From("src", 2)
                   .Window(window)
                   .GroupBy(0)
                   .Sum("total", 1, uncertain::SumStrategyKind::kCfInversion)
                   .Sink("out");
  TupleBatch stream;
  for (size_t i = 0; i < 240; ++i) {
    Tuple t(static_cast<int64_t>(i * 7),
            {Value(static_cast<int64_t>(i % 4)),
             Value(stats::DistributionPtr(
                 std::make_shared<stats::Gaussian>(1.0, 0.8)))});
    t.InitBaseLineage();
    stream.Append(std::move(t));
  }

  PlannerOptions opts;
  opts.num_shards = 1;
  auto compiled_or = query.Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = compiled_or.MoveValueUnsafe();
  EXPECT_TRUE(compiled->summary().cf_grid_sharing);
  EXPECT_NE(compiled->summary().ToString().find("CF grid sharing"),
            std::string::npos)
      << compiled->summary().ToString();
  ASSERT_TRUE(compiled->PushBatch(compiled->source("src"), stream).ok());
  ASSERT_TRUE(compiled->Finish().ok());
  const std::vector<std::string> shared =
      Canonical(compiled->TakeResult(compiled->sink("out")));
  uint64_t hits = 0, misses = 0;
  for (const auto& m : compiled->MetricsSnapshot()) {
    hits += m.metrics.grid_cache_hits;
    misses += m.metrics.grid_cache_misses;
  }

  // Reference: the naive operator driven directly with a CfInversionSum,
  // which has no workspace and therefore no grid cache.
  uncertain::CfInversionSum inversion;
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  const auto agg = graph->AddOperator(
      src, std::make_unique<stream::GroupByAggregateOperator>(
               "agg", window,
               [](const Tuple& t) {
                 return stream::CanonicalKeyString(t.value(0));
               },
               std::vector<stream::AggregateSpec>{
                   uncertain::MakeSumAggregate("total", 1, &inversion)}));
  const auto sink = graph->AddSink(agg, "out");
  DagExecutor reference(std::move(graph));
  ASSERT_TRUE(reference.PushBatch(src, stream).ok());
  ASSERT_TRUE(reference.Close().ok());
  const std::vector<std::string> uncached =
      Canonical(reference.TakeSinkOutput(sink));

  ASSERT_FALSE(shared.empty());
  EXPECT_EQ(shared, uncached);  // sharing is bitwise-neutral
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, misses);  // one model -> mostly hits
}

TEST(PlannerTest, AutoShardsFallBackToOneWhenKeyUnderivable) {
  // A join has no derivable partition key: an AUTO shard choice degrades
  // to 1 shard with the reason in the summary (an EXPLICIT N > 1 still
  // fails Compile, covered elsewhere).
  auto left = Query::From("a", 2);
  auto right = Query::From("b", 2);
  auto q = left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
               .Sink("out");
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto compiled_or = q.Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_shards);
  EXPECT_EQ(s.num_shards, 1u);
  EXPECT_NE(s.auto_shard_note.find("fell back"), std::string::npos)
      << s.ToString();
}

TEST(PlannerTest, AutoLanesGiveEachSourceItsOwnLane) {
  // Sharded join (explicit partition key): auto lanes resolve to one per
  // source, and the result SET matches the single-lane run.
  auto build = [] {
    auto left = Query::From("a", 2);
    auto right = Query::From("b", 2);
    return left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       if (l.value(0).AsInt() != r.value(0).AsInt()) {
                         return std::optional<Tuple>();
                       }
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
        .Sink("out")
        .PartitionBy(stream::KeyByIntValue(0));
  };
  auto run = [&](size_t lanes) -> common::Result<TupleBatch> {
    PlannerOptions opts;
    opts.num_shards = 2;
    opts.num_ingest_lanes = lanes;  // kAutoLanes = 0 = auto
    auto compiled_or = build().Compile(opts);
    USP_RETURN_NOT_OK(compiled_or.status());
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto a = compiled->source("a");
    const auto b = compiled->source("b");
    for (int64_t i = 0; i < 300; ++i) {
      Tuple l(i * 10, {Value(i % 5), Value(1.0)});
      l.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(a, std::move(l)));
      Tuple r(i * 10 + 1, {Value(i % 5), Value(2.0)});
      r.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(b, std::move(r)));
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };
  PlannerOptions probe;
  probe.num_shards = 2;
  auto compiled_or = build().Compile(probe);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_ingest_lanes);
  EXPECT_EQ(s.num_ingest_lanes, 2u);
  EXPECT_NE(compiled_or.value()->ingest_lane(compiled_or.value()->source("a")),
            compiled_or.value()->ingest_lane(compiled_or.value()->source("b")));
  auto multi = run(PlannerOptions::kAutoLanes);
  auto single = run(1);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_FALSE(single.value().empty());
  EXPECT_EQ(Canonical(multi.value()), Canonical(single.value()));
}

TEST(PlannerTest, JoinBelowJoinRunsMultiLane) {
  // a JOIN b JOIN c: the second join consumes join output, whose
  // timestamps regress under cross-lane skew but never below the first
  // join's propagated watermark, and join buffers expire only on
  // watermarks. So the plan compiles on two lanes of one shard and on one
  // lane per source of two shards, and both match the 1-lane result set.
  auto key_match = [](const Tuple& l, const Tuple& r) {
    if (l.value(0).AsInt() != r.value(0).AsInt()) {
      return std::optional<Tuple>();
    }
    return std::optional<Tuple>(stream::ConcatJoinedTuple(l, r));
  };
  const auto build = [&] {
    return Query::From("a", 2)
        .Join(Query::From("b", 2), 1000, key_match, "j1")
        .Join(Query::From("c", 2), 1000, key_match, "j2")
        .Sink("out")
        .PartitionBy(stream::KeyByIntValue(0));
  };
  auto run = [&](const PlannerOptions& opts,
                 PlanSummary* summary) -> common::Result<TupleBatch> {
    auto compiled_or = build().Compile(opts);
    USP_RETURN_NOT_OK(compiled_or.status());
    auto compiled = compiled_or.MoveValueUnsafe();
    if (summary != nullptr) *summary = compiled->summary();
    const auto a = compiled->source("a");
    const auto b = compiled->source("b");
    const auto c = compiled->source("c");
    if (opts.num_shards > 1 &&
        (compiled->ingest_lane(a) == compiled->ingest_lane(b) ||
         compiled->ingest_lane(b) == compiled->ingest_lane(c) ||
         compiled->ingest_lane(a) == compiled->ingest_lane(c))) {
      return common::Status::Internal("sources share an ingest lane");
    }
    for (int64_t i = 0; i < 300; ++i) {
      const stream::ExecGraph::NodeId ids[] = {a, b, c};
      for (int64_t s = 0; s < 3; ++s) {
        Tuple t(i * 10 + s, {Value(i % 4), Value(i * 3 + s)});
        t.InitBaseLineage();
        USP_RETURN_NOT_OK(compiled->Push(ids[s], std::move(t)));
      }
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };

  PlannerOptions one_lane;
  one_lane.num_shards = 1;
  one_lane.num_ingest_lanes = 1;
  auto single = run(one_lane, nullptr);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_FALSE(single.value().empty());

  PlannerOptions two_lanes;
  two_lanes.num_shards = 1;
  two_lanes.num_ingest_lanes = 2;
  PlanSummary two_lane_summary;
  auto multi = run(two_lanes, &two_lane_summary);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_EQ(two_lane_summary.num_ingest_lanes, 2u);
  EXPECT_EQ(Canonical(multi.value()), Canonical(single.value()));

  PlannerOptions auto_lanes;
  auto_lanes.num_shards = 2;
  PlanSummary sharded_summary;
  auto sharded = run(auto_lanes, &sharded_summary);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_TRUE(sharded_summary.auto_num_ingest_lanes);
  EXPECT_EQ(sharded_summary.num_ingest_lanes, 3u);
  EXPECT_EQ(Canonical(sharded.value()), Canonical(single.value()));
}

TEST(PlannerTest, WatermarksLiftMultiLaneRefusalBelowJoin) {
  // A windowed aggregate downstream of a join compiles multi-lane, and
  // the result set matches the single-lane run: windows close by the
  // join's propagated watermark, so the skew-regressed join emission
  // order does not corrupt them.
  auto build = [] {
    auto left = Query::From("a", 2);
    auto right = Query::From("b", 2);
    return left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       if (l.value(0).AsInt() != r.value(0).AsInt()) {
                         return std::optional<Tuple>();
                       }
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
        .Window(WindowSpec::Tumbling(500))
        .GroupBy(0)
        .Count("n")
        .Sink("out");
  };
  auto run = [&](size_t lanes) -> common::Result<TupleBatch> {
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.num_ingest_lanes = lanes;
    auto compiled_or = build().Compile(opts);
    USP_RETURN_NOT_OK(compiled_or.status());
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto a = compiled->source("a");
    const auto b = compiled->source("b");
    for (int64_t i = 0; i < 400; ++i) {
      Tuple l(i * 10, {Value(i % 3), Value(1.0)});
      l.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(a, std::move(l)));
      Tuple r(i * 10 + 1, {Value(i % 3), Value(2.0)});
      r.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(b, std::move(r)));
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };
  PlannerOptions probe;
  probe.num_shards = 1;
  probe.num_ingest_lanes = 2;
  auto compiled_or = build().Compile(probe);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_EQ(s.num_ingest_lanes, 2u);
  EXPECT_GT(s.watermark_period_us, 0);
  auto two = run(2);
  auto one = run(1);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_FALSE(one.value().empty());
  EXPECT_EQ(Canonical(two.value()), Canonical(one.value()));
}

TEST(PlannerTest, WatermarkPeriodDerivedFromPlan) {
  // The broadcast period is a quarter of the smallest window slide / join
  // range; the lateness is reported as given.
  auto q = KeyedSumQuery(WindowSpec::Sliding(400, 100));
  PlannerOptions late;
  late.watermark_lateness_us = 3;
  auto compiled_or = q.Compile(late);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  EXPECT_EQ(compiled_or.value()->summary().watermark_period_us, 25);
  EXPECT_EQ(compiled_or.value()->summary().watermark_lateness_us, 3);

  // A stateless plan has nothing to close or expire: no broadcast.
  auto stateless = Query::From("src", 1)
                       .Filter("pass", [](const Tuple&) { return true; })
                       .Sink("out");
  auto off_or = stateless.Compile(PlannerOptions{});
  ASSERT_TRUE(off_or.ok());
  EXPECT_EQ(off_or.value()->summary().watermark_period_us, 0);
}

TEST(PlannerTest, WatermarkClosureMatchesArrivalClosedReference) {
  // With lateness 0 each push's watermark closes exactly the windows the
  // next tuple's arrival closes in the naive reference operator, so the
  // compiled plan's rows match it bitwise and in emission order. One
  // tuple per push: every push carries a watermark. (Sliding windows are
  // compared at 1e-9 by stream_differential_test.)
  const WindowSpec window = WindowSpec::Tumbling(100);
  const TupleBatch stream = MakeKeyedGaussianStream(500);
  PlannerOptions opts;
  opts.num_shards = 1;
  auto compiled_or = KeyedSumQuery(window).Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto src = compiled->source("src");
  for (const Tuple& t : stream) ASSERT_TRUE(compiled->Push(src, t).ok());
  ASSERT_TRUE(compiled->Finish().ok());

  uncertain::CltSum clt;
  stream::GroupByAggregateOperator reference(
      "agg", window,
      [](const Tuple& t) { return stream::CanonicalKeyString(t.value(0)); },
      std::vector<stream::AggregateSpec>{
          uncertain::MakeSumAggregate("total", 1, &clt)});
  stream::VectorCollector out;
  for (const Tuple& t : stream) ASSERT_TRUE(reference.Push(t, &out).ok());
  ASSERT_TRUE(reference.Close(&out).ok());
  TupleBatch expected;
  for (Tuple& t : out.tuples()) expected.Append(std::move(t));

  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Rendered(compiled->Result("out")), Rendered(expected));
}

TEST(PlannerTest, LateTuplesCountWithinLatenessAndAreDroppedBeyondIt) {
  // Tumbling(1000) COUNT over ts 0..2990, then one tuple at ts 500. With
  // lateness 2000 the watermark is still 990 when it arrives, so its
  // window is open and counts it. With lateness 0 the watermark (2990)
  // has closed both windows that could hold it: it is dropped, counted
  // in late_dropped, and neither the push nor Finish() fails.
  const auto query = Query::From("src", 2)
                         .Window(WindowSpec::Tumbling(1000))
                         .GroupBy(0)
                         .Count("n")
                         .Sink("out");
  struct Run {
    std::vector<int64_t> counts;
    uint64_t late_dropped = 0;
  };
  auto run = [&](int64_t lateness) -> common::Result<Run> {
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.watermark_lateness_us = lateness;
    USP_ASSIGN_OR_RETURN(auto compiled, query.Compile(opts));
    const auto src = compiled->source("src");
    for (int64_t ts = 0; ts < 3000; ts += 10) {
      USP_RETURN_NOT_OK(
          compiled->Push(src, Tuple(ts, {Value(int64_t{0}), Value(1.0)})));
    }
    USP_RETURN_NOT_OK(
        compiled->Push(src, Tuple(500, {Value(int64_t{0}), Value(1.0)})));
    USP_RETURN_NOT_OK(compiled->Finish());
    Run r;
    for (const Tuple& row : compiled->Result("out")) {
      r.counts.push_back(row.value(1).AsInt());
    }
    for (const auto& m : compiled->MetricsSnapshot()) {
      r.late_dropped += m.metrics.late_dropped;
    }
    return r;
  };
  auto within = run(2000);
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(within.value().counts, (std::vector<int64_t>{101, 100, 100}));
  EXPECT_EQ(within.value().late_dropped, 0u);

  auto beyond = run(0);
  ASSERT_TRUE(beyond.ok()) << beyond.status().ToString();
  EXPECT_EQ(beyond.value().counts, (std::vector<int64_t>{100, 100, 100}));
  EXPECT_EQ(beyond.value().late_dropped, 1u);
}

TEST(PlannerTest, NegativeWatermarkSettingsFailAtCompile) {
  // A negative lateness runs each watermark ahead of its source's data:
  // windows close before their tuples arrive, and those tuples land in
  // panes evicted without ever being emitted. Compile() refuses it
  // instead of silently losing rows.
  const auto query = Query::From("src", 2)
                         .Window(WindowSpec::Tumbling(1000))
                         .GroupBy(0)
                         .Count("n")
                         .Sink("out");
  auto run = [&](int64_t lateness) -> common::Result<TupleBatch> {
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.watermark_lateness_us = lateness;
    USP_ASSIGN_OR_RETURN(auto compiled, query.Compile(opts));
    const auto src = compiled->source("src");
    for (int64_t ts = 0; ts < 3000; ts += 10) {
      USP_RETURN_NOT_OK(
          compiled->Push(src, Tuple(ts, {Value(int64_t{0}), Value(1.0)})));
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };
  // Lateness 0: every tumbling window holds all of its 100 tuples.
  auto exact = run(0);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact.value().size(), 3u);
  for (const Tuple& row : exact.value()) {
    EXPECT_EQ(row.value(1).AsInt(), 100) << "window ending " << row.timestamp();
  }

  auto ahead = run(-1000);
  ASSERT_FALSE(ahead.ok()) << "negative lateness compiled and returned "
                           << ahead.value().size() << " rows";
  EXPECT_EQ(ahead.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(ahead.status().message().find("watermark_lateness_us"),
            std::string::npos)
      << ahead.status().ToString();
}

TEST(PlannerTest, ShardedPushReachesTheAggregateBeforeTheNextPush) {
  // Ingest forwards each push: a 2-shard plan's 12-tuple push, whose max
  // timestamp passes the first window's end, must reach the aggregate and
  // close that window with no further push and no Finish() to flush it.
  PlannerOptions opts;
  opts.num_shards = 2;
  auto compiled_or = Query::From("src", 2)
                         .Window(WindowSpec::Tumbling(100))
                         .GroupBy(0)
                         .Count("n")
                         .Sink("out")
                         .Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = compiled_or.MoveValueUnsafe();
  ASSERT_EQ(compiled->num_shards(), 2u);
  TupleBatch push;
  for (int64_t i = 0; i < 12; ++i) {
    Tuple t(i * 10, {Value(i % 4), Value(1.0)});
    t.InitBaseLineage();
    push.Append(std::move(t));
  }
  ASSERT_TRUE(compiled->PushBatch(compiled->source("src"), std::move(push))
                  .ok());
  // Timestamps 0..110: all 12 tuples in, and window [0, 100) — keys 0..3 —
  // out as 4 rows once the push's watermark (110) reaches both shards.
  uint64_t tuples_in = 0, tuples_out = 0;
  const bool arrived = stream::testutil::WaitUntil([&] {
    for (const auto& m : compiled->MetricsSnapshot()) {
      if (m.name != "n_agg") continue;
      tuples_in = m.metrics.tuples_in;
      tuples_out = m.metrics.tuples_out;
    }
    return tuples_in == 12 && tuples_out == 4;
  });
  EXPECT_TRUE(arrived) << "aggregate saw " << tuples_in << " in, "
                       << tuples_out << " out";
  ASSERT_TRUE(compiled->Finish().ok());
}

// ---- filter pushdown ----------------------------------------------------

Query PushdownQuery(bool declare_reads = true) {
  // annotate appends a derived attribute (preserving the 2 source attrs);
  // the filter reads only attribute 0, so the planner may run it first —
  // unless the read set is left undeclared, which makes the predicate
  // opaque and keeps the filter above the map.
  const Query mapped =
      Query::From("src", 2)
          .Map("annotate",
               [](const Tuple& t) -> common::Result<Tuple> {
                 Tuple out = t;
                 out.AppendValue(Value(t.value(0).AsInt() * 10));
                 return out;
               },
               3, /*preserved_prefix=*/2);
  const auto keep = [](const Tuple& t) { return t.value(0).AsInt() % 2 == 0; };
  return (declare_reads ? mapped.Filter("keep", keep, /*reads_attrs=*/{0})
                        : mapped.Filter("keep", keep))
      .Window(WindowSpec::Tumbling(100))
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kClt)
      .Sink("out");
}

TEST(PlannerTest, FilterPushdownPreservesResultsAndShrinksMapWork) {
  auto run = [](bool pushdown) {
    PlannerOptions opts;
    opts.num_shards = 1;
    auto compiled_or = PushdownQuery(/*declare_reads=*/pushdown).Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    EXPECT_EQ(compiled->summary().pushed_filters.size(), pushdown ? 1u : 0u);
    EXPECT_TRUE(compiled
                    ->PushBatch(compiled->source("src"),
                                MakeKeyedGaussianStream(400))
                    .ok());
    EXPECT_TRUE(compiled->Finish().ok());
    uint64_t map_tuples_in = 0;
    for (const auto& m : compiled->MetricsSnapshot()) {
      if (m.name == "annotate") map_tuples_in = m.metrics.tuples_in;
    }
    return std::make_pair(compiled->TakeResult(compiled->sink("out")),
                          map_tuples_in);
  };
  PlannerOptions probe;
  probe.num_shards = 1;
  auto probe_or = PushdownQuery().Compile(probe);
  ASSERT_TRUE(probe_or.ok()) << probe_or.status().ToString();
  ASSERT_EQ(probe_or.value()->summary().pushed_filters.size(), 1u);
  EXPECT_EQ(probe_or.value()->summary().pushed_filters[0],
            (std::pair<std::string, std::string>{"keep", "annotate"}));

  auto [pushed, pushed_map_in] = run(true);
  auto [unpushed, unpushed_map_in] = run(false);
  ASSERT_FALSE(unpushed.empty());
  // Identical results (keys 0..3, so the even-key filter drops half)...
  EXPECT_EQ(Rendered(pushed), Rendered(unpushed));
  // ...but the map only ran on the tuples that survived the filter.
  EXPECT_EQ(unpushed_map_in, 400u);
  EXPECT_EQ(pushed_map_in, 200u);
  EXPECT_LT(pushed_map_in, unpushed_map_in);
}

TEST(PlannerTest, FilterPushdownNeedsDeclaredReadsAndPrefix) {
  // No declared read set -> opaque predicate -> no pushdown.
  auto opaque = Query::From("src", 2)
                    .Map("annotate",
                         [](const Tuple& t) -> common::Result<Tuple> {
                           return t;
                         },
                         3, /*preserved_prefix=*/2)
                    .Filter("keep", [](const Tuple&) { return true; })
                    .Sink("out")
                    .PartitionBy(stream::KeyByIntValue(0));
  auto opaque_or = opaque.Compile();
  ASSERT_TRUE(opaque_or.ok()) << opaque_or.status().ToString();
  EXPECT_TRUE(opaque_or.value()->summary().pushed_filters.empty());
  // Reads an appended attribute -> stays above the map.
  auto mapped_attr = Query::From("src", 2)
                         .Map("annotate",
                              [](const Tuple& t) -> common::Result<Tuple> {
                                return t;
                              },
                              3, /*preserved_prefix=*/2)
                         .Filter("keep", [](const Tuple&) { return true; },
                                 /*reads_attrs=*/{2})
                         .Sink("out")
                         .PartitionBy(stream::KeyByIntValue(0));
  auto mapped_or = mapped_attr.Compile();
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  EXPECT_TRUE(mapped_or.value()->summary().pushed_filters.empty());
}

TEST(PlannerTest, SummaryToStringReportsAutoDecisions) {
  PlannerOptions opts;
  opts.hardware_concurrency_override = 2;
  auto compiled_or = PushdownQuery().Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const std::string s = compiled_or.value()->summary().ToString();
  EXPECT_NE(s.find("[auto]"), std::string::npos) << s;
  EXPECT_NE(s.find("pushed below map"), std::string::npos) << s;

  // One shard gets one auto lane and runs inline on the caller's thread.
  PlannerOptions single;
  single.num_shards = 1;
  auto single_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(single);
  ASSERT_TRUE(single_or.ok()) << single_or.status().ToString();
  EXPECT_EQ(single_or.value()->summary().num_ingest_lanes, 1u);
  const std::string one = single_or.value()->summary().ToString();
  EXPECT_NE(one.find("inline"), std::string::npos) << one;
}

TEST(PlannerTest, UnknownSourceAndSinkNamesAreInvalid) {
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile();
  ASSERT_TRUE(compiled_or.ok());
  auto& compiled = *compiled_or.value();
  EXPECT_EQ(compiled.source("nope"), ExecGraph::kInvalidNode);
  EXPECT_EQ(compiled.sink("nope"), ExecGraph::kInvalidNode);
  EXPECT_FALSE(compiled.Push(ExecGraph::kInvalidNode, Tuple(0, {})).ok());
}

}  // namespace
}  // namespace query
}  // namespace usp
