// Scaling of the sharded DAG runtime, in two sections, emitting
// BENCH_dag_sharding.json so the perf trajectory is tracked across PRs.
// `--smoke` shrinks every axis for sanitizer CI runs; `--ingest-threads
// a,b,c` overrides the ingest-lane axis.
//
// 1. "sharding": the paper's Q1 plan shape (keyed group-by CF-approx SUM
//    over uncertain weights), declared with the query builder and
//    hash-partitioned across 1/2/4/8 shard worker threads from a single
//    caller. PartitionBy() pins a cheap int-hash key so the bench
//    measures the executor, not a replayed map; num_shards == 1 runs the
//    shard inline on the caller's thread, a true single-threaded
//    baseline.
//
// 2. "ingest": the multi-producer path. Four independent keyed-sum
//    chains (four sources — radar A / radar B / RFID-style feeds) run in
//    ONE ShardedExecutor while 1/2/4 producer threads push through
//    1/2/4 ingest lanes (one SPSC ring per lane-shard pair). Sources are
//    wired round-robin to lanes, exactly like the planner's auto lane
//    assignment. The plan is deliberately cheap so the queue/partition
//    path dominates. A disconnected multi-source plan is not expressible
//    with the fluent builder (only Join merges From-chains), so this
//    section wires the graph directly — the graph-level exception the
//    ROADMAP grants benches of the executor itself.
//
// Each point runs five times (once under --smoke); the JSON records the
// median, min and max throughput per point plus a machine block (cores,
// ISA, build type, compiler), because a single ~0.1 s run spreads ~2x
// on a shared host. Scaling past 1 shard or lane needs as many free
// cores as shards plus producers.
//
// Run:  ./build/bench/bench_dag_sharding [--smoke] [--ingest-threads 1,2,4]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/group_by.h"
#include "stream/sharded_executor.h"
#include "uncertain/selection.h"
#include "uncertain/sum_strategies.h"

namespace {

using usp::bench::Measure;
using usp::bench::PrintSpreadJson;
using usp::bench::Spread;
using usp::common::Stopwatch;
using usp::stats::DistributionPtr;
using usp::stream::ExecGraph;
using usp::stream::ShardContext;
using usp::stream::ShardedExecutor;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr size_t kNumKeys = 64;
constexpr int64_t kWindowUs = 1000;

bool g_smoke = false;
size_t g_reps = 5;
size_t g_q1_tuples = 64 * 1024;
size_t g_ingest_tuples_per_chain = 64 * 1024;
std::vector<size_t> g_shard_axis = {1, 2, 4, 8};
std::vector<size_t> g_ingest_shard_axis = {1, 2, 4};
std::vector<size_t> g_lane_axis = {1, 2, 4};

// ---- section 1: Q1 sharding axis (builder path) ---------------------------

std::vector<TupleBatch> MakeQ1Input() {
  usp::common::Rng rng(42);
  constexpr size_t kIngestBatch = 4096;
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  batch.Reserve(kIngestBatch);
  for (size_t i = 0; i < g_q1_tuples; ++i) {
    Tuple t(static_cast<int64_t>(i),
            {Value(static_cast<int64_t>(i % kNumKeys)),
             Value(DistributionPtr(std::make_shared<usp::stats::Gaussian>(
                 20.0 + rng.Uniform(-5.0, 5.0), 1.0 + rng.Uniform())))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
    if (batch.size() == kIngestBatch) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
      batch.Reserve(kIngestBatch);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

double RunQ1Sharding(size_t num_shards, const std::vector<TupleBatch>& input) {
  auto q1 =
      usp::query::Query::From("src", 2)
          .Map("annotate",
               [](const Tuple& t) -> usp::common::Result<Tuple> {
                 Tuple out = t;
                 out.AppendValue(usp::uncertain::PredicateProbability(
                     t.value(1), usp::uncertain::PredicateOp::kGreaterThan,
                     22.0));
                 return out;
               },
               3)
          .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
          .GroupBy(0)
          .Sum("total", 1, usp::uncertain::SumStrategyKind::kCfApprox)
          .Sink("sink")
          .PartitionBy(usp::stream::KeyByIntValue(0));
  usp::query::PlannerOptions opts;
  opts.num_shards = num_shards;
  auto exec_or = q1.Compile(opts);
  if (!exec_or.ok()) {
    fprintf(stderr, "compile failed: %s\n",
            exec_or.status().ToString().c_str());
    return 0.0;
  }
  auto exec = exec_or.MoveValueUnsafe();
  const auto source = exec->source("src");
  Stopwatch sw;
  for (const TupleBatch& batch : input) {
    if (!exec->PushBatch(source, batch).ok()) return 0.0;
  }
  if (!exec->Finish().ok()) return 0.0;
  return static_cast<double>(g_q1_tuples) / sw.ElapsedSeconds();
}

// ---- section 2: multi-producer ingest axis (graph level) ------------------

constexpr size_t kChains = 4;

std::vector<TupleBatch> MakeChainFeed(size_t chain) {
  constexpr size_t kBatch = 512;
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  batch.Reserve(kBatch);
  for (size_t i = 0; i < g_ingest_tuples_per_chain; ++i) {
    Tuple t(static_cast<int64_t>(i),
            {Value(static_cast<int64_t>((i * 7 + chain) % kNumKeys)),
             Value(0.5 + static_cast<double>(i % 9))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
    if (batch.size() == kBatch) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
      batch.Reserve(kBatch);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

double RunIngest(size_t num_shards, size_t num_lanes,
                 const std::vector<std::vector<TupleBatch>>& feeds) {
  ShardedExecutor::Options opts;
  opts.num_shards = num_shards;
  opts.num_ingest_lanes = num_lanes;
  opts.queue_capacity = 64;
  std::vector<ExecGraph::NodeId> sources(kChains);
  auto exec_or = ShardedExecutor::Create(
      opts, usp::stream::KeyByIntValue(0),
      [&sources](ExecGraph* g, const ShardContext&) {
        for (size_t c = 0; c < kChains; ++c) {
          sources[c] = g->AddSource("src" + std::to_string(c));
          const auto agg = g->AddOperator(
              sources[c],
              std::make_unique<usp::stream::GroupByAggregateOperator>(
                  "sum" + std::to_string(c),
                  usp::stream::WindowSpec::Tumbling(kWindowUs),
                  [](const Tuple& t) {
                    return std::to_string(t.value(0).AsInt());
                  },
                  std::vector<usp::stream::AggregateSpec>{
                      {"sum",
                       [](const std::vector<const Tuple*>& group)
                           -> usp::common::Result<Value> {
                         double sum = 0.0;
                         for (const Tuple* t : group) {
                           sum += t->value(1).AsDouble();
                         }
                         return Value(sum);
                       }}}));
          g->AddSink(agg, "out" + std::to_string(c));
        }
        return usp::common::Status::OK();
      });
  if (!exec_or.ok()) {
    fprintf(stderr, "create failed: %s\n",
            exec_or.status().ToString().c_str());
    return 0.0;
  }
  auto exec = exec_or.MoveValueUnsafe();
  Stopwatch sw;
  std::atomic<bool> push_failed{false};
  std::vector<std::thread> producers;
  producers.reserve(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    producers.emplace_back([&, lane] {
      // Sources round-robin over lanes, like the planner's auto mapping.
      for (size_t c = lane; c < kChains; c += num_lanes) {
        for (const TupleBatch& b : feeds[c]) {
          if (!exec->PushBatch(lane, sources[c], b).ok()) {
            fprintf(stderr, "ingest push failed (lane %zu)\n", lane);
            push_failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  if (!exec->Finish().ok() || push_failed.load()) return 0.0;
  return static_cast<double>(kChains * g_ingest_tuples_per_chain) /
         sw.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
  g_smoke = args.smoke;
  if (g_smoke) {
    g_q1_tuples = 8 * 1024;
    g_ingest_tuples_per_chain = 8 * 1024;
    g_shard_axis = {1, 2};
    g_ingest_shard_axis = {1, 2};
    g_lane_axis = {1, 2};
    g_reps = 1;
  }
  // An explicit lane axis wins over the smoke default.
  g_lane_axis = args.AxisFlag("--ingest-threads", g_lane_axis);

  struct ShardingRow {
    size_t shards;
    Spread tps;
  };
  struct IngestRow {
    size_t shards;
    size_t lanes;
    Spread tps;
  };
  std::vector<ShardingRow> sharding_rows;
  std::vector<IngestRow> ingest_rows;
  bool failed = false;

  printf("=== 1. Q1 keyed group-by: shards axis (%zu tuples, %zu reps) ===\n",
         g_q1_tuples, g_reps);
  printf("%-8s %14s %14s %14s\n", "shards", "median t/s", "min", "max");
  const auto q1_input = MakeQ1Input();
  for (size_t shards : g_shard_axis) {
    const Spread tps =
        Measure(g_reps, [&] { return RunQ1Sharding(shards, q1_input); });
    if (tps.median <= 0.0) failed = true;
    sharding_rows.push_back({shards, tps});
    printf("%-8zu %14.0f %14.0f %14.0f\n", shards, tps.median, tps.min,
           tps.max);
  }

  printf("\n=== 2. multi-producer ingest: %zu chains x %zu tuples ===\n",
         kChains, g_ingest_tuples_per_chain);
  printf("%-8s %-15s %14s %14s %14s\n", "shards", "ingest-threads",
         "median t/s", "min", "max");
  std::vector<std::vector<TupleBatch>> feeds;
  for (size_t c = 0; c < kChains; ++c) feeds.push_back(MakeChainFeed(c));
  for (size_t shards : g_ingest_shard_axis) {
    for (size_t lanes : g_lane_axis) {
      const Spread tps =
          Measure(g_reps, [&] { return RunIngest(shards, lanes, feeds); });
      if (tps.median <= 0.0) failed = true;
      ingest_rows.push_back({shards, lanes, tps});
      printf("%-8zu %-15zu %14.0f %14.0f %14.0f\n", shards, lanes,
             tps.median, tps.min, tps.max);
    }
  }

  FILE* f = fopen("BENCH_dag_sharding.json", "w");
  if (f) {
    fprintf(f, "{\n  \"bench\": \"dag_sharding\",\n");
    fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
    usp::bench::PrintMachineJson(f);
    fprintf(f, "  \"reps\": %zu,\n", g_reps);
    fprintf(f, "  \"sharding\": [\n");
    for (size_t i = 0; i < sharding_rows.size(); ++i) {
      fprintf(f, "    {\"shards\": %zu, ", sharding_rows[i].shards);
      PrintSpreadJson(f, sharding_rows[i].tps);
      fprintf(f, "}%s\n", i + 1 < sharding_rows.size() ? "," : "");
    }
    fprintf(f, "  ],\n  \"ingest\": [\n");
    for (size_t i = 0; i < ingest_rows.size(); ++i) {
      fprintf(f, "    {\"shards\": %zu, \"ingest_threads\": %zu, ",
              ingest_rows[i].shards, ingest_rows[i].lanes);
      PrintSpreadJson(f, ingest_rows[i].tps);
      fprintf(f, "}%s\n", i + 1 < ingest_rows.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
  }
  if (failed) {
    fprintf(stderr, "bench_dag_sharding: at least one section failed\n");
    return 1;  // so the CI smoke step actually gates on the bench running
  }
  return 0;
}
