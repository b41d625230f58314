// Windowed-plan throughput: tuples/sec for Q1-style tumbling and sliding
// group-by-aggregate plans at batch sizes 1 / 64 / 1024, comparing the
// naive per-window recompute path against the pane-incremental path.
// Emits BENCH_window_throughput.json (with the machine it ran on) so the
// perf trajectory is tracked across PRs. Each point runs 11 times and
// the JSON records median/min/max. `--smoke` shrinks the stream and runs
// each point once, for sanitizer CI runs.
//
// The paned side is the plan as an application gets it: declared with the
// query builder and compiled by the planner (one inline shard). The naive
// side is the reference GroupByAggregateOperator, which the planner never
// builds, driven directly with the same key and aggregates. The paned
// figure therefore also carries the executor's ingest and sink cost; the
// naive one does not.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian_mixture.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::stats::DistributionPtr;
using usp::stats::GaussianMixture;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;
using usp::stream::WindowSpec;

size_t g_num_tuples = 20000;
size_t g_reps = 11;
bool g_smoke = false;

std::vector<Tuple> MakeStream(uint64_t seed) {
  usp::common::Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(g_num_tuples);
  const char* areas[] = {"A", "B", "C", "D"};
  for (size_t i = 0; i < g_num_tuples; ++i) {
    std::vector<GaussianMixture::Component> comps;
    const size_t k = 1 + rng.UniformInt(2);
    for (size_t c = 0; c < k; ++c) {
      comps.push_back(
          {0.2 + rng.Uniform(), rng.Uniform(-5.0, 5.0), 0.3 + rng.Uniform()});
    }
    Tuple t(static_cast<int64_t>(i),
            {Value(std::string(areas[rng.UniformInt(4)])),
             Value(DistributionPtr(std::make_shared<GaussianMixture>(
                 GaussianMixture::Make(std::move(comps)).MoveValueUnsafe())))});
    t.InitBaseLineage();
    out.push_back(std::move(t));
  }
  return out;
}

struct Measurement {
  std::string plan;       // "tumbling" / "sliding"
  std::string path;       // "naive" / "paned"
  size_t batch_size;
  usp::bench::Spread tps;
};

std::vector<TupleBatch> Slice(const std::vector<Tuple>& stream,
                              size_t batch_size) {
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    TupleBatch batch;
    for (size_t j = i; j < std::min(i + batch_size, stream.size()); ++j) {
      batch.Append(stream[j]);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

double RunPaned(WindowSpec spec, const std::vector<Tuple>& stream,
                size_t batch_size) {
  auto q = Query::From("src", 2)
               .Window(spec)
               .GroupBy(0)
               .Sum("sum", 1, usp::uncertain::SumStrategyKind::kClt)
               .Count("cnt")
               .Sink("sink");
  PlannerOptions opts;
  // Pin one shard: this bench measures the window kernels themselves, so
  // the planner's auto-sharding (machine-dependent) must not kick in.
  opts.num_shards = 1;
  auto compiled_or = q.Compile(opts);
  if (!compiled_or.ok()) return 0.0;
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto source = compiled->source("src");
  // Slice before starting the clock: measure the executor path, not the
  // tuple copies that build the batches.
  const std::vector<TupleBatch> batches = Slice(stream, batch_size);
  usp::common::Stopwatch sw;
  for (const TupleBatch& batch : batches) {
    if (!compiled->PushBatch(source, batch).ok()) return 0.0;
  }
  if (!compiled->Finish().ok()) return 0.0;
  return static_cast<double>(stream.size()) / sw.ElapsedSeconds();
}

double RunNaive(WindowSpec spec, const std::vector<Tuple>& stream,
                size_t batch_size) {
  usp::uncertain::CltSum clt;
  std::vector<usp::stream::AggregateSpec> aggregates;
  aggregates.push_back(usp::uncertain::MakeSumAggregate("sum", 1, &clt));
  aggregates.push_back(usp::uncertain::MakeCountAggregate("cnt"));
  usp::stream::GroupByAggregateOperator op(
      "naive", spec,
      [](const Tuple& t) {
        return usp::stream::CanonicalKeyString(t.value(0));
      },
      std::move(aggregates));
  const std::vector<TupleBatch> batches = Slice(stream, batch_size);
  usp::stream::VectorCollector out;
  usp::common::Stopwatch sw;
  for (const TupleBatch& batch : batches) {
    if (!op.PushBatch(batch, &out).ok()) return 0.0;
  }
  if (!op.Close(&out).ok()) return 0.0;
  return static_cast<double>(stream.size()) / sw.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
  g_smoke = args.smoke;
  const char* isa = usp::bench::ApplySimdFlag(args);  // before any CF work
  const char* json_out = args.JsonOutPath("BENCH_window_throughput.json");
  printf("SIMD dispatch: %s\n", isa);
  if (g_smoke) {
    g_num_tuples = 1500;
    g_reps = 1;
  }
  const auto stream = MakeStream(7);
  // Q1 shape: [Range 100 us] tumbling, and a 4-overlap sliding variant.
  const WindowSpec tumbling = WindowSpec::Tumbling(100);
  const WindowSpec sliding = WindowSpec::Sliding(100, 25);

  std::vector<Measurement> results;
  printf("=== Windowed group-by throughput (CLT SUM, %zu tuples) ===\n",
         g_num_tuples);
  printf("%-10s %-7s %-11s %14s %14s %14s\n", "plan", "path",
         "batch_size", "median t/s", "min", "max");
  for (const auto& [plan_name, spec] :
       {std::pair<const char*, WindowSpec>{"tumbling", tumbling},
        std::pair<const char*, WindowSpec>{"sliding", sliding}}) {
    for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
      results.push_back(
          {plan_name, "naive", batch_size,
           usp::bench::Measure(
               g_reps, [&] { return RunNaive(spec, stream, batch_size); })});
      results.push_back(
          {plan_name, "paned", batch_size,
           usp::bench::Measure(
               g_reps, [&] { return RunPaned(spec, stream, batch_size); })});
      for (size_t i = results.size() - 2; i < results.size(); ++i) {
        const Measurement& m = results[i];
        printf("%-10s %-7s %-11zu %14.0f %14.0f %14.0f\n", m.plan.c_str(),
               m.path.c_str(), m.batch_size, m.tps.median, m.tps.min,
               m.tps.max);
      }
    }
  }

  FILE* f = fopen(json_out, "w");
  if (f) {
    fprintf(f, "{\n  \"bench\": \"window_throughput\",\n");
    fprintf(f, "  \"smoke\": %s,\n  \"num_tuples\": %zu,\n",
            g_smoke ? "true" : "false", g_num_tuples);
    usp::bench::PrintMachineJson(f);
    fprintf(f, "  \"reps\": %zu,\n", g_reps);
    fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      fprintf(f,
              "    {\"plan\": \"%s\", \"path\": \"%s\", \"batch_size\": %zu, ",
              results[i].plan.c_str(), results[i].path.c_str(),
              results[i].batch_size);
      usp::bench::PrintSpreadJson(f, results[i].tps);
      fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
  }
  return 0;
}
