// Ablation of §5.2: join followed by aggregation over correlated results.
// One temperature cell joins `fanout` objects; the window SUM of the
// joined temperatures is computed (a) lineage-aware (shared handles are
// recognized as one variable, exact) and (b) assuming independence (the
// naive baseline). Reports cost and the variance-understatement factor of
// the naive path — the quantity that makes downstream confidence regions
// falsely tight.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/batch.h"
#include "uncertain/join_predicates.h"
#include "uncertain/lineage_aggregate.h"

namespace {

using usp::stats::DistributionPtr;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

// Run the Q2-style join for one temperature cell against `fanout` objects
// and return the joined temperature attributes. The fan-in plan is
// declared with the query builder and compiled by the planner (the
// production path for join plans: a single-shard batch DAG).
std::vector<DistributionPtr> JoinedTemps(size_t fanout, uint64_t seed) {
  usp::common::Rng rng(seed);
  usp::uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {1, 2};
  spec.right_attrs = {0, 1};
  spec.eps = 3.0;
  spec.min_confidence = 0.2;

  auto objects = usp::query::Query::From("objects", 3);
  auto readings = usp::query::Query::From("temps", 3);
  auto plan = objects
                  .Join(readings, 10'000'000,
                        usp::uncertain::MakeProbabilisticEqualityMatch(spec),
                        "bench")
                  .Sink("joined");
  auto exec_or = plan.Compile();
  if (!exec_or.ok()) return {};
  auto exec = exec_or.MoveValueUnsafe();

  Tuple temp(0, {Value(10.0), Value(10.0),
                 Value(DistributionPtr(std::make_shared<usp::stats::Gaussian>(
                     70.0, 4.0)))});
  temp.InitBaseLineage();
  (void)exec->PushBatch(exec->source("temps"), TupleBatch({temp}));
  usp::stream::TupleBatch objs;
  objs.Reserve(fanout);
  for (size_t i = 0; i < fanout; ++i) {
    Tuple obj(static_cast<int64_t>(i + 1),
              {Value(static_cast<int64_t>(i)),
               Value(DistributionPtr(std::make_shared<usp::stats::Gaussian>(
                   10.0 + rng.Gaussian(0.0, 0.3), 0.5))),
               Value(DistributionPtr(std::make_shared<usp::stats::Gaussian>(
                   10.0 + rng.Gaussian(0.0, 0.3), 0.5)))});
    obj.InitBaseLineage();
    objs.Append(std::move(obj));
  }
  (void)exec->PushBatch(exec->source("objects"), objs);
  (void)exec->Finish();
  std::vector<DistributionPtr> temps;
  for (const Tuple& t : exec->Result("joined")) {
    temps.push_back(t.value(5).AsDistribution());
  }
  return temps;
}

void PrintLineageAblation() {
  printf("\n=== Lineage-aware aggregation after join (S5.2) ===\n");
  printf("%-8s %10s %16s %16s %18s\n", "fanout", "joined", "aware-var",
         "naive-var", "naive/aware ratio");
  usp::uncertain::CltSum clt;
  for (size_t fanout : {2, 4, 8, 16, 32, 64}) {
    const auto temps = JoinedTemps(fanout, 99);
    if (temps.empty()) continue;
    const auto aware = usp::uncertain::LineageAwareSum(temps, &clt);
    const auto naive = usp::uncertain::IndependenceAssumingSum(temps, &clt);
    if (!aware.ok() || !naive.ok()) continue;
    printf("%-8zu %10zu %16.2f %16.2f %18.3f\n", fanout, temps.size(),
           aware.value()->Variance(), naive.value()->Variance(),
           naive.value()->Variance() / aware.value()->Variance());
  }
  printf("\n(expected: the naive variance understates the true variance by "
         "a factor equal to the join fanout — confidence regions computed "
         "from it would be sqrt(fanout) too narrow)\n\n");
}

void BM_LineageAwareSum(benchmark::State& state) {
  const auto temps = JoinedTemps(static_cast<size_t>(state.range(0)), 7);
  usp::uncertain::CltSum clt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(usp::uncertain::LineageAwareSum(temps, &clt));
  }
}

void BM_IndependenceAssumingSum(benchmark::State& state) {
  const auto temps = JoinedTemps(static_cast<size_t>(state.range(0)), 7);
  usp::uncertain::CltSum clt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        usp::uncertain::IndependenceAssumingSum(temps, &clt));
  }
}

}  // namespace

BENCHMARK(BM_LineageAwareSum)->Arg(8)->Arg(64);
BENCHMARK(BM_IndependenceAssumingSum)->Arg(8)->Arg(64);

int main(int argc, char** argv) {
  PrintLineageAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
