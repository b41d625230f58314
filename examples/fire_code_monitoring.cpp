// Paper query Q1 end to end (§2.1): fire-code monitoring over an RFID
// warehouse.
//
//   Select Rstream(R2.area, sum(R2.weight))
//   From (Select Rstream(*, area(R.(x,y,z)) As area,
//                        weight(R.tag_id) As weight)
//         From RFIDStream R [Now]) R2 [Range 5 seconds]
//   Group By R2.area
//   Having sum(R2.weight) > 200 pounds
//
// The RFIDStream comes from the full T-operator pipeline: warehouse
// simulator -> particle filter -> KL conversion to per-axis Gaussians.
// Because locations are uncertain, area membership is probabilistic; this
// example resolves areas by expected location and reports the violation
// probability P(sum > 200) per emitted group.
//
// The query is DECLARED, not wired: the logical plan below says
// map -> window -> group-by -> sum -> having, and `Compile({num_shards=4})`
// makes every physical choice — it builds the per-shard graphs with the
// pane-incremental aggregate (one pane per window here, which runs the
// exact per-window SUM kernel), and derives the ingest
// partition key from the group-by key by replaying the annotate map, so
// one area's tuples always land on one shard and the per-area sums are
// exact with zero cross-shard coordination.
//
// Build & run:  ./build/examples/fire_code_monitoring

#include <cstdio>
#include <string>

#include "query/planner.h"
#include "query/query.h"
#include "rfid/model.h"
#include "rfid/transform_operator.h"
#include "uncertain/aggregates.h"

using usp::stream::Tuple;
using usp::stream::Value;

namespace {

// 10 ft grid cell display name of a location tuple's expected position:
// the GROUP BY key (and therefore, derived by the planner, the shard key).
std::string AreaOf(const Tuple& t) {
  const int cx = int(t.value(1).AsDistribution()->Mean() / 10.0);
  const int cy = int(t.value(2).AsDistribution()->Mean() / 10.0);
  return "area_" + std::to_string(cx) + "_" + std::to_string(cy);
}

}  // namespace

int main() {
  // --- world + T operator ------------------------------------------------
  usp::rfid::WarehouseConfig config;
  config.width_ft = 80.0;
  config.height_ft = 80.0;
  config.shelf_rows = 8;
  config.shelf_cols = 8;
  config.num_objects = 60;
  config.seed = 509;
  usp::rfid::WarehouseSimulator sim(config);
  usp::rfid::RfidTransformOperator::Options t_opts;
  t_opts.filter.particles_per_object = 64;
  usp::rfid::RfidTransformOperator t_op(config.num_objects,
                                        sim.shelf_positions(),
                                        config.sensing, t_opts);

  // Object weights by tag id: a handful of heavy pallets, the rest light.
  std::vector<double> weight_by_tag(config.num_objects);
  for (size_t i = 0; i < weight_by_tag.size(); ++i) {
    weight_by_tag[i] = (i % 7 == 0) ? 120.0 : 25.0;
  }

  // --- Q1, declared ------------------------------------------------------
  // Inner select: annotate area + weight (tuple becomes
  // (tag, x, y, area, weight)). Outer select: 5 s window, group by area,
  // SUM(weight) via the CF-approximation strategy, HAVING > 200 lb with
  // 50% confidence.
  auto q1 =
      usp::query::Query::From("rfid_stream", 3)
          .Map("annotate_area_weight",
               [&weight_by_tag](const Tuple& t)
                   -> usp::common::Result<Tuple> {
                 Tuple out = t;
                 out.AppendValue(Value(AreaOf(t)));
                 out.AppendValue(
                     Value(weight_by_tag[size_t(t.value(0).AsInt())]));
                 return out;
               },
               5)
          .Window(usp::stream::WindowSpec::Tumbling(5'000'000))
          .GroupBy(3)
          .Sum("total_weight", 4, usp::uncertain::SumStrategyKind::kCfApprox)
          .Having(usp::uncertain::MakeHavingProbGreater(1, 200.0, 0.5))
          .Sink("alerts");

  // num_shards is pinned to 4 so the demo behaves identically on any
  // machine; leaving it at the default (kAutoShards) lets the planner
  // size the executor from the machine's cores instead. Override it only
  // when you know better than the planner — e.g. for reproducible
  // benchmarks. Ingest forwards each scan's batch as it is: one push
  // reaches each shard as one message, so the scan size is the unit of
  // work a shard sees (the line printed after the run shows how long the
  // producer waited on full shard queues).
  usp::query::PlannerOptions popts;
  popts.num_shards = 4;
  auto exec_or = q1.Compile(popts);
  if (!exec_or.ok()) {
    fprintf(stderr, "compile failed: %s\n",
            exec_or.status().ToString().c_str());
    return 1;
  }
  auto exec = exec_or.MoveValueUnsafe();
  const auto source = exec->source("rfid_stream");

  // --- run 2 simulated minutes -------------------------------------------
  printf("== Q1: fire-code monitoring (areas over 200 lb) ==\n");
  printf("plan: %s\n\n", exec->summary().ToString().c_str());
  for (int scan = 0; scan < 240; ++scan) {
    auto locations = t_op.ProcessReadingBatch(sim.Step());
    if (!locations.ok()) {
      fprintf(stderr, "T operator failed: %s\n",
              locations.status().ToString().c_str());
      return 1;
    }
    if (auto st = exec->PushBatch(source, locations.MoveValueUnsafe());
        !st.ok()) {
      fprintf(stderr, "plan failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = exec->Finish(); !st.ok()) {
    fprintf(stderr, "plan failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const auto& alerts = exec->Result("alerts");
  printf("%-12s %-12s %-14s %s\n", "time(s)", "area", "E[weight](lb)",
         "P(weight > 200)");
  for (const Tuple& alert : alerts) {
    const Value& total = alert.value(1);
    printf("%-12.1f %-12s %-14.1f %.3f\n",
           static_cast<double>(alert.timestamp()) / 1e6,
           alert.value(0).AsString().c_str(), total.ExpectedValue(),
           usp::uncertain::ProbGreaterThan(total, 200.0));
  }
  uint64_t group_in = 0;
  double blocked = 0.0;
  for (const auto& m : exec->MetricsSnapshot()) {
    if (m.name == "total_weight_agg") group_in = m.metrics.tuples_in;
    if (m.name == "rfid_stream") blocked = m.metrics.producer_block_seconds;
  }
  printf("\n%zu violation alerts from %llu location tuples\n", alerts.size(),
         static_cast<unsigned long long>(group_in));
  printf("ingest: producer blocked %.1f ms on backpressure\n",
         blocked * 1e3);
  return 0;
}
