// Randomized differential harness: 50+ seeded random Q1-style plans (see
// seeded_plan_generator.h), each executed along independent physical
// paths that must agree —
//
//   1. the compiled plan (pane-incremental aggregation) vs. a hand-wired
//      reference plan on the naive GroupByAggregateOperator, which stores
//      every tuple and recomputes each window from scratch: bitwise for
//      tumbling windows (the paned operator's exactness claim), within
//      numeric tolerance for sliding ones (different but valid
//      floating-point association);
//   2. 1 shard vs. 2 and 4 shards (and a 2-lane ingest variant): the
//      result SET must be bitwise identical — every group runs wholly on
//      one shard over the same tuple subsequence, only merge order may
//      differ;
//   3. out-of-order input within lateness: the compiled plan fed a
//      feed with bounded disorder, at a lateness equal to that disorder,
//      vs. the naive reference fed the same tuples sorted — the same row
//      set within 1e-9 (accumulation order differs), and no tuple late;
//   4. keys of mixed Value kinds (int k, double k.0, string "k" in one
//      stream, one group by CanonicalKeyString): the compiled plan's typed
//      group keys vs. the naive reference's key strings, and 1 vs 2
//      shards bitwise;
//   5. seeded keyed joins (one join, or a join stacked on a join) over
//      out-of-order feeds in random batch splits, at 1 lane, 2 lanes, and
//      2 shards with PartitionBy: each result multiset equals a
//      brute-force nested-loop join of the pushed tuples, none late.
//
// On failure the offending seed + configuration is printed for replay:
//   stream_differential_test --gtest_filter='*Seed*' and the seed shown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "query/planner.h"
#include "query/query.h"
#include "seeded_plan_generator.h"
#include "stats/simd/dispatch.h"
#include "stream/basic_operators.h"
#include "stream/exec_graph.h"
#include "stream/group_by.h"
#include "stream/sharded_executor.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace stream {
namespace {

using query::PlannerOptions;
using gen::GeneratedJoinPlan;
using gen::GeneratedPlan;
using gen::GeneratePlan;

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kNumSeeds = 56;

// ---- result canonicalisation ---------------------------------------------

/// One output row, split into exact fields (timestamp, group key) and
/// numeric fields (aggregate means/variances) so the comparison can be
/// bitwise or tolerance-based per context.
struct Row {
  int64_t ts = 0;
  std::string key;
  std::vector<double> numbers;

  bool operator<(const Row& other) const {
    if (ts != other.ts) return ts < other.ts;
    return key < other.key;
  }
};

std::vector<Row> Rows(const TupleBatch& batch) {
  std::vector<Row> rows;
  rows.reserve(batch.size());
  for (const Tuple& t : batch) {
    Row row;
    row.ts = t.timestamp();
    row.key = t.value(0).AsString();
    for (size_t i = 1; i < t.num_values(); ++i) {
      const Value& v = t.value(i);
      if (v.is_distribution()) {
        row.numbers.push_back(v.AsDistribution()->Mean());
        row.numbers.push_back(v.AsDistribution()->Variance());
      } else if (v.is_numeric()) {
        row.numbers.push_back(v.AsDouble());
      }
    }
    rows.push_back(std::move(row));
  }
  // Canonical order: sharded merges only promise set identity plus
  // timestamp order (equal-ts tie order follows shard interleaving).
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b,
                     double rel_tolerance) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ts, b[i].ts) << "row " << i;
    ASSERT_EQ(a[i].key, b[i].key) << "row " << i;
    ASSERT_EQ(a[i].numbers.size(), b[i].numbers.size()) << "row " << i;
    for (size_t j = 0; j < a[i].numbers.size(); ++j) {
      const double x = a[i].numbers[j];
      const double y = b[i].numbers[j];
      if (rel_tolerance == 0.0) {
        ASSERT_EQ(x, y) << "row " << i << " number " << j;
      } else {
        const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
        ASSERT_NEAR(x, y, rel_tolerance * scale)
            << "row " << i << " number " << j;
      }
    }
  }
}

/// The compiled plan over the plan's feed; `late_dropped`, when given,
/// receives the plan's late-tuple count.
common::Result<TupleBatch> Run(const GeneratedPlan& plan,
                               const PlannerOptions& opts,
                               uint64_t* late_dropped = nullptr) {
  auto compiled_or = plan.Build().Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto src = compiled->source("src");
  for (const TupleBatch& batch : plan.MakeInput()) {
    USP_RETURN_NOT_OK(compiled->PushBatch(src, batch));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  if (late_dropped != nullptr) {
    *late_dropped = 0;
    for (const NodeMetrics& m : compiled->MetricsSnapshot()) {
      *late_dropped += m.metrics.late_dropped;
    }
  }
  return compiled->TakeResult(compiled->sink("out"));
}

/// Reference result: source -> [filter] -> naive GroupByAggregateOperator
/// -> sink on a DagExecutor, with the key, filter and aggregate columns the
/// generated query declares, over `input` (the plan's feed by default).
common::Result<TupleBatch> RunOracle(const GeneratedPlan& plan,
                                     std::vector<TupleBatch> input = {}) {
  if (input.empty()) input = plan.MakeInput();
  uncertain::CltSum clt;
  std::vector<AggregateSpec> aggregates;
  aggregates.push_back(uncertain::MakeSumAggregate("total", 1, &clt));
  if (plan.with_avg) {
    aggregates.push_back(uncertain::MakeAvgAggregate("mean", 1, &clt));
  }
  if (plan.with_count) {
    aggregates.push_back(uncertain::MakeCountAggregate("n"));
  }
  auto graph = std::make_unique<ExecGraph>();
  const auto src = graph->AddSource("src");
  ExecGraph::NodeId tail = src;
  if (plan.has_filter) {
    tail = graph->AddOperator(
        tail, std::make_unique<FilterOperator>("keep", gen::KeepTuple));
  }
  tail = graph->AddOperator(
      tail, std::make_unique<GroupByAggregateOperator>(
                "agg", plan.window,
                [](const Tuple& t) { return CanonicalKeyString(t.value(0)); },
                std::move(aggregates)));
  const auto sink = graph->AddSink(tail, "out");
  DagExecutor exec(std::move(graph));
  for (const TupleBatch& batch : input) {
    USP_RETURN_NOT_OK(exec.PushBatch(src, batch));
  }
  USP_RETURN_NOT_OK(exec.Close());
  return exec.TakeSinkOutput(sink);
}

PlannerOptions BaseOptions() {
  PlannerOptions opts;
  opts.num_shards = 1;
  return opts;
}

void RunSeed(uint64_t seed) {
  const GeneratedPlan plan = GeneratePlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());

  // Baseline: the compiled plan on a single shard.
  auto base_or = Run(plan, BaseOptions());
  ASSERT_TRUE(base_or.ok()) << base_or.status().ToString();
  const std::vector<Row> base = Rows(base_or.value());
  ASSERT_FALSE(base.empty()) << "degenerate plan produced no output";

  // (1) compiled (paned) vs. the naive reference operator.
  auto oracle_or = RunOracle(plan);
  ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
  const bool tumbling = plan.window.slide_us == plan.window.size_us;
  // Tumbling: the paned operator delegates to the exact per-window
  // kernels — bitwise. Sliding: same math, different FP association —
  // tight tolerance.
  ExpectRowsEqual(Rows(oracle_or.value()), base, tumbling ? 0.0 : 1e-9);

  // (2) shard-count invariance: 1 vs 2 vs 4 shards, bitwise as sets
  // (every group runs wholly on one shard over the same subsequence).
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    PlannerOptions sharded = BaseOptions();
    sharded.num_shards = shards;
    auto sharded_or = Run(plan, sharded);
    ASSERT_TRUE(sharded_or.ok())
        << "shards=" << shards << ": " << sharded_or.status().ToString();
    ExpectRowsEqual(base, Rows(sharded_or.value()), 0.0);
  }

  // (2b) lane-count invariance on the sharded backend (single source =>
  // one lane carries data, but the 2-lane executor path — per-lane rings,
  // per-lane watermark generation — must not change anything).
  PlannerOptions lanes = BaseOptions();
  lanes.num_shards = 2;
  lanes.num_ingest_lanes = 2;
  auto lanes_or = Run(plan, lanes);
  ASSERT_TRUE(lanes_or.ok()) << lanes_or.status().ToString();
  ExpectRowsEqual(base, Rows(lanes_or.value()), 0.0);
}

TEST(DifferentialTest, FiftySeededPlansAgreeAcrossPhysicalPaths) {
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kNumSeeds; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "differential harness failed at seed " << seed
             << " — replay with GeneratePlan(" << seed << ")";
    }
  }
}

void RunDisorderSeed(uint64_t seed) {
  const GeneratedPlan plan = gen::GenerateDisorderedPlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());
  // Every tuple trails the max timestamp before it by at most the
  // disorder, so at that lateness each is at or above the watermark when
  // it arrives and none may be dropped.
  PlannerOptions opts = BaseOptions();
  opts.watermark_lateness_us = plan.max_disorder_us;

  // Reference: the naive operator fed the same tuples in timestamp order.
  TupleBatch sorted;
  for (TupleBatch& batch : plan.MakeInput()) sorted.Concat(std::move(batch));
  std::stable_sort(sorted.mutable_tuples().begin(),
                   sorted.mutable_tuples().end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.timestamp() < b.timestamp();
                   });
  std::vector<TupleBatch> sorted_input;
  sorted_input.push_back(std::move(sorted));
  auto oracle_or = RunOracle(plan, std::move(sorted_input));
  ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
  const std::vector<Row> expected = Rows(oracle_or.value());
  ASSERT_FALSE(expected.empty()) << "degenerate plan produced no output";

  uint64_t late = 0;
  auto base_or = Run(plan, opts, &late);
  ASSERT_TRUE(base_or.ok()) << base_or.status().ToString();
  EXPECT_EQ(late, 0u);
  const std::vector<Row> base = Rows(base_or.value());
  ExpectRowsEqual(expected, base, 1e-9);

  // Sharded: same per-key arrival order on every shard count — bitwise.
  opts.num_shards = 2;
  auto sharded_or = Run(plan, opts, &late);
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().ToString();
  EXPECT_EQ(late, 0u);
  ExpectRowsEqual(base, Rows(sharded_or.value()), 0.0);
}

TEST(DifferentialTest, DisorderWithinLatenessMatchesSortedReference) {
  size_t tumbling = 0, sliding = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + 24; ++seed) {
    RunDisorderSeed(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "disorder differential failed at seed " << seed
             << " — replay with GenerateDisorderedPlan(" << seed << ")";
    }
    const WindowSpec w = GeneratePlan(seed).window;
    ++(w.slide_us == w.size_us ? tumbling : sliding);
  }
  EXPECT_GT(tumbling, 0u);
  EXPECT_GT(sliding, 0u);
}

void RunMixedKeySeed(uint64_t seed) {
  const GeneratedPlan plan = gen::GenerateMixedKeyPlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());
  auto base_or = Run(plan, BaseOptions());
  ASSERT_TRUE(base_or.ok()) << base_or.status().ToString();
  const std::vector<Row> base = Rows(base_or.value());
  ASSERT_FALSE(base.empty()) << "degenerate plan produced no output";
  // One row per (window, key number): the three kinds of a key are one
  // group, named by its integer's decimal string.
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].key, std::to_string(std::stoll(base[i].key)));
    if (i > 0) {
      EXPECT_FALSE(base[i].ts == base[i - 1].ts &&
                   base[i].key == base[i - 1].key)
          << "key " << base[i].key << " split at ts " << base[i].ts;
    }
  }

  auto oracle_or = RunOracle(plan);
  ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
  const bool tumbling = plan.window.slide_us == plan.window.size_us;
  ExpectRowsEqual(Rows(oracle_or.value()), base, tumbling ? 0.0 : 1e-9);

  PlannerOptions sharded = BaseOptions();
  sharded.num_shards = 2;
  auto sharded_or = Run(plan, sharded);
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().ToString();
  ExpectRowsEqual(base, Rows(sharded_or.value()), 0.0);
}

TEST(DifferentialTest, MixedKeyKindsAgreeWithReferenceAndAcrossShards) {
  constexpr uint64_t kFirstMixedSeed = 1001;
  size_t tumbling = 0, sliding = 0;
  for (uint64_t seed = kFirstMixedSeed; seed < kFirstMixedSeed + 24;
       ++seed) {
    RunMixedKeySeed(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "mixed-key differential failed at seed " << seed
             << " — replay with GenerateMixedKeyPlan(" << seed << ")";
    }
    const WindowSpec w = GeneratePlan(seed).window;
    ++(w.slide_us == w.size_us ? tumbling : sliding);
  }
  EXPECT_GT(tumbling, 0u);
  EXPECT_GT(sliding, 0u);
}

// Free function (not the TEST body) so the call to Run() does not collide
// with testing::Test::Run member lookup.
void RunScalarDispatchSeed(uint64_t seed) {
  const GeneratedPlan plan = GeneratePlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());
  auto active_or = Run(plan, BaseOptions());
  ASSERT_TRUE(active_or.ok()) << active_or.status().ToString();
  std::vector<Row> scalar_rows;
  {
    // Forced before Run spawns any worker; restored after Finish joins
    // them, so no thread observes a mid-run tier switch.
    stats::simd::ScopedForceTier force(stats::simd::Tier::kScalar);
    auto scalar_or = Run(plan, BaseOptions());
    ASSERT_TRUE(scalar_or.ok()) << scalar_or.status().ToString();
    scalar_rows = Rows(scalar_or.value());
  }
  ExpectRowsEqual(Rows(active_or.value()), scalar_rows, 0.0);
}

TEST(DifferentialTest, ScalarDispatchMatchesActiveTierBitwise) {
  // The SIMD dispatch table's claim end-to-end: forcing the scalar kernel
  // tier must not change a single bit of any plan's output (the AVX2 tier
  // is lane-exact against the scalar forms). On a machine whose active
  // tier IS scalar this degenerates to a determinism check — still worth
  // running; on AVX2 hosts it covers the whole planner/operator stack.
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + 8; ++seed) {
    RunScalarDispatchSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "scalar-dispatch differential failed at seed " << seed;
    }
  }
}

// ---- seeded joins ----------------------------------------------------------

/// A joined row: its timestamp, then every (integer) value.
using JoinRow = std::vector<int64_t>;

std::vector<JoinRow> SortedJoinRows(const TupleBatch& batch) {
  std::vector<JoinRow> rows;
  rows.reserve(batch.size());
  for (const Tuple& t : batch) {
    JoinRow row{t.timestamp()};
    for (size_t i = 0; i < t.num_values(); ++i) {
      row.push_back(t.value(i).AsInt());
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The reference: every key-equal pair (or triple, through the second
/// join) of the pushed tuples within the range, by nested loops, stamped
/// at its max timestamp as ConcatJoinedTuple stamps it.
std::vector<JoinRow> NestedLoopJoin(const GeneratedJoinPlan& plan) {
  std::vector<std::vector<JoinRow>> inputs(plan.num_sources());
  for (const GeneratedJoinPlan::Push& push : plan.MakePushes()) {
    for (const Tuple& t : push.batch) {
      inputs[push.source].push_back(
          {t.timestamp(), t.value(0).AsInt(), t.value(1).AsInt()});
    }
  }
  const auto join = [&plan](const std::vector<JoinRow>& left,
                            const std::vector<JoinRow>& right) {
    std::vector<JoinRow> out;
    for (const JoinRow& l : left) {
      for (const JoinRow& r : right) {
        if (l[1] != r[1] || std::abs(l[0] - r[0]) > plan.range_us) continue;
        JoinRow row{std::max(l[0], r[0])};
        row.insert(row.end(), l.begin() + 1, l.end());
        row.insert(row.end(), r.begin() + 1, r.end());
        out.push_back(std::move(row));
      }
    }
    return out;
  };
  std::vector<JoinRow> rows = join(inputs[0], inputs[1]);
  if (plan.second_join) rows = join(rows, inputs[2]);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The compiled join plan over the plan's pushes.
common::Result<std::vector<JoinRow>> RunJoin(const GeneratedJoinPlan& plan,
                                             const PlannerOptions& opts,
                                             bool partition,
                                             uint64_t* late_dropped) {
  query::Query q = plan.Build();
  if (partition) q = q.PartitionBy(KeyByIntValue(0));
  auto compiled_or = q.Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  std::vector<ExecGraph::NodeId> sources;
  for (size_t s = 0; s < plan.num_sources(); ++s) {
    sources.push_back(compiled->source(GeneratedJoinPlan::SourceName(s)));
  }
  for (GeneratedJoinPlan::Push& push : plan.MakePushes()) {
    USP_RETURN_NOT_OK(
        compiled->PushBatch(sources[push.source], std::move(push.batch)));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  *late_dropped = 0;
  for (const NodeMetrics& m : compiled->MetricsSnapshot()) {
    *late_dropped += m.metrics.late_dropped;
  }
  return SortedJoinRows(compiled->Result("out"));
}

/// True when every physical configuration matches the nested-loop
/// reference; reports each mismatch.
bool JoinSeedMatches(uint64_t seed) {
  const GeneratedJoinPlan plan = gen::GenerateJoinPlan(seed);
  const std::vector<JoinRow> expected = NestedLoopJoin(plan);
  if (expected.empty()) {
    ADD_FAILURE() << "degenerate join plan, no pairs: " << plan.ToString();
    return false;
  }
  struct Config {
    const char* label;
    size_t shards;
    size_t lanes;
    bool partition;
  };
  const Config configs[] = {
      {"1 lane", 1, 1, false},
      {"2 lanes", 1, 2, false},
      {"2 shards, PartitionBy", 2, PlannerOptions::kAutoLanes, true},
  };
  bool ok = true;
  for (const Config& config : configs) {
    PlannerOptions opts;
    opts.num_shards = config.shards;
    opts.num_ingest_lanes = config.lanes;
    // Every tuple trails its source's newest one by at most the disorder.
    opts.watermark_lateness_us = plan.max_disorder_us;
    uint64_t late = 0;
    auto rows_or = RunJoin(plan, opts, config.partition, &late);
    if (!rows_or.ok()) {
      ADD_FAILURE() << config.label << ": " << rows_or.status().ToString()
                    << " — replay: " << plan.ToString();
      ok = false;
    } else if (late != 0 || rows_or.value() != expected) {
      ADD_FAILURE() << config.label << ": " << rows_or.value().size()
                    << " rows vs " << expected.size()
                    << " nested-loop pairs, " << late
                    << " late — replay: " << plan.ToString();
      ok = false;
    }
  }
  return ok;
}

TEST(DifferentialTest, SeededJoinPlansMatchNestedLoopPairs) {
  constexpr uint64_t kNumJoinSeeds = 40;
  std::vector<uint64_t> failing;
  size_t stacked = 0, disordered = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kNumJoinSeeds;
       ++seed) {
    if (!JoinSeedMatches(seed)) failing.push_back(seed);
    const GeneratedJoinPlan plan = gen::GenerateJoinPlan(seed);
    if (plan.second_join) ++stacked;
    if (plan.max_disorder_us > 0) ++disordered;
  }
  std::string seeds;
  for (const uint64_t seed : failing) seeds += " " + std::to_string(seed);
  EXPECT_TRUE(failing.empty())
      << "join differential failed at seeds" << seeds
      << " — replay with GenerateJoinPlan(seed)";
  EXPECT_GT(stacked, 0u);
  EXPECT_LT(stacked, kNumJoinSeeds);
  EXPECT_GT(disordered, 0u);
}

}  // namespace
}  // namespace stream
}  // namespace usp
