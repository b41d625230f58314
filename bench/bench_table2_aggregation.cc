// Reproduces Table 2: "Algorithm comparison for performing sum over a tuple
// stream. A tumbling window of size of 100 tuples is used for aggregation."
//
// Paper's reported numbers (throughput in tuples/sec, variance distance to
// the exact CF-inversion result):
//   Histogram      3382    0.083
//   CF (inversion)  466    0
//   CF (approx.)  10593    0.012
//
// We report the same three rows measured on this machine plus the two
// bonus strategies (Monte Carlo, CLT). Absolute throughput depends on
// hardware; the reproduction claims are the orderings: CF approx fastest
// AND near-exact; inversion exact but slowest; histogram in between on
// speed with clearly worse accuracy.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "stats/characteristic_function.h"
#include "stats/gaussian_mixture.h"
#include "stats/metrics.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "stream/pane_window.h"
#include "uncertain/aggregates.h"
#include "uncertain/pane_aggregates.h"
#include "uncertain/sum_strategies.h"

namespace {

using usp::stats::Distribution;
using usp::stats::GaussianMixture;
using usp::uncertain::SumStrategy;
using usp::uncertain::SumStrategyKind;

size_t kWindowSize = 100;
size_t kNumWindows = 10;
// Sliding-window section: window of kWindowSize tuples sliding by
// kWindowSize / kOverlap (overlap 4), timestamps 1 us apart.
constexpr size_t kOverlap = 4;
size_t kSlidingTuples = 2000;
bool g_smoke = false;
const char* g_isa = "scalar";
const char* g_json_out = "BENCH_table2.json";

// "The input distributions are different for different tuples, and are
// generated from mixture Gaussian distributions to simulate arbitrary
// real-world distributions."
std::vector<std::shared_ptr<const Distribution>> MakeStream(uint64_t seed,
                                                            size_t count) {
  usp::common::Rng rng(seed);
  std::vector<std::shared_ptr<const Distribution>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<GaussianMixture::Component> comps;
    const size_t k = 1 + rng.UniformInt(3);
    for (size_t c = 0; c < k; ++c) {
      comps.push_back(
          {0.2 + rng.Uniform(), rng.Uniform(-5.0, 5.0), 0.3 + rng.Uniform()});
    }
    out.push_back(std::make_shared<GaussianMixture>(
        GaussianMixture::Make(std::move(comps)).MoveValueUnsafe()));
  }
  return out;
}

struct Row {
  std::string name;
  double throughput_tps;
  double variance_distance;
};

Row MeasureStrategy(
    SumStrategy* strategy,
    const std::vector<std::shared_ptr<const Distribution>>& stream,
    const std::vector<usp::stats::DistributionPtr>& exact_per_window) {
  usp::common::Stopwatch sw;
  std::vector<usp::stats::DistributionPtr> results;
  results.reserve(kNumWindows);
  for (size_t w = 0; w < kNumWindows; ++w) {
    std::vector<const Distribution*> window;
    window.reserve(kWindowSize);
    for (size_t i = 0; i < kWindowSize; ++i) {
      window.push_back(stream[w * kWindowSize + i].get());
    }
    auto sum = strategy->SumOf(window);
    results.push_back(sum.ok() ? sum.MoveValueUnsafe() : nullptr);
  }
  const double seconds = sw.ElapsedSeconds();
  double dist = 0.0;
  size_t counted = 0;
  for (size_t w = 0; w < kNumWindows; ++w) {
    if (!results[w] || !exact_per_window[w]) continue;
    dist += usp::stats::VarianceDistance(*results[w], *exact_per_window[w]);
    ++counted;
  }
  return {strategy->name(),
          static_cast<double>(kWindowSize * kNumWindows) / seconds,
          counted ? dist / static_cast<double>(counted) : 1.0};
}

std::vector<Row> PrintTable2() {
  const auto stream = MakeStream(42, kWindowSize * kNumWindows);
  // Exact reference per window: CF inversion at high resolution. "We use
  // the exact result distribution calculated from the inversion of the
  // characteristic function as a criterion to calibrate the accuracy."
  usp::uncertain::CfInversionSum exact(4096);
  std::vector<usp::stats::DistributionPtr> reference;
  for (size_t w = 0; w < kNumWindows; ++w) {
    std::vector<const Distribution*> window;
    for (size_t i = 0; i < kWindowSize; ++i) {
      window.push_back(stream[w * kWindowSize + i].get());
    }
    auto sum = exact.SumOf(window);
    reference.push_back(sum.ok() ? sum.MoveValueUnsafe() : nullptr);
  }

  usp::uncertain::HistogramSum histogram(128);
  usp::uncertain::CfInversionSum inversion(
      256, usp::uncertain::CfInversionSum::Mode::kQuadrature);
  usp::uncertain::CfInversionSum inversion_fft(1024);
  usp::uncertain::CfApproxSum approx(1);
  usp::uncertain::MonteCarloSum mc(1000, 7);
  usp::uncertain::CltSum clt;

  printf("\n=== Table 2: SUM over a tuple stream "
         "(tumbling window of %zu tuples, %zu windows) ===\n",
         kWindowSize, kNumWindows);
  printf("%-16s %14s %18s   %s\n", "Algorithm", "Throughput",
         "VarianceDistance", "(paper: 3382/0.083, 466/0, 10593/0.012)");
  const std::vector<Row> rows = {
      MeasureStrategy(&histogram, stream, reference),
      MeasureStrategy(&inversion, stream, reference),
      MeasureStrategy(&inversion_fft, stream, reference),
      MeasureStrategy(&approx, stream, reference),
      MeasureStrategy(&mc, stream, reference),
      MeasureStrategy(&clt, stream, reference),
  };
  for (const Row& r : rows) {
    printf("%-16s %14.0f %18.4f\n", r.name.c_str(), r.throughput_tps,
           r.variance_distance);
  }
  printf("\n");
  return rows;
}

// ---------------------------------------------------------------------------
// Sliding-window section: naive per-window recompute vs. the
// pane-incremental path (PR 2). Overlap kOverlap means the naive path
// re-evaluates every tuple's CF in kOverlap windows; the pane path
// evaluates it once.
// ---------------------------------------------------------------------------

struct SlidingRow {
  std::string name;
  double naive_tps;
  double incremental_tps;
  double speedup;
};

std::vector<usp::stream::Tuple> MakeSlidingStream(uint64_t seed) {
  const auto dists = MakeStream(seed, kSlidingTuples);
  std::vector<usp::stream::Tuple> out;
  out.reserve(dists.size());
  for (size_t i = 0; i < dists.size(); ++i) {
    usp::stream::Tuple t(static_cast<int64_t>(i),
                         {usp::stream::Value(std::string("g")),
                          usp::stream::Value(dists[i])});
    t.InitBaseLineage();
    out.push_back(std::move(t));
  }
  return out;
}

double DriveOperator(usp::stream::Operator& op,
                     const std::vector<usp::stream::Tuple>& stream,
                     size_t batch_size) {
  // Slice the stream into batches before starting the clock so the
  // measurement is the operator path, not tuple copying.
  std::vector<usp::stream::TupleBatch> batches;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    usp::stream::TupleBatch batch;
    for (size_t j = i; j < std::min(i + batch_size, stream.size()); ++j) {
      batch.Append(stream[j]);
    }
    batches.push_back(std::move(batch));
  }
  usp::stream::VectorCollector out;
  usp::common::Stopwatch sw;
  // Each batch is followed by the watermark the executor would carry on
  // it (max ingested ts, lateness 0): without it the paned operator, which
  // closes windows only on watermarks, would buffer every pane until
  // Close().
  for (const usp::stream::TupleBatch& batch : batches) {
    if (!op.PushBatch(batch, &out).ok() ||
        !op.AdvanceWatermark(batch.MaxTimestamp(), &out).ok()) {
      return 0.0;
    }
  }
  if (!op.Close(&out).ok()) return 0.0;
  return static_cast<double>(stream.size()) / sw.ElapsedSeconds();
}

SlidingRow MeasureSliding(SumStrategyKind kind, size_t grid_points,
                          const std::vector<usp::stream::Tuple>& stream) {
  const auto key_fn = [](const usp::stream::Tuple& t) {
    return t.value(0).AsString();
  };
  const usp::stream::WindowSpec spec = usp::stream::WindowSpec::Sliding(
      static_cast<int64_t>(kWindowSize),
      static_cast<int64_t>(kWindowSize / kOverlap));

  std::unique_ptr<SumStrategy> strategy =
      kind == SumStrategyKind::kCfInversion
          ? std::make_unique<usp::uncertain::CfInversionSum>(grid_points)
          : usp::uncertain::MakeSumStrategy(kind);
  std::vector<usp::stream::AggregateSpec> naive_aggs;
  naive_aggs.push_back(
      usp::uncertain::MakeSumAggregate("sum", 1, strategy.get()));
  usp::stream::GroupByAggregateOperator naive("naive", spec, key_fn,
                                              std::move(naive_aggs));
  const double naive_tps = DriveOperator(naive, stream, 256);

  usp::stats::CfInversionWorkspace workspace;
  usp::uncertain::PaneAggregateOptions popts;
  popts.grid_points = grid_points;
  popts.workspace = &workspace;
  std::vector<usp::stream::PaneAggregateSpec> pane_aggs;
  pane_aggs.push_back(
      usp::uncertain::MakePaneSumAggregate("sum", 1, kind, popts));
  usp::stream::PanedGroupByAggregateOperator paned("paned", spec, key_fn,
                                                   std::move(pane_aggs));
  const double incremental_tps = DriveOperator(paned, stream, 256);

  return {usp::uncertain::SumStrategyKindName(kind), naive_tps,
          incremental_tps,
          naive_tps > 0.0 ? incremental_tps / naive_tps : 0.0};
}

void WriteJson(const std::vector<Row>& table2,
               const std::vector<SlidingRow>& sliding) {
  FILE* f = fopen(g_json_out, "w");
  if (!f) return;
  fprintf(f, "{\n  \"bench\": \"table2_aggregation\",\n");
  fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  fprintf(f, "  \"isa\": \"%s\",\n", g_isa);
  fprintf(f, "  \"window_size\": %zu,\n  \"num_windows\": %zu,\n",
          kWindowSize, kNumWindows);
  fprintf(f, "  \"tumbling\": [\n");
  for (size_t i = 0; i < table2.size(); ++i) {
    fprintf(f,
            "    {\"algorithm\": \"%s\", \"throughput_tps\": %.1f, "
            "\"variance_distance\": %.6f}%s\n",
            table2[i].name.c_str(), table2[i].throughput_tps,
            table2[i].variance_distance, i + 1 < table2.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f, "  \"sliding_overlap\": %zu,\n", kOverlap);
  fprintf(f, "  \"sliding\": [\n");
  for (size_t i = 0; i < sliding.size(); ++i) {
    fprintf(f,
            "    {\"algorithm\": \"%s\", \"naive_tps\": %.1f, "
            "\"incremental_tps\": %.1f, \"speedup\": %.2f}%s\n",
            sliding[i].name.c_str(), sliding[i].naive_tps,
            sliding[i].incremental_tps, sliding[i].speedup,
            i + 1 < sliding.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
}

std::vector<SlidingRow> PrintSlidingComparison() {
  const auto stream = MakeSlidingStream(44);
  printf("=== Sliding-window SUM: naive recompute vs. pane-incremental "
         "(window %zu tuples, slide %zu, overlap %zu) ===\n",
         kWindowSize, kWindowSize / kOverlap, kOverlap);
  printf("%-16s %14s %14s %10s\n", "Algorithm", "Naive t/s", "Incr t/s",
         "Speedup");
  std::vector<SlidingRow> rows;
  const size_t grid_points = g_smoke ? 256 : 1024;
  for (SumStrategyKind kind :
       {SumStrategyKind::kCfInversion, SumStrategyKind::kClt}) {
    rows.push_back(MeasureSliding(kind, grid_points, stream));
    const SlidingRow& r = rows.back();
    printf("%-16s %14.0f %14.0f %9.2fx\n", r.name.c_str(), r.naive_tps,
           r.incremental_tps, r.speedup);
  }
  printf("\n");
  return rows;
}

// Micro-benchmarks of a single 100-tuple window per strategy.
template <typename Strategy>
void BM_SumWindow(benchmark::State& state, Strategy* strategy) {
  static const auto stream = MakeStream(43, kWindowSize);
  std::vector<const Distribution*> window;
  for (size_t i = 0; i < kWindowSize; ++i) window.push_back(stream[i].get());
  for (auto _ : state) {
    auto sum = strategy->SumOf(window);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWindowSize));
}

usp::uncertain::HistogramSum g_hist(128);
usp::uncertain::CfInversionSum g_inv(1024);
usp::uncertain::CfApproxSum g_approx(1);
usp::uncertain::CltSum g_clt;

}  // namespace

BENCHMARK_CAPTURE(BM_SumWindow, histogram, &g_hist);
BENCHMARK_CAPTURE(BM_SumWindow, cf_inversion, &g_inv);
BENCHMARK_CAPTURE(BM_SumWindow, cf_approx, &g_approx);
BENCHMARK_CAPTURE(BM_SumWindow, clt, &g_clt);

int main(int argc, char** argv) {
  const usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
  g_smoke = args.smoke;
  g_isa = usp::bench::ApplySimdFlag(args);  // before any CF evaluation
  g_json_out = args.JsonOutPath("BENCH_table2.json");
  printf("SIMD dispatch: %s\n", g_isa);
  if (g_smoke) {
    // Tiny sizes so CI can exercise the perf-path code under sanitizers.
    kWindowSize = 20;
    kNumWindows = 2;
    kSlidingTuples = 160;
  }
  const std::vector<Row> table2 = PrintTable2();
  const std::vector<SlidingRow> sliding = PrintSlidingComparison();
  WriteJson(table2, sliding);
  if (!g_smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
