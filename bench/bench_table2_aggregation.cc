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
//
// Every throughput is the median, min and max of g_reps timed runs (one
// under --smoke), and the JSON snapshot carries a machine block naming the
// host. A run repeats its pass over the input until it has lasted
// kMinRunSeconds, so fast strategies are not timed over a few
// microseconds. Variance distances come from each strategy's first pass.

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

using usp::bench::Measure;
using usp::bench::PrintSpreadJson;
using usp::bench::Spread;
using usp::stats::Distribution;
using usp::stats::GaussianMixture;
using usp::uncertain::SumStrategy;
using usp::uncertain::SumStrategyKind;

size_t g_reps = 5;
// The quadrature row evaluates the product-CF closure at every
// Gauss-Legendre node of every output bin; one run takes ~50 s on a
// 4-vCPU AVX2 host, so it runs once.
constexpr size_t kQuadratureReps = 1;
// One CLT pass over the 10 windows takes ~7 us: a single pass would time
// the clock, not the strategy.
constexpr double kMinRunSeconds = 0.05;
size_t kWindowSize = 100;
size_t kNumWindows = 10;
// Sliding-window section: window of kWindowSize tuples sliding by
// kWindowSize / kOverlap (overlap 4), timestamps 1 us apart.
constexpr size_t kOverlap = 4;
size_t kSlidingTuples = 2000;
bool g_smoke = false;
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
  size_t reps;
  Spread tps;
  double variance_distance;
};

// Tuples per second of one run: repeats `pass` (which returns the seconds
// it timed, negative on failure) until the timed total reaches
// kMinRunSeconds. 0 when a pass failed, which fails the point.
template <typename PassFn>
double TimedRate(size_t tuples_per_pass, PassFn pass) {
  double seconds = 0.0;
  size_t passes = 0;
  while (seconds < kMinRunSeconds) {
    const double s = pass();
    if (s < 0.0) return 0.0;
    seconds += s;
    ++passes;
  }
  return static_cast<double>(tuples_per_pass * passes) / seconds;
}

Row MeasureStrategy(
    SumStrategy* strategy, size_t reps,
    const std::vector<std::shared_ptr<const Distribution>>& stream,
    const std::vector<usp::stats::DistributionPtr>& exact_per_window) {
  // Monte Carlo advances its generator from pass to pass, so the distance
  // is taken from the first pass's results.
  std::vector<usp::stats::DistributionPtr> first;
  const auto pass = [&] {
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
    if (first.empty()) first = std::move(results);
    return seconds;
  };
  const Spread tps = Measure(
      reps, [&] { return TimedRate(kWindowSize * kNumWindows, pass); });
  double dist = 0.0;
  size_t counted = 0;
  for (size_t w = 0; w < kNumWindows; ++w) {
    if (!first[w] || !exact_per_window[w]) continue;
    dist += usp::stats::VarianceDistance(*first[w], *exact_per_window[w]);
    ++counted;
  }
  return {strategy->name(), reps, tps,
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
         "(tumbling window of %zu tuples, %zu windows, %zu reps) ===\n",
         kWindowSize, kNumWindows, g_reps);
  printf("%-16s %14s %14s %14s %18s   %s\n", "Algorithm", "Median t/s",
         "Min t/s", "Max t/s", "VarianceDistance",
         "(paper: 3382/0.083, 466/0, 10593/0.012)");
  const std::vector<Row> rows = {
      MeasureStrategy(&histogram, g_reps, stream, reference),
      MeasureStrategy(&inversion, kQuadratureReps, stream, reference),
      MeasureStrategy(&inversion_fft, g_reps, stream, reference),
      MeasureStrategy(&approx, g_reps, stream, reference),
      MeasureStrategy(&mc, g_reps, stream, reference),
      MeasureStrategy(&clt, g_reps, stream, reference),
  };
  for (const Row& r : rows) {
    printf("%-16s %14.0f %14.0f %14.0f %18.4f\n", r.name.c_str(),
           r.tps.median, r.tps.min, r.tps.max, r.variance_distance);
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
  Spread naive_tps;
  Spread incremental_tps;
  double speedup;  // of the medians
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

// Seconds the operator took to take the stream and close; negative on
// failure.
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
      return -1.0;
    }
  }
  if (!op.Close(&out).ok()) return -1.0;
  return sw.ElapsedSeconds();
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
  // A fresh operator per pass: each pass streams the whole input and
  // closes.
  const auto naive_pass = [&] {
    std::vector<usp::stream::AggregateSpec> naive_aggs;
    naive_aggs.push_back(
        usp::uncertain::MakeSumAggregate("sum", 1, strategy.get()));
    usp::stream::GroupByAggregateOperator naive("naive", spec, key_fn,
                                                std::move(naive_aggs));
    return DriveOperator(naive, stream, 256);
  };
  const Spread naive_tps = Measure(
      g_reps, [&] { return TimedRate(stream.size(), naive_pass); });

  const auto paned_pass = [&] {
    usp::stats::CfInversionWorkspace workspace;
    usp::uncertain::PaneAggregateOptions popts;
    popts.grid_points = grid_points;
    popts.workspace = &workspace;
    std::vector<usp::stream::PaneAggregateSpec> pane_aggs;
    pane_aggs.push_back(
        usp::uncertain::MakePaneSumAggregate("sum", 1, kind, popts));
    usp::stream::PanedGroupByAggregateOperator paned("paned", spec, key_fn,
                                                     std::move(pane_aggs));
    return DriveOperator(paned, stream, 256);
  };
  const Spread incremental_tps = Measure(
      g_reps, [&] { return TimedRate(stream.size(), paned_pass); });

  return {usp::uncertain::SumStrategyKindName(kind), naive_tps,
          incremental_tps,
          naive_tps.median > 0.0
              ? incremental_tps.median / naive_tps.median
              : 0.0};
}

void WriteJson(const std::vector<Row>& table2,
               const std::vector<SlidingRow>& sliding) {
  FILE* f = fopen(g_json_out, "w");
  if (!f) return;
  fprintf(f, "{\n  \"bench\": \"table2_aggregation\",\n");
  fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  usp::bench::PrintMachineJson(f);
  fprintf(f, "  \"reps\": %zu,\n", g_reps);
  fprintf(f, "  \"window_size\": %zu,\n  \"num_windows\": %zu,\n",
          kWindowSize, kNumWindows);
  fprintf(f, "  \"tumbling\": [\n");
  for (size_t i = 0; i < table2.size(); ++i) {
    fprintf(f, "    {\"algorithm\": \"%s\", \"reps\": %zu, ",
            table2[i].name.c_str(), table2[i].reps);
    PrintSpreadJson(f, table2[i].tps);
    fprintf(f, ", \"variance_distance\": %.6f}%s\n",
            table2[i].variance_distance, i + 1 < table2.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f, "  \"sliding_overlap\": %zu,\n", kOverlap);
  fprintf(f, "  \"sliding\": [\n");
  for (size_t i = 0; i < sliding.size(); ++i) {
    const SlidingRow& r = sliding[i];
    fprintf(f,
            "    {\"algorithm\": \"%s\", \"naive_tps\": %.1f, "
            "\"naive_tps_min\": %.1f, \"naive_tps_max\": %.1f, "
            "\"incremental_tps\": %.1f, \"incremental_tps_min\": %.1f, "
            "\"incremental_tps_max\": %.1f, \"speedup\": %.2f}%s\n",
            r.name.c_str(), r.naive_tps.median, r.naive_tps.min,
            r.naive_tps.max, r.incremental_tps.median, r.incremental_tps.min,
            r.incremental_tps.max, r.speedup,
            i + 1 < sliding.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
}

std::vector<SlidingRow> PrintSlidingComparison() {
  const auto stream = MakeSlidingStream(44);
  printf("=== Sliding-window SUM: naive recompute vs. pane-incremental "
         "(window %zu tuples, slide %zu, overlap %zu; medians of %zu "
         "reps) ===\n",
         kWindowSize, kWindowSize / kOverlap, kOverlap, g_reps);
  printf("%-16s %14s %14s %10s\n", "Algorithm", "Naive t/s", "Incr t/s",
         "Speedup");
  std::vector<SlidingRow> rows;
  const size_t grid_points = g_smoke ? 256 : 1024;
  for (SumStrategyKind kind :
       {SumStrategyKind::kCfInversion, SumStrategyKind::kClt}) {
    rows.push_back(MeasureSliding(kind, grid_points, stream));
    const SlidingRow& r = rows.back();
    printf("%-16s %14.0f %14.0f %9.2fx\n", r.name.c_str(), r.naive_tps.median,
           r.incremental_tps.median, r.speedup);
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
  // Before any CF evaluation, so the dispatch table latches the asked tier.
  printf("SIMD dispatch: %s\n", usp::bench::ApplySimdFlag(args));
  g_json_out = args.JsonOutPath("BENCH_table2.json");
  if (g_smoke) {
    // Tiny sizes so CI can exercise the perf-path code under sanitizers.
    g_reps = 1;
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
