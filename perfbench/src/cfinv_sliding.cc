// cfinv_sliding: paper Table 2's CF-inversion SUM over a sliding window
// (overlap 4) on one shard.
//
// Readings come from 16 sensors; each is a 1-3 component Gaussian mixture
// drawn from a 256-entry palette, four times the 64-entry CF grid cache,
// so the cache sees hits and misses. Almost all time is in stats/uncertain
// (CF grids, FFT inversion, pane partials, the grid cache); the stream
// path is trivial. Each output row carries a 1024-bin density, so retained
// output dominates memory.
//
// Reference: for every 2nd window, each sensor's P(sum > mean + sd/2) by
// Gil-Pelaez inversion of the exact product CF (reference.h), whose
// aliasing period spans 14.5 standard deviations around the threshold.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness.h"
#include "query/planner.h"
#include "query/query.h"
#include "reference.h"
#include "stats/gaussian_mixture.h"
#include "uncertain/aggregates.h"

namespace perfbench {
namespace {

using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr int64_t kSensors = 16;
constexpr size_t kPalette = 256;
constexpr int64_t kWindowUs = 100'000;
constexpr int64_t kSlideUs = 25'000;  // overlap 4
constexpr int64_t kRate = 10'000;     // offered events/s (seed capacity ~3x)
constexpr int64_t kCheckEvery = 2;    // reference on every 2nd window
constexpr size_t kMinNodes = 1024;
constexpr uint64_t kPaletteSeed = 0xcf;
// A row whose tail probability is further than this from the reference
// is wrong (the 1024-bin grid's own error is far below it).
constexpr double kWrongAnswer = 0.02;

class CfInvSliding;

class CfEngine : public PlanEngine<usp::query::CompiledQuery> {
 public:
  CfEngine(std::unique_ptr<usp::query::CompiledQuery> q,
           const CfInvSliding* w);
  usp::common::Status Push(size_t begin, size_t end) override;
  size_t BatchTarget() const override {
    return plan_->current_target_batch_size();
  }

 private:
  const CfInvSliding* w_;
  usp::stream::ExecGraph::NodeId src_;
};

class CfInvSliding : public Workload {
 public:
  explicit CfInvSliding(const Args& args)
      : seed_(args.seed), smoke_(args.smoke) {
    // The palette is a fixture shared by every seed: 1, 2 and 3 component
    // mixtures in equal shares, parameters spread evenly over their ranges
    // (parameter j of entry p is frac(p * alpha_j + shift_j)). A seeded
    // palette moved the work per reading and the inversion's error by a
    // fifth between seeds; the seed still picks every reading's sensor
    // and palette entry.
    for (size_t p = 0; p < kPalette; ++p) {
      const size_t k = 1 + p % 3;
      std::vector<usp::stats::GaussianMixture::Component> comps;
      for (size_t c = 0; c < k; ++c) {
        comps.push_back({0.2 + Stratified(p, 3 * c), -5.0 + 10.0 * Stratified(p, 3 * c + 1),
                         0.3 + Stratified(p, 3 * c + 2)});
      }
      auto gmm = usp::stats::GaussianMixture::Make(comps);
      ref::Mixture m;
      double wsum = 0.0;
      for (const auto& c : comps) wsum += c.weight;
      for (const auto& c : comps) {
        m.w.push_back(c.weight / wsum);
        m.mu.push_back(c.mean);
        m.sd.push_back(c.stddev);
      }
      mixtures_.push_back(m);
      palette_.push_back(std::make_shared<usp::stats::GaussianMixture>(
          gmm.MoveValueUnsafe()));
    }
  }

  double Stratified(size_t p, size_t j) const {
    static constexpr double kAlpha[] = {1.4142135623730951, 1.7320508075688772,
                                        2.2360679774997896, 2.6457513110645907,
                                        3.3166247903554,    3.605551275463989,
                                        4.123105625617661,  4.358898943540674,
                                        4.795831523312719};
    const double x = static_cast<double>(p) * kAlpha[j] +
                     Unit(Mix(kPaletteSeed, j));
    return x - std::floor(x);
  }
  size_t closed_events() const override { return smoke_ ? 2'000 : 30'000; }
  size_t push_chunk() const override { return 256; }
  double offered_rate() const override { return kRate; }
  int64_t EventUs(size_t i) const override {
    return static_cast<int64_t>(i) * 1'000'000 / kRate;
  }
  size_t default_shards() const override { return 1; }
  int64_t SensorOf(size_t i) const {
    return static_cast<int64_t>(Mix(seed_, 2 * i) % kSensors);
  }
  size_t PaletteOf(size_t i) const { return Mix(seed_, 2 * i + 1) % kPalette; }
  const usp::stats::DistributionPtr& palette(size_t p) const {
    return palette_[p];
  }

  usp::common::Result<std::unique_ptr<Engine>> Setup(
      size_t num_shards, LatencyRecorder* latency, size_t /*input*/) override {
    trace::Span span("query.compile");
    auto q = usp::query::Query::From("src_readings", 2)
                 .Window(usp::stream::WindowSpec::Sliding(kWindowUs, kSlideUs))
                 .GroupBy(0)
                 .Sum("total", 1, usp::uncertain::SumStrategyKind::kCfInversion)
                 .Map("observe", ObserveMap(latency, &emit_calls_))
                 .Sink("sink_sums");
    usp::query::PlannerOptions opts;
    opts.num_shards = num_shards;
    auto compiled = q.Compile(opts);
    if (!compiled.ok()) return compiled.status();
    return std::unique_ptr<Engine>(
        new CfEngine(compiled.MoveValueUnsafe(), this));
  }

  CheckResult Verify(Engine& engine, size_t n) override {
    // Every (window, sensor) with at least one reading must appear once.
    // Window starts are multiples of the slide in (ts - size, ts].
    std::map<std::pair<int64_t, int64_t>, std::vector<size_t>> windows;
    for (size_t i = 0; i < n; ++i) {
      const int64_t ts = EventUs(i);
      const int64_t last = ts - ((ts % kSlideUs) + kSlideUs) % kSlideUs;
      for (int64_t s = last; s > ts - kWindowUs; s -= kSlideUs) {
        windows[{s + kWindowUs, SensorOf(i)}].push_back(PaletteOf(i));
      }
    }
    CheckResult r;
    r.checked = windows.size();
    std::map<std::pair<int64_t, int64_t>, int> seen;
    double abs_err = 0.0;
    size_t compared = 0;
    for (const Tuple& row : static_cast<CfEngine&>(engine).Rows()) {
      const std::pair<int64_t, int64_t> key{
          row.timestamp(), std::stoll(row.value(0).AsString())};
      if (++seen[key] > 1) {
        ++r.failed;
        r.detail = "duplicate row";
        continue;
      }
      const auto it = windows.find(key);
      if (it == windows.end()) {
        ++r.failed;
        r.detail = "row not in the reference";
        continue;
      }
      const int64_t window_index =
          (key.first - kWindowUs) / kSlideUs;  // start / slide
      if (window_index % kCheckEvery != 0) continue;
      const auto [t, exact] = Reference(key, it->second);
      const double p = usp::uncertain::ProbGreaterThan(row.value(1), t);
      const double err = std::fabs(p - exact);
      abs_err += err;
      ++compared;
      if (err > kWrongAnswer) {
        ++r.failed;
        r.detail = "P(sum > t) off by " + std::to_string(err);
      }
    }
    for (const auto& w : windows) {
      if (seen.count(w.first) == 0) {
        ++r.failed;
        r.detail = "reference row missing";
      }
    }
    r.error = compared ? abs_err / static_cast<double>(compared) : 0.0;
    return r;
  }

  void ResetLayers() override { emit_calls_.Reset(); }
  void CollectLayers(std::map<std::string, double>* out) override {
    (*out)["emit.callback_us"] = emit_calls_.MeanUs();
  }

 private:
  /// Threshold and exact P(sum > threshold) for one window's readings,
  /// cached by (window, sensor, reading count) across phases.
  std::pair<double, double> Reference(const std::pair<int64_t, int64_t>& key,
                                      const std::vector<size_t>& readings) {
    const auto cache_key =
        std::make_tuple(key.first, key.second, readings.size());
    const auto hit = cache_.find(cache_key);
    if (hit != cache_.end()) return hit->second;
    std::vector<const ref::Mixture*> terms;
    double mean = 0.0, var = 0.0;
    for (size_t p : readings) {
      terms.push_back(&mixtures_[p]);
      mean += palette_[p]->Mean();
      var += palette_[p]->Variance();
    }
    const double t = mean + 0.5 * std::sqrt(var);
    const std::pair<double, double> out{t,
                                        ref::MixtureSumSf(terms, t, kMinNodes)};
    cache_.emplace(cache_key, out);
    return out;
  }

  uint64_t seed_;
  bool smoke_;
  std::vector<usp::stats::DistributionPtr> palette_;
  std::vector<ref::Mixture> mixtures_;
  std::map<std::tuple<int64_t, int64_t, size_t>, std::pair<double, double>>
      cache_;
  trace::Counter emit_calls_;
};

CfEngine::CfEngine(std::unique_ptr<usp::query::CompiledQuery> q,
                   const CfInvSliding* w)
    : PlanEngine(std::move(q), "sink_sums"), w_(w) {
  src_ = plan_->source("src_readings");
}

usp::common::Status CfEngine::Push(size_t begin, size_t end) {
  TupleBatch batch;
  {
    trace::Span span("gen.build");
    batch.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      Tuple t(w_->EventUs(i),
              {Value(w_->SensorOf(i)), Value(w_->palette(w_->PaletteOf(i)))});
      t.InitBaseLineage();
      batch.Append(std::move(t));
    }
  }
  return PushTimed(src_, std::move(batch));
}

}  // namespace

std::unique_ptr<Workload> MakeCfInvSliding(const Args& args) {
  return std::make_unique<CfInvSliding>(args);
}

}  // namespace perfbench
