// q1_fire: paper Q1 (fire-code monitoring) on 2 shards.
//
// Input: T-operator-shaped location tuples (tag, x~N, y~N) for 20k tags,
// built from pre-made per-tag distributions. An annotate map adds the
// area (one of 32x32 10-ft cells, from the expected location) and an
// uncertain weight; then a 100 ms tumbling window, GROUP BY area (the
// planner derives the shard key by replaying the annotate map), CF-approx
// SUM(weight) and HAVING P(sum > limit) >= 0.5.
//
// Weights are Gamma(k_tag, 2 lb): sums of gammas with a common scale are
// Gamma(sum k, 2) exactly, so the reference P(sum > limit) is exact while
// the engine's CF-approx answer is an approximation whose error is
// measured. (With Gaussian weights the approximation would be exact and
// the error would sit at the floating-point floor.)

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "query/planner.h"
#include "query/query.h"
#include "reference.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "uncertain/aggregates.h"

namespace perfbench {
namespace {

using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr size_t kTags = 20'000;
constexpr int64_t kCellsPerSide = 32;
constexpr double kCellFt = 10.0;
constexpr double kWeightScale = 2.0;
constexpr double kLimit = 1000.0;
constexpr double kConfidence = 0.5;
constexpr int64_t kWindowUs = 100'000;
constexpr int64_t kRate = 150'000;  // offered events/s (seed capacity ~4x)
// A row within this distance of the HAVING cut may go either way.
constexpr double kCutTolerance = 0.02;
// A row whose probability is further than this from exact is wrong.
constexpr double kWrongAnswer = 0.05;

int64_t AreaOf(double mx, double my) {
  return static_cast<int64_t>(mx / kCellFt) +
         kCellsPerSide * static_cast<int64_t>(my / kCellFt);
}

struct Tags {
  std::vector<usp::stats::DistributionPtr> x, y, weight;
  std::vector<double> mx, my, shape;
};

class Q1Fire;

class Q1Engine : public PlanEngine<usp::query::CompiledQuery> {
 public:
  Q1Engine(std::unique_ptr<usp::query::CompiledQuery> q, const Q1Fire* w);
  usp::common::Status Push(size_t begin, size_t end) override;
  size_t BatchTarget() const override {
    return plan_->current_target_batch_size();
  }

 private:
  const Q1Fire* w_;
  usp::stream::ExecGraph::NodeId src_;
};

class Q1Fire : public Workload {
 public:
  explicit Q1Fire(const Args& args) : seed_(args.seed), smoke_(args.smoke) {
    tags_ = std::make_shared<Tags>();
    const double side = kCellsPerSide * kCellFt;
    for (size_t t = 0; t < kTags; ++t) {
      const double mx = side * Unit(Mix(seed_ ^ 0x51, 3 * t));
      const double my = side * Unit(Mix(seed_ ^ 0x51, 3 * t + 1));
      const double k = 5.0 + 55.0 * Unit(Mix(seed_ ^ 0x51, 3 * t + 2));
      tags_->mx.push_back(mx);
      tags_->my.push_back(my);
      tags_->shape.push_back(k);
      tags_->x.push_back(std::make_shared<usp::stats::Gaussian>(mx, 1.0));
      tags_->y.push_back(std::make_shared<usp::stats::Gaussian>(my, 1.0));
      tags_->weight.push_back(
          std::make_shared<usp::stats::GammaDist>(k, kWeightScale));
    }
  }

  size_t closed_events() const override { return smoke_ ? 20'000 : 200'000; }
  size_t push_chunk() const override { return 1024; }
  double offered_rate() const override { return kRate; }
  int64_t EventUs(size_t i) const override {
    return static_cast<int64_t>(i) * 1'000'000 / kRate;
  }
  size_t default_shards() const override { return 2; }
  size_t TagOf(size_t i) const { return Mix(seed_, i) % kTags; }
  const Tags& tags() const { return *tags_; }

  usp::common::Result<std::unique_ptr<Engine>> Setup(
      size_t num_shards, LatencyRecorder* latency, size_t /*input*/) override {
    trace::Span span("query.compile");
    std::shared_ptr<const Tags> tags = tags_;
    auto annotate = [tags](const Tuple& t) -> usp::common::Result<Tuple> {
      const size_t tag = static_cast<size_t>(t.value(0).AsInt());
      Tuple out = t;
      out.AppendValue(Value(AreaOf(t.value(1).AsDistribution()->Mean(),
                                   t.value(2).AsDistribution()->Mean())));
      out.AppendValue(Value(tags->weight[tag]));
      return out;
    };
    auto having = usp::uncertain::MakeHavingProbGreater(1, kLimit, kConfidence);
    if (trace::Enabled()) {
      having = [having, this](const Tuple& row) {
        trace::CallTimer timer("uncertain.having", &having_calls_);
        const bool pass = having(row);
        if (pass) timer.Pass();
        return pass;
      };
    }
    auto q = usp::query::Query::From("src_rfid", 3)
                 .Map("annotate", annotate, 5, 3)
                 .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
                 .GroupBy(3)
                 .Sum("total_weight", 4,
                      usp::uncertain::SumStrategyKind::kCfApprox)
                 .Having(having)
                 .Map("observe", ObserveMap(latency, &emit_calls_))
                 .Sink("sink_alerts");
    usp::query::PlannerOptions opts;
    opts.num_shards = num_shards;
    auto compiled = q.Compile(opts);
    if (!compiled.ok()) return compiled.status();
    return std::unique_ptr<Engine>(
        new Q1Engine(compiled.MoveValueUnsafe(), this));
  }

  CheckResult Verify(Engine& engine, size_t n) override {
    // Exact reference: per (window, area), the weight sum is
    // Gamma(sum of shapes, kWeightScale).
    std::map<std::pair<int64_t, int64_t>, double> shape_sum;
    for (size_t i = 0; i < n; ++i) {
      const size_t tag = TagOf(i);
      const int64_t end = (EventUs(i) / kWindowUs + 1) * kWindowUs;
      shape_sum[{end, AreaOf(tags_->mx[tag], tags_->my[tag])}] +=
          tags_->shape[tag];
    }
    std::map<std::pair<int64_t, int64_t>, double> exact;
    for (const auto& [key, k] : shape_sum) {
      exact[key] = ref::GammaQ(k, kLimit / kWeightScale);
    }
    CheckResult r;
    r.checked = exact.size();
    std::map<std::pair<int64_t, int64_t>, int> seen;
    double abs_err = 0.0;
    size_t compared = 0;
    const auto& rows = static_cast<Q1Engine&>(engine).Rows();
    for (const Tuple& row : rows) {
      const std::pair<int64_t, int64_t> key{
          row.timestamp(), std::stoll(row.value(0).AsString())};
      const double p =
          usp::uncertain::ProbGreaterThan(row.value(1), kLimit);
      if (++seen[key] > 1) {
        ++r.failed;
        r.detail = "duplicate row";
        continue;
      }
      const auto it = exact.find(key);
      if (it == exact.end() || it->second < kConfidence - kCutTolerance) {
        ++r.failed;
        r.detail = "row not in the reference";
        continue;
      }
      const double err = std::fabs(p - it->second);
      abs_err += err;
      ++compared;
      if (err > kWrongAnswer) {
        ++r.failed;
        r.detail = "P(sum > limit) off by " + std::to_string(err);
      }
    }
    for (const auto& [key, p] : exact) {
      if (p >= kConfidence + kCutTolerance && seen.count(key) == 0) {
        ++r.failed;
        r.detail = "reference row missing";
      }
    }
    r.error = compared ? abs_err / static_cast<double>(compared) : 0.0;
    return r;
  }

  void ResetLayers() override {
    having_calls_.Reset();
    emit_calls_.Reset();
  }
  void CollectLayers(std::map<std::string, double>* out) override {
    (*out)["uncertain.having_us"] = having_calls_.MeanUs();
    (*out)["uncertain.having_pass_ratio"] = having_calls_.PassRatio();
    (*out)["emit.callback_us"] = emit_calls_.MeanUs();
  }

 private:
  uint64_t seed_;
  bool smoke_;
  std::shared_ptr<Tags> tags_;
  trace::Counter having_calls_;
  trace::Counter emit_calls_;
};

Q1Engine::Q1Engine(std::unique_ptr<usp::query::CompiledQuery> q,
                   const Q1Fire* w)
    : PlanEngine(std::move(q), "sink_alerts"), w_(w) {
  src_ = plan_->source("src_rfid");
}

usp::common::Status Q1Engine::Push(size_t begin, size_t end) {
  TupleBatch batch;
  {
    trace::Span span("gen.build");
    const Tags& tags = w_->tags();
    batch.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const size_t tag = w_->TagOf(i);
      Tuple t(w_->EventUs(i), {Value(static_cast<int64_t>(tag)),
                               Value(tags.x[tag]), Value(tags.y[tag])});
      t.InitBaseLineage();
      batch.Append(std::move(t));
    }
  }
  return PushTimed(src_, std::move(batch));
}

}  // namespace

std::unique_ptr<Workload> MakeQ1Fire(const Args& args) {
  return std::make_unique<Q1Fire>(args);
}

}  // namespace perfbench
