// alerts_100k: a fridge-monitor load of 100k standing subscriptions on one
// multiplexed CLT SUM+AVG template over 1024 sensors (50 ms tumbling
// windows), on 2 shards.
//
// Subscriptions: 99,000 exact-key and 1,000 key-range, each with its own
// round-number threshold on the AVG column and a confidence, tuned so that
// about 0.7% of (row, subscriber) pairs fire; plus one unconditional
// all-groups auditor, which sees every row and so lets the benchmark check
// row completeness and accuracy. While streaming, the generator churns one
// subscribe and one unsubscribe every 200 events (1k/s each at the offered
// rate), so index writes run next to dispatch reads.
//
// Readings are Gamma(mu/0.5, 0.5): a window's sum of gammas with a common
// scale is Gamma(sum of shapes, 0.5) exactly, so result_error measures the
// CLT answer against exact algebra. The alert sets are checked against a
// brute-force evaluation of every stable subscription under the CLT
// semantics the template declares; churned subscriptions, whose first and
// last windows race the shard workers, are checked for soundness only.

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/subscription.h"
#include "reference.h"
#include "stats/gamma_dist.h"
#include "uncertain/aggregates.h"

namespace perfbench {
namespace {

using usp::query::Subscription;
using usp::query::SubscriptionSet;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr int64_t kSensors = 1024;
constexpr int64_t kWindowUs = 50'000;
constexpr int64_t kRate = 200'000;  // offered events/s (seed capacity ~5x)
constexpr double kScale = 0.5;
constexpr size_t kExactSubs = 99'000;
constexpr size_t kRangeSubs = 1'000;
constexpr size_t kChurnEvery = 200;     // events per subscribe+unsubscribe
constexpr size_t kChurnLive = 100;      // churned subscriptions kept live
constexpr double kErrorOffset = 1.0;    // result_error threshold: base + 1
// Probabilities this close to a subscriber's confidence may go either way.
constexpr double kTieTolerance = 1e-9;

struct GenSub {
  int64_t lo = 0, hi = 0;  // key scope (lo == hi for exact)
  double threshold = 0.0;
  double confidence = 0.0;
};

double Confidence(uint64_t bits) {
  static constexpr double kLevels[] = {0.2, 0.5, 0.8, 0.95};
  return kLevels[bits % 4];
}

class Alerts100k;

class AlertsEngine : public PlanEngine<usp::query::MultiplexedQuery> {
 public:
  struct Churned {
    GenSub spec;
    int64_t sub_us = 0;
    int64_t unsub_us = INT64_MAX;
  };

  AlertsEngine(std::unique_ptr<usp::query::MultiplexedQuery> q,
               Alerts100k* w);
  usp::common::Status Push(size_t begin, size_t end) override;
  size_t BatchTarget() const override {
    return plan_->summary().target_batch_size;
  }
  const std::unordered_map<uint64_t, Churned>& churned() const {
    return churned_;
  }

 private:
  usp::common::Status Churn(size_t event);

  Alerts100k* w_;
  usp::stream::ExecGraph::NodeId src_;
  std::deque<uint64_t> live_;
  std::unordered_map<uint64_t, Churned> churned_;
};

class Alerts100k : public Workload {
 public:
  explicit Alerts100k(const Args& args)
      : seed_(args.seed), smoke_(args.smoke) {
    // Sensor bases are stratified over 36-44 F (a golden-ratio sequence
    // with a seed-dependent shift), so every seed has the same spread of
    // bases and hence nearly the same alert volume.
    const double shift = Unit(Mix(seed_ ^ 0xa1, 0));
    for (int64_t s = 0; s < kSensors; ++s) {
      const double x = static_cast<double>(s) * 0.6180339887498949 + shift;
      base_.push_back(36.0 + 8.0 * (x - std::floor(x)));
    }
    const size_t exact = smoke_ ? kExactSubs / 10 : kExactSubs;
    const size_t ranged = smoke_ ? kRangeSubs / 10 : kRangeSubs;
    watchers_.resize(kSensors);
    for (size_t i = 0; i < exact + ranged; ++i) {
      const uint64_t r = Mix(seed_ ^ 0xa2, i);
      GenSub s;
      if (i < exact) {
        s = ChurnSpec(r);
      } else {
        s.lo = static_cast<int64_t>(r % kSensors);
        s.hi = std::min<int64_t>(kSensors - 1, s.lo + (r >> 20) % 16);
        s.threshold = 44.0 + 0.5 * static_cast<double>((r >> 32) % 12);
        s.confidence = Confidence(r >> 48);
      }
      for (int64_t k = s.lo; k <= s.hi; ++k) watchers_[k].push_back(i);
      subs_.push_back(s);
    }
  }

  size_t closed_events() const override {
    return smoke_ ? 40'000 : 400'000;
  }
  size_t push_chunk() const override { return 1000; }
  double offered_rate() const override { return kRate; }
  int64_t EventUs(size_t i) const override {
    return static_cast<int64_t>(i) * 1'000'000 / kRate;
  }
  size_t default_shards() const override { return 2; }

  int64_t SensorOf(size_t i) const {
    return static_cast<int64_t>(Mix(seed_, 2 * i) % kSensors);
  }
  /// Shape of reading i: its mean drifts +-2 F around the sensor's base.
  double ShapeOf(size_t i) const {
    const double mu =
        base_[SensorOf(i)] + 4.0 * (Unit(Mix(seed_, 2 * i + 1)) - 0.5);
    return mu / kScale;
  }
  /// An exact-key subscription: a round threshold 1.5-7.5 F above the
  /// key's base.
  GenSub ChurnSpec(uint64_t r) const {
    GenSub s;
    s.lo = s.hi = static_cast<int64_t>(r % kSensors);
    const double off = 1.5 + 0.5 * static_cast<double>((r >> 20) % 13);
    s.threshold = std::round(2.0 * (base_[s.lo] + off)) / 2.0;
    s.confidence = Confidence(r >> 40);
    return s;
  }
  uint64_t seed() const { return seed_; }

  Subscription ToSubscription(const GenSub& s, LatencyRecorder* latency) {
    Subscription sub = s.lo == s.hi ? Subscription::KeyEquals(Value(s.lo))
                                    : Subscription::KeyInRange(s.lo, s.hi);
    sub.Where(1, s.threshold, s.confidence);
    return sub.OnMatch(ObserveCallback(latency, &emit_calls_));
  }

  usp::common::Result<std::unique_ptr<Engine>> Setup(
      size_t num_shards, LatencyRecorder* latency, size_t /*input*/) override {
    auto set = std::make_shared<SubscriptionSet>();
    {
      trace::Span span("query.register");
      // The stable subscriptions must get ids 1..subs_.size(), in order:
      // the checks map ids back to specs that way.
      for (size_t i = 0; i < subs_.size(); ++i) {
        if (set->Subscribe(ToSubscription(subs_[i], latency)) != i + 1) {
          return usp::common::Status::Internal("unexpected subscription id");
        }
      }
      auditor_id_ = set->Subscribe(
          Subscription::AllGroups().OnMatch(ObserveCallback(latency, &emit_calls_)));
    }
    trace::Span span("query.compile");
    auto templ = usp::query::Query::From("src_temps", 2)
                     .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
                     .GroupBy(0)
                     .Sum("total", 1, usp::uncertain::SumStrategyKind::kClt)
                     .Avg("mean", 1, usp::uncertain::SumStrategyKind::kClt)
                     .Sink("sink_alerts");
    usp::query::PlannerOptions opts;
    opts.num_shards = num_shards;
    auto compiled = templ.CompileMultiplexed(set, opts);
    if (!compiled.ok()) return compiled.status();
    return std::unique_ptr<Engine>(
        new AlertsEngine(compiled.MoveValueUnsafe(), this));
  }

  CheckResult Verify(Engine& engine, size_t n) override {
    const Reference& ref = ReferenceFor(n);
    auto& e = static_cast<AlertsEngine&>(engine);
    CheckResult r;
    r.checked = ref.rows.size() + ref.alerts.size();
    std::set<std::tuple<int64_t, int64_t, size_t>> stable_seen;
    std::set<std::pair<int64_t, int64_t>> rows_seen;
    double abs_err = 0.0;
    const auto fail = [&r](const std::string& why) {
      ++r.failed;
      r.detail = why;
    };
    for (const Tuple& row : e.Rows()) {
      const int64_t wend = row.timestamp();
      const int64_t key = std::stoll(row.value(0).AsString());
      const uint64_t id = static_cast<uint64_t>(row.value(3).AsInt());
      const auto rit = ref.rows.find({wend, key});
      if (rit == ref.rows.end()) {
        fail("row for a window/key with no readings");
        continue;
      }
      const RowRef& rr = rit->second;
      const double p_engine = usp::uncertain::ProbGreaterThan(
          row.value(2), base_[key] + kErrorOffset);
      if (id == auditor_id_) {
        if (!rows_seen.insert({wend, key}).second) {
          fail("duplicate auditor row");
          continue;
        }
        const double mean = row.value(2).AsDistribution()->Mean();
        if (std::fabs(mean - rr.avg_mean) > 1e-9 * std::fabs(rr.avg_mean)) {
          fail("AVG mean differs from the reference");
        }
        abs_err += std::fabs(p_engine - rr.p_exact);
        continue;
      }
      if (id >= 1 && id <= subs_.size()) {
        const size_t idx = id - 1;
        if (!stable_seen.insert({wend, key, idx}).second) {
          fail("duplicate alert");
        } else if (ref.alerts.count({wend, key, idx}) == 0 &&
                   !Tie(subs_[idx], rr)) {
          fail("alert the subscription's condition does not allow");
        }
        continue;
      }
      const auto cit = e.churned().find(id);
      if (cit == e.churned().end()) {
        fail("alert for an unknown subscription id");
        continue;
      }
      const AlertsEngine::Churned& c = cit->second;
      if (key != c.spec.lo || wend - kWindowUs >= c.unsub_us ||
          (!Fires(c.spec, rr) && !Tie(c.spec, rr))) {
        fail("unsound alert for a churned subscription");
      }
    }
    for (const auto& a : ref.alerts) {
      if (stable_seen.count(a) == 0) {
        const RowRef& rr = ref.rows.at({std::get<0>(a), std::get<1>(a)});
        if (!Tie(subs_[std::get<2>(a)], rr)) fail("alert missing");
      }
    }
    if (rows_seen.size() != ref.rows.size()) {
      r.failed += ref.rows.size() - std::min(ref.rows.size(), rows_seen.size());
      r.detail = "auditor rows missing";
    }
    r.error = rows_seen.empty()
                  ? 0.0
                  : abs_err / static_cast<double>(rows_seen.size());
    return r;
  }

  void ResetLayers() override {
    emit_calls_.Reset();
    churn_calls_.Reset();
  }
  void CollectLayers(std::map<std::string, double>* out) override {
    (*out)["emit.callback_us"] = emit_calls_.MeanUs();
    (*out)["query.churn_us_per_op"] = churn_calls_.MeanUs();
  }
  trace::Counter& churn_calls() { return churn_calls_; }

 private:
  struct RowRef {
    double avg_mean = 0.0;
    double avg_sd = 0.0;
    double p_exact = 0.0;  // P(avg > base + kErrorOffset), exact
  };
  struct Reference {
    std::map<std::pair<int64_t, int64_t>, RowRef> rows;
    std::set<std::tuple<int64_t, int64_t, size_t>> alerts;  // stable subs
  };

  double ProbClt(const GenSub& s, const RowRef& rr) const {
    return ref::NormalSf((s.threshold - rr.avg_mean) / rr.avg_sd);
  }
  bool Fires(const GenSub& s, const RowRef& rr) const {
    return ProbClt(s, rr) >= s.confidence;
  }
  bool Tie(const GenSub& s, const RowRef& rr) const {
    return std::fabs(ProbClt(s, rr) - s.confidence) < kTieTolerance;
  }

  const Reference& ReferenceFor(size_t n) {
    auto it = refs_.find(n);
    if (it != refs_.end()) return it->second;
    struct Acc {
      double shape = 0.0;
      size_t count = 0;
    };
    std::map<std::pair<int64_t, int64_t>, Acc> acc;
    for (size_t i = 0; i < n; ++i) {
      Acc& a = acc[{(EventUs(i) / kWindowUs + 1) * kWindowUs, SensorOf(i)}];
      a.shape += ShapeOf(i);
      ++a.count;
    }
    Reference ref;
    for (const auto& [key, a] : acc) {
      // CLT semantics: AVG ~ N(sum of means / n, sqrt(sum of vars) / n).
      const double nn = static_cast<double>(a.count);
      RowRef rr;
      rr.avg_mean = a.shape * kScale / nn;
      rr.avg_sd = std::sqrt(a.shape * kScale * kScale) / nn;
      rr.p_exact = ref::GammaQ(
          a.shape, nn * (base_[key.second] + kErrorOffset) / kScale);
      for (size_t idx : watchers_[key.second]) {
        if (Fires(subs_[idx], rr)) ref.alerts.insert({key.first, key.second, idx});
      }
      ref.rows.emplace(key, rr);
    }
    return refs_.emplace(n, std::move(ref)).first->second;
  }

  uint64_t seed_;
  bool smoke_;
  std::vector<double> base_;
  std::vector<GenSub> subs_;
  std::vector<std::vector<size_t>> watchers_;  // key -> stable sub indices
  uint64_t auditor_id_ = 0;
  std::map<size_t, Reference> refs_;
  trace::Counter emit_calls_;
  trace::Counter churn_calls_;
};

AlertsEngine::AlertsEngine(std::unique_ptr<usp::query::MultiplexedQuery> q,
                           Alerts100k* w)
    : PlanEngine(std::move(q), "sink_alerts"), w_(w) {
  src_ = plan_->source("src_temps");
}

usp::common::Status AlertsEngine::Churn(size_t event) {
  trace::Span span("query.churn");
  const int64_t now_us = w_->EventUs(event);
  const GenSub spec = w_->ChurnSpec(Mix(w_->seed() ^ 0xa3, event));
  usp::common::Status status;
  {
    trace::CallTimer timer("query.subscribe", &w_->churn_calls());
    const uint64_t id =
        plan_->subscriptions().Subscribe(w_->ToSubscription(spec, nullptr));
    churned_[id] = {spec, now_us, INT64_MAX};
    live_.push_back(id);
  }
  if (live_.size() > kChurnLive) {
    trace::CallTimer timer("query.unsubscribe", &w_->churn_calls());
    const uint64_t id = live_.front();
    live_.pop_front();
    churned_[id].unsub_us = now_us;
    if (!plan_->subscriptions().Unsubscribe(id)) {
      status = usp::common::Status::Internal("Unsubscribe failed");
    }
  }
  return status;
}

usp::common::Status AlertsEngine::Push(size_t begin, size_t end) {
  // Churn first: subscriptions change before the events at their time.
  for (size_t i = (begin + kChurnEvery - 1) / kChurnEvery * kChurnEvery;
       i < end; i += kChurnEvery) {
    auto st = Churn(i);
    if (!st.ok()) return st;
  }
  TupleBatch batch;
  {
    trace::Span span("gen.build");
    batch.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      Tuple t(w_->EventUs(i),
              {Value(w_->SensorOf(i)),
               Value(usp::stats::DistributionPtr(
                   std::make_shared<usp::stats::GammaDist>(w_->ShapeOf(i),
                                                           kScale)))});
      t.InitBaseLineage();
      batch.Append(std::move(t));
    }
  }
  return PushTimed(src_, std::move(batch));
}

}  // namespace

std::unique_ptr<Workload> MakeAlerts100k(const Args& args) {
  return std::make_unique<Alerts100k>(args);
}

}  // namespace perfbench
