// rfid_q2: paper Q2 from raw data, single-threaded (joins do not shard).
//
// A simulated mobile reader scans a 100x100 ft warehouse of 10x10 shelves
// holding 200 static tagged objects. Each raw reading goes through the
// particle-filter T-operator (64 particles per object), which the
// benchmark calls; the location tuples then meet a 10x10 grid of
// temperature sensors (one per shelf, reporting every 4th scan) in a
// probabilistic co-location join, a P(temp > 60 C) >= 0.9 filter, and the
// alert sink. Readings are the events: event time is the generator's
// schedule (2 ms per scan at the offered rate), so the join range of 6
// scans is 12 ms.
//
// The warehouse and fire zone (sensors within 60 ft of the centre read
// 80 C, the rest 30 C) are fixed; the seed drives the reader's starting
// point and detections, the particle filter, and the sensor noise.
//
// Checks: the alert multiset equals a brute-force join over the location
// and temperature tuples that were pushed (the stream layer is exact given
// the T-operator's output). result_error is (missed + spurious alerts) /
// ground-truth alerts, per alert event: the ground truth pairs every report
// of a flammable object whose true position lies within the tolerance box
// of a sensor whose true field is above 60 C with that sensor's readings
// in join range. (Counting distinct (object, sensor) pairs instead gives
// ~25 pairs, and its value swings by a third between seeds.)

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness.h"
#include "query/planner.h"
#include "query/query.h"
#include "reference.h"
#include "rfid/model.h"
#include "rfid/transform_operator.h"
#include "stats/gaussian.h"
#include "uncertain/join_predicates.h"
#include "uncertain/selection.h"

namespace perfbench {
namespace {

using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr int64_t kRate = 250;          // offered readings/s (seed cap ~6x)
constexpr size_t kObjects = 200;
constexpr size_t kGrid = 10;            // shelves and sensors per side
constexpr double kSideFt = 100.0;
constexpr size_t kTempEvery = 4;        // scans per temperature report
constexpr int64_t kRangeScans = 6;
constexpr double kEpsFt = 4.0;          // co-location tolerance per axis
constexpr double kMatchConfidence = 0.5;
constexpr double kHotC = 60.0;
constexpr double kHotConfidence = 0.9;
constexpr double kTempSd = 1.5;
constexpr double kFireRadiusFt = 60.0;
constexpr double kTieTolerance = 1e-9;
// The warehouse layout and the fire zone are fixtures shared by every
// seed, so the ground truth is the same for all runs; with 200 objects a
// seed-drawn layout would swing both the work per reading and the number
// of ground-truth pairs by more than the benchmark's bounds.
constexpr uint64_t kWorldSeed = 1234;
// Whether one object is mislocalised is close to a coin flip per run, and
// only ~40 flammable objects sit in the fire zone, so one input's error
// swings by a sixth between seeds. The closed loop cycles through this
// many independent inputs (reader start, detections, particle filter and
// sensor noise) and reports the mean error.
constexpr size_t kInputs = 4;

bool Flammable(int64_t tag) { return tag % 3 == 0; }

struct Loc {
  int64_t ts;
  int64_t tag;
  double mx, sx, my, sy;
};

class RfidQ2;

class RfidEngine : public PlanEngine<usp::query::CompiledQuery> {
 public:
  RfidEngine(std::unique_ptr<usp::query::CompiledQuery> q, RfidQ2* w,
             size_t input,
             std::unique_ptr<usp::rfid::RfidTransformOperator> t_op);
  usp::common::Status Push(size_t begin, size_t end) override;
  size_t BatchTarget() const override { return 0; }
  const std::vector<Loc>& pushed() const { return pushed_; }
  size_t input() const { return input_; }

 private:
  RfidQ2* w_;
  size_t input_;
  std::unique_ptr<usp::rfid::RfidTransformOperator> t_op_;
  usp::rfid::WarehouseSimulator sim_;
  usp::stream::ExecGraph::NodeId rfid_src_, temp_src_;
  std::vector<Loc> pushed_;
};

class RfidQ2 : public Workload {
 public:
  explicit RfidQ2(const Args& args) : seed_(args.seed), smoke_(args.smoke) {
    config_.width_ft = kSideFt;
    config_.height_ft = kSideFt;
    config_.shelf_rows = kGrid;
    config_.shelf_cols = kGrid;
    config_.num_objects = kObjects;
    config_.object_move_prob_per_scan = 0.0;  // static truth
    config_.seed = kWorldSeed;
    const double fx = kSideFt / 2, fy = kSideFt / 2;
    const double cell = kSideFt / kGrid;
    for (size_t r = 0; r < kGrid; ++r) {
      for (size_t c = 0; c < kGrid; ++c) {
        const double x = (c + 0.5) * cell, y = (r + 0.5) * cell;
        sensors_.push_back({x, y});
        const double d = std::hypot(x - fx, y - fy);
        true_temp_.push_back(d < kFireRadiusFt ? 80.0 : 30.0);
      }
    }
    truth_ = usp::rfid::WarehouseSimulator(config_).true_object_positions();
    // Each input's seed picks where on its serpentine path the reader
    // starts and, through the simulator's random stream, every detection
    // after that.
    for (size_t input = 0; input < kInputs; ++input) {
      usp::rfid::WarehouseSimulator sim(config_);
      const size_t skip = 1 + Mix(InputSeed(input), 0x5c) % 997;
      for (size_t i = 0; i < skip; ++i) sim.Step();
      starts_.push_back(sim);
    }
  }

  size_t closed_events() const override { return smoke_ ? 200 : 2000; }
  size_t push_chunk() const override { return 4; }
  double offered_rate() const override { return kRate; }
  int64_t EventUs(size_t i) const override {
    return static_cast<int64_t>(i) * 1'000'000 / kRate;
  }
  size_t default_shards() const override { return 1; }
  size_t num_inputs() const override { return kInputs; }
  uint64_t InputSeed(size_t input) const { return Mix(seed_, 0x1000 + input); }
  const usp::rfid::WarehouseSimulator& start(size_t input) const {
    return starts_[input];
  }
  size_t num_sensors() const { return sensors_.size(); }

  /// Measured temperature of sensor s at temperature report r.
  double Measured(size_t input, size_t r, size_t s) const {
    const uint64_t seed = InputSeed(input) ^ 0x7e;
    const double u1 = Unit(Mix(seed, 2 * (r * 1000 + s))) + 1e-300;
    const double u2 = Unit(Mix(seed, 2 * (r * 1000 + s) + 1));
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2 * M_PI * u2);
    return true_temp_[s] + 0.8 * z;
  }
  Tuple TempTuple(size_t input, size_t reading, size_t s) const {
    Tuple t(EventUs(reading),
            {Value(sensors_[s].x), Value(sensors_[s].y),
             Value(usp::stats::DistributionPtr(
                 std::make_shared<usp::stats::Gaussian>(
                     Measured(input, reading / kTempEvery, s), kTempSd)))});
    t.InitBaseLineage();
    return t;
  }

  usp::common::Result<std::unique_ptr<Engine>> Setup(
      size_t num_shards, LatencyRecorder* latency, size_t input) override {
    trace::Span span("query.compile");
    usp::uncertain::EqualityJoinSpec spec;
    spec.left_attrs = {1, 2};
    spec.right_attrs = {0, 1};
    spec.eps = kEpsFt;
    spec.min_confidence = kMatchConfidence;
    auto match = usp::uncertain::MakeProbabilisticEqualityMatch(spec);
    const bool timed = trace::Enabled();
    if (timed) {
      match = [match, this](const Tuple& l, const Tuple& r) {
        trace::CallTimer timer("uncertain.join_match", &match_calls_);
        auto out = match(l, r);
        if (out.has_value()) timer.Pass();
        return out;
      };
    }
    auto p_hot = [timed, this](const Tuple& t) -> usp::common::Result<Tuple> {
      std::optional<trace::CallTimer> timer;
      if (timed) timer.emplace("uncertain.predicate", &predicate_calls_);
      Tuple out = t;
      out.AppendValue(Value(usp::uncertain::PredicateProbability(
          t.value(5), usp::uncertain::PredicateOp::kGreaterThan, kHotC)));
      return out;
    };
    auto rfid = usp::query::Query::From("src_rfid", 3);
    auto temps = usp::query::Query::From("src_temps", 3);
    auto q = rfid.Filter("flammable",
                         [](const Tuple& t) { return Flammable(t.value(0).AsInt()); },
                         {0})
                 .Join(temps, kRangeScans * 1'000'000 / kRate, match, "join_q2")
                 .Map("p_hot", p_hot)
                 .Filter("hot",
                         [](const Tuple& t) {
                           return t.value(7).AsDouble() >= kHotConfidence;
                         })
                 .Map("observe", ObserveMap(latency, &emit_calls_))
                 .Sink("sink_alerts");
    usp::query::PlannerOptions opts;
    opts.num_shards = num_shards;
    auto compiled = q.Compile(opts);
    if (!compiled.ok()) return compiled.status();
    usp::rfid::RfidTransformOperator::Options t_opts;
    t_opts.filter.particles_per_object = 64;
    t_opts.filter.seed = Mix(InputSeed(input), 0x99);
    auto t_op = std::make_unique<usp::rfid::RfidTransformOperator>(
        kObjects, starts_[input].shelf_positions(), config_.sensing, t_opts);
    return std::unique_ptr<Engine>(new RfidEngine(
        compiled.MoveValueUnsafe(), this, input, std::move(t_op)));
  }

  CheckResult Verify(Engine& engine, size_t n) override {
    auto& e = static_cast<RfidEngine&>(engine);
    // Brute-force join of the pushed tuples, as a multiset keyed by
    // (tag, sensor, result timestamp).
    using Key = std::tuple<int64_t, size_t, int64_t>;
    std::map<Key, int> expected, ties, truth_events;
    // Ground truth: a flammable object whose true position lies within the
    // tolerance box of a sensor whose true field is above 60 C.
    std::vector<bool> truly_hot_near(truth_.size() * sensors_.size(), false);
    for (size_t tag = 0; tag < truth_.size(); ++tag) {
      for (size_t s = 0; s < sensors_.size(); ++s) {
        truly_hot_near[tag * sensors_.size() + s] =
            true_temp_[s] > kHotC &&
            std::fabs(truth_[tag].x - sensors_[s].x) <= kEpsFt &&
            std::fabs(truth_[tag].y - sensors_[s].y) <= kEpsFt;
      }
    }
    const int64_t range = kRangeScans * 1'000'000 / kRate;
    double pos_err = 0.0;
    for (const Loc& l : e.pushed()) {
      const auto& truth = truth_[static_cast<size_t>(l.tag)];
      pos_err += std::hypot(l.mx - truth.x, l.my - truth.y);
      if (!Flammable(l.tag)) continue;
      for (size_t rd = 0; rd < n; rd += kTempEvery) {
        const int64_t ts = EventUs(rd);
        if (ts < l.ts - range) continue;
        if (ts > l.ts + range) break;
        for (size_t s = 0; s < sensors_.size(); ++s) {
          const double px = Within(l.mx, l.sx, sensors_[s].x);
          const double py = Within(l.my, l.sy, sensors_[s].y);
          const double p_match = px * py;
          const double p_hot =
              ref::NormalSf((kHotC - Measured(e.input(), rd / kTempEvery, s)) /
                            kTempSd);
          const bool tie =
              std::fabs(p_match - kMatchConfidence) < kTieTolerance ||
              std::fabs(p_hot - kHotConfidence) < kTieTolerance;
          const Key key{l.tag, s, std::max(l.ts, ts)};
          if (truly_hot_near[static_cast<size_t>(l.tag) * sensors_.size() + s]) {
            ++truth_events[key];
          }
          if (tie) {
            ++ties[key];
          } else if (p_match >= kMatchConfidence && p_hot >= kHotConfidence) {
            ++expected[key];
          }
        }
      }
    }
    position_error_ft_ = e.pushed().empty()
                             ? 0.0
                             : pos_err / static_cast<double>(e.pushed().size());
    tuples_per_reading_ =
        static_cast<double>(e.pushed().size()) / static_cast<double>(n);
    std::map<Key, int> got;
    CheckResult r;
    for (const Tuple& row : e.Rows()) {
      const size_t s = SensorAt(row.value(3).AsDouble(), row.value(4).AsDouble());
      if (s == sensors_.size()) {
        ++r.failed;
        r.detail = "alert names no sensor";
        continue;
      }
      ++got[{row.value(0).AsInt(), s, row.timestamp()}];
    }
    r.checked = expected.size();
    for (const auto& [key, count] : expected) {
      const auto it = got.find(key);
      const int have = it == got.end() ? 0 : it->second;
      const auto tie = ties.find(key);
      const int slack = tie == ties.end() ? 0 : tie->second;
      if (have < count || have > count + slack) {
        ++r.failed;
        r.detail = "alert multiset differs from the brute-force join";
      }
    }
    for (const auto& [key, count] : got) {
      const auto tie = ties.find(key);
      if (expected.count(key) == 0 &&
          count > (tie == ties.end() ? 0 : tie->second)) {
        ++r.failed;
        r.detail = "alert the brute-force join does not produce";
      }
    }
    // Accuracy against the simulator's ground truth, per alert event: the
    // alerts a perfect T-operator would produce from the same reports and
    // temperature readings, against the alerts produced.
    uint64_t truth_total = 0, wrong = 0;
    for (const auto& [key, count] : truth_events) {
      truth_total += count;
      const auto it = got.find(key);
      const int have = it == got.end() ? 0 : it->second;
      wrong += static_cast<uint64_t>(std::max(0, count - have));
    }
    for (const auto& [key, count] : got) {
      const auto it = truth_events.find(key);
      const int want = it == truth_events.end() ? 0 : it->second;
      wrong += static_cast<uint64_t>(std::max(0, count - want));
    }
    r.error = truth_total == 0 ? 0.0
                               : static_cast<double>(wrong) /
                                     static_cast<double>(truth_total);
    return r;
  }

  void ResetLayers() override {
    match_calls_.Reset();
    predicate_calls_.Reset();
    emit_calls_.Reset();
  }
  void CollectLayers(std::map<std::string, double>* out) override {
    (*out)["uncertain.join_match_us"] = match_calls_.MeanUs();
    (*out)["uncertain.join_match_calls"] =
        static_cast<double>(match_calls_.calls.load());
    (*out)["uncertain.join_match_ratio"] = match_calls_.PassRatio();
    (*out)["uncertain.predicate_us"] = predicate_calls_.MeanUs();
    (*out)["emit.callback_us"] = emit_calls_.MeanUs();
    (*out)["rfid.tuples_per_reading"] = tuples_per_reading_;
    (*out)["rfid.position_error_ft"] = position_error_ft_;
  }

 private:
  /// P(|X - s| <= eps) for X ~ N(m, sd).
  static double Within(double m, double sd, double s) {
    return ref::NormalSf((s - kEpsFt - m) / sd) -
           ref::NormalSf((s + kEpsFt - m) / sd);
  }
  size_t SensorAt(double x, double y) const {
    for (size_t s = 0; s < sensors_.size(); ++s) {
      if (sensors_[s].x == x && sensors_[s].y == y) return s;
    }
    return sensors_.size();
  }

  uint64_t seed_;
  bool smoke_;
  usp::rfid::WarehouseConfig config_;
  std::vector<usp::rfid::WarehouseSimulator> starts_;
  std::vector<usp::rfid::Point2> sensors_;
  std::vector<double> true_temp_;
  std::vector<usp::rfid::Point2> truth_;
  double position_error_ft_ = 0.0;
  double tuples_per_reading_ = 0.0;
  trace::Counter match_calls_;
  trace::Counter predicate_calls_;
  trace::Counter emit_calls_;
};

RfidEngine::RfidEngine(std::unique_ptr<usp::query::CompiledQuery> q,
                       RfidQ2* w, size_t input,
                       std::unique_ptr<usp::rfid::RfidTransformOperator> t_op)
    : PlanEngine(std::move(q), "sink_alerts"),
      w_(w),
      input_(input),
      t_op_(std::move(t_op)),
      sim_(w->start(input)) {
  rfid_src_ = plan_->source("src_rfid");
  temp_src_ = plan_->source("src_temps");
}

usp::common::Status RfidEngine::Push(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    TupleBatch temps;
    TupleBatch locations;
    {
      trace::Span span("gen.build");
      if (i % kTempEvery == 0) {
        for (size_t s = 0; s < w_->num_sensors(); ++s) {
          temps.Append(w_->TempTuple(input_, i, s));
        }
      }
      const usp::rfid::Reading reading = sim_.Step();
      trace::Span t_span("rfid.transform");
      auto out = t_op_->ProcessReadingBatch(reading);
      if (!out.ok()) return out.status();
      locations = out.MoveValueUnsafe();
    }
    // Event time is the generator's schedule, not the simulator's clock.
    const int64_t ts = w_->EventUs(i);
    for (Tuple& t : locations.mutable_tuples()) {
      t.set_timestamp(ts);
      const auto& x = *t.value(1).AsDistribution();
      const auto& y = *t.value(2).AsDistribution();
      pushed_.push_back(
          {ts, t.value(0).AsInt(), x.Mean(), x.Stddev(), y.Mean(), y.Stddev()});
    }
    // Both feeds of a tick go in after the T-operator has run, so every
    // alert of the tick waits for it alike.
    if (!locations.empty()) {
      auto st = PushTimed(rfid_src_, std::move(locations));
      if (!st.ok()) return st;
    }
    if (!temps.empty()) {
      auto st = PushTimed(temp_src_, std::move(temps));
      if (!st.ok()) return st;
    }
  }
  return usp::common::Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeRfidQ2(const Args& args) {
  return std::make_unique<RfidQ2>(args);
}

}  // namespace perfbench
