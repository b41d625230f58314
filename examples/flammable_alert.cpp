// Paper query Q2 end to end (§2.1): alert when a flammable object sits in
// a hot area.
//
//   Select Rstream(R.tag_id, R.(x,y,z), T.temp)
//   From RFIDStream [Range 3 seconds] as R,
//        TempStream [Range 3 seconds] as T
//   Where object_type(R.tag_id) = 'flammable' and T.temp > 60C and
//         loc_equals(R.(x,y,z), T.(x,y,z))
//
// Both inputs are uncertain: object locations carry pdfs from the RFID T
// operator, temperatures carry sensor-noise pdfs. loc_equals becomes a
// probabilistic predicate and every alert carries a match probability and
// a temperature-exceedance probability.
//
// The fan-in shape is declared with two builders joined into one plan —
//
//   rfid_src -> flammable_filter --+
//                                  +-> join -> p_hot -> hot filter -> sink
//   temp_src ----------------------+
//
// — and the planner compiles it to the physical runtime (single shard: a
// probabilistic join has no exact key to hash-partition on). The two
// sensor feeds are real parallel producers here: the RFID pipeline and
// the temperature grid each push from THEIR OWN thread through their own
// ingest lane (num_ingest_lanes = 2), the multi-producer shape the
// engine's lock-free ingest rings exist for. The join tolerates the
// resulting cross-feed skew — each side expires against the other side's
// clock — so the alert set is the same as a single-threaded run.
//
// Build & run:  ./build/examples/flammable_alert

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "query/planner.h"
#include "query/query.h"
#include "rfid/model.h"
#include "rfid/transform_operator.h"
#include "stats/gaussian.h"
#include "uncertain/join_predicates.h"
#include "uncertain/selection.h"

using usp::stats::DistributionPtr;
using usp::stream::Tuple;
using usp::stream::Value;

int main() {
  // --- RFID side -----------------------------------------------------------
  usp::rfid::WarehouseConfig config;
  config.width_ft = 60.0;
  config.height_ft = 60.0;
  config.shelf_rows = 6;
  config.shelf_cols = 6;
  config.num_objects = 40;
  config.seed = 1234;
  usp::rfid::WarehouseSimulator sim(config);
  usp::rfid::RfidTransformOperator::Options t_opts;
  t_opts.filter.particles_per_object = 64;
  usp::rfid::RfidTransformOperator t_op(config.num_objects,
                                        sim.shelf_positions(),
                                        config.sensing, t_opts);

  // --- temperature side ------------------------------------------------
  // A thermal hotspot around (15, 15) ft; sensors on a 15 ft grid report
  // every 2 s with +-1.5 C noise modeled as a Gaussian pdf per tuple.
  usp::common::Rng temp_rng(7);
  const auto temp_at = [](double x, double y) {
    const double d2 = (x - 15.0) * (x - 15.0) + (y - 15.0) * (y - 15.0);
    return 25.0 + 55.0 * std::exp(-d2 / (2.0 * 12.0 * 12.0));
  };

  // --- Q2, declared -------------------------------------------------------
  usp::uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {1, 2};   // object (x, y)
  spec.right_attrs = {0, 1};  // sensor (x, y)
  spec.eps = 8.0;             // co-location tolerance (ft)
  spec.min_confidence = 0.5;

  auto rfid = usp::query::Query::From("rfid_stream", 3);
  auto temps = usp::query::Query::From("temp_stream", 3);
  auto q2 =
      rfid.Filter("flammable",
                  [](const Tuple& t) { return t.value(0).AsInt() % 3 == 0; })
          .Join(temps, 3'000'000,
                usp::uncertain::MakeProbabilisticEqualityMatch(spec), "q2")
          // HAVING-style tail: annotate P(temp > 60 C), keep >= 90%.
          .Map("p_hot",
               [](const Tuple& t) -> usp::common::Result<Tuple> {
                 Tuple out = t;
                 out.AppendValue(Value(usp::uncertain::PredicateProbability(
                     t.value(5), usp::uncertain::PredicateOp::kGreaterThan,
                     60.0)));
                 return out;
               })
          .Filter("hot",
                  [](const Tuple& t) { return t.value(7).AsDouble() >= 0.9; })
          .Sink("alerts");

  // Two ingest lanes: the planner routes rfid_stream and temp_stream to
  // their own lane, so the two feed threads below never share a queue (a
  // lock-free SPSC ring pair per lane connects them to the worker).
  usp::query::PlannerOptions popts;
  popts.num_ingest_lanes = 2;
  auto exec_or = q2.Compile(popts);
  if (!exec_or.ok()) {
    fprintf(stderr, "compile failed: %s\n",
            exec_or.status().ToString().c_str());
    return 1;
  }
  auto exec = exec_or.MoveValueUnsafe();
  const auto rfid_src = exec->source("rfid_stream");
  const auto temp_src = exec->source("temp_stream");

  printf("== Q2: flammable objects in hot areas ==\n");
  printf("plan: %s\n\n", exec->summary().ToString().c_str());

  // The simulator and particle filter are sequential, so the feeds are
  // materialised first; the pushing — the part the runtime parallelises —
  // then happens from one thread per sensor.
  std::vector<usp::stream::TupleBatch> rfid_feed;
  std::vector<usp::stream::TupleBatch> temp_feed;
  for (int scan = 0; scan < 240; ++scan) {
    auto locations = t_op.ProcessReadingBatch(sim.Step());
    if (!locations.ok()) {
      fprintf(stderr, "T operator failed: %s\n",
              locations.status().ToString().c_str());
      return 1;
    }
    rfid_feed.push_back(locations.MoveValueUnsafe());
    // Temperature tuple batch every 4 scans (2 s).
    if (scan % 4 == 0) {
      const int64_t ts = static_cast<int64_t>(sim.now_s() * 1e6);
      usp::stream::TupleBatch temps_batch;
      for (double x = 7.5; x < config.width_ft; x += 15.0) {
        for (double y = 7.5; y < config.height_ft; y += 15.0) {
          const double measured =
              temp_at(x, y) + temp_rng.Gaussian(0.0, 0.8);
          Tuple temp(ts,
                     {Value(x), Value(y),
                      Value(DistributionPtr(
                          std::make_shared<usp::stats::Gaussian>(measured,
                                                                 1.5)))});
          temp.InitBaseLineage();
          temps_batch.Append(std::move(temp));
        }
      }
      temp_feed.push_back(std::move(temps_batch));
    }
  }
  uint64_t rfid_pushed = 0, temps_pushed = 0;
  for (const auto& batch : rfid_feed) rfid_pushed += batch.size();
  for (const auto& batch : temp_feed) temps_pushed += batch.size();
  auto push_feed = [&exec](usp::stream::ExecGraph::NodeId source,
                           std::vector<usp::stream::TupleBatch>* feed) {
    for (usp::stream::TupleBatch& batch : *feed) {
      if (auto st = exec->PushBatch(source, std::move(batch)); !st.ok()) {
        fprintf(stderr, "plan failed: %s\n", st.ToString().c_str());
        return;
      }
    }
  };
  std::thread rfid_thread(push_feed, rfid_src, &rfid_feed);
  std::thread temp_thread(push_feed, temp_src, &temp_feed);
  rfid_thread.join();
  temp_thread.join();

  // --- sensor-outage demo: the idle-source watermark fix ------------------
  // The RFID readers go dark for 60 simulated seconds while temperatures
  // keep streaming. The join expires each side against the OTHER side's
  // clock, so before watermarks the silent RFID feed froze the
  // temperature buffer's expiry and it grew without bound — exactly what
  // the buffered_bytes gauge below shows. One idle-source watermark
  // ("RFID time has reached T, just no data") releases it.
  auto q2_buffered = [&exec] {
    for (const auto& m : exec->MetricsSnapshot()) {
      if (m.name == "q2") return m.metrics.buffered_bytes;
    }
    return uint64_t{0};
  };
  int64_t silent_ts = static_cast<int64_t>(sim.now_s() * 1e6);
  for (int tick = 0; tick < 30; ++tick) {  // 2 s of readings per tick
    silent_ts += 2'000'000;
    usp::stream::TupleBatch temps_batch;
    for (double x = 7.5; x < config.width_ft; x += 15.0) {
      for (double y = 7.5; y < config.height_ft; y += 15.0) {
        Tuple temp(silent_ts,
                   {Value(x), Value(y),
                    Value(DistributionPtr(std::make_shared<
                                          usp::stats::Gaussian>(
                        temp_at(x, y) + temp_rng.Gaussian(0.0, 0.8),
                        1.5)))});
        temp.InitBaseLineage();
        temps_batch.Append(std::move(temp));
      }
    }
    temps_pushed += temps_batch.size();
    if (auto st = exec->PushBatch(temp_src, std::move(temps_batch));
        !st.ok()) {
      fprintf(stderr, "plan failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  // The worker drains the ingest rings asynchronously, and ingest holds
  // nothing back: sample the gauge once the join has taken in every tuple
  // pushed so far (bounded wait, not a correctness dependency — Finish()
  // would flush regardless).
  const auto join_caught_up = [&] {
    uint64_t filter_in = 0, filter_out = 0, join_in = 0;
    for (const auto& m : exec->MetricsSnapshot()) {
      if (m.name == "flammable") {
        filter_in = m.metrics.tuples_in;
        filter_out = m.metrics.tuples_out;
      }
      if (m.name == "q2") join_in = m.metrics.tuples_in;
    }
    return filter_in == rfid_pushed && join_in == filter_out + temps_pushed;
  };
  for (int spin = 0; spin < 10000 && !join_caught_up(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t grown = q2_buffered();
  // The outage monitor announces RFID progress without data; the join may
  // now expire every buffered temperature older than the watermark minus
  // the join range.
  if (auto st = exec->PushWatermark(rfid_src, silent_ts); !st.ok()) {
    fprintf(stderr, "watermark failed: %s\n", st.ToString().c_str());
    return 1;
  }
  uint64_t released = grown;
  for (int spin = 0; spin < 2000 && released * 4 > grown; ++spin) {
    released = q2_buffered();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  printf("sensor outage: 60 s of temps against a silent RFID feed buffered"
         " %llu bytes in the join;\n"
         "one idle-source watermark shrank that to %llu bytes\n\n",
         static_cast<unsigned long long>(grown),
         static_cast<unsigned long long>(released));

  (void)exec->Finish();

  printf("%-8s %-7s %-18s %-12s %-11s %s\n", "time(s)", "tag",
         "E[location] (ft)", "E[temp] (C)", "P(match)", "P(temp > 60)");
  const auto& alerts = exec->Result("alerts");
  size_t shown = 0;
  for (const Tuple& a : alerts) {
    if (++shown > 12) break;  // keep the demo output short
    printf("%-8.1f %-7lld (%5.1f, %5.1f)     %-12.1f %-11.2f %.3f\n",
           static_cast<double>(a.timestamp()) / 1e6,
           static_cast<long long>(a.value(0).AsInt()),
           a.value(1).AsDistribution()->Mean(),
           a.value(2).AsDistribution()->Mean(),
           a.value(5).AsDistribution()->Mean(), a.value(6).AsDouble(),
           a.value(7).AsDouble());
  }
  uint64_t join_in = 0, join_out = 0;
  for (const auto& m : exec->MetricsSnapshot()) {
    if (m.name == "q2") {
      join_in = m.metrics.tuples_in;
      join_out = m.metrics.tuples_out;
    }
  }
  printf("\n%zu alerts in 120 simulated seconds "
         "(join saw %llu tuples in, %llu matches)\n",
         alerts.size(), static_cast<unsigned long long>(join_in),
         static_cast<unsigned long long>(join_out));
  return 0;
}
