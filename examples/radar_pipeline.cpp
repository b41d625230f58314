// The CASA epoch loop (§2.2, Figure 1): raw pulses -> averaged moment data
// (with MA-CLT uncertainty, §4.4) -> polar-to-Cartesian merge of two
// radars -> tornado detection with per-detection probabilities.
//
// Also prints the per-stage uncertainty report that motivates the paper:
// how much velocity variance the averaging step introduces at each
// averaging size, and what the merge step recovers.
//
// Build & run:  ./build/examples/radar_pipeline

#include <cmath>
#include <cstdio>

#include "query/planner.h"
#include "query/query.h"
#include "radar/experiment.h"
#include "radar/grid.h"
#include "radar/moments.h"
#include "radar/pulse_simulator.h"
#include "radar/stream_adapter.h"
#include "radar/tornado_detector.h"

using namespace usp::radar;

namespace {

// One radar's epoch: generate pulses for `seconds`, produce moment beams.
std::vector<MomentBeam> RunRadar(const RadarSite& site, const WindField& wind,
                                 size_t averaging, double seconds,
                                 uint64_t seed, double* data_mb) {
  PulseSimConfig config;
  config.site = site;
  config.num_gates = 600;
  config.seed = seed;
  PulseSimulator sim(config, wind);
  MomentEstimator::Options mopts;
  mopts.averaging_size = averaging;
  MomentEstimator estimator(mopts);
  const size_t pulses = static_cast<size_t>(seconds * kPulsesPerSecond);
  for (size_t i = 0; i < pulses; ++i) {
    (void)estimator.AddPulse(sim.NextPulse());
  }
  *data_mb = static_cast<double>(estimator.beams().size() *
                                 MomentEstimator::BeamBytes(600)) /
             (1024.0 * 1024.0);
  return std::move(estimator.beams());
}

double MeanVelocityVariance(const std::vector<MomentBeam>& beams) {
  double total = 0.0;
  size_t count = 0;
  for (const auto& b : beams) {
    for (const auto& g : b.gates) {
      total += g.velocity_variance;
      ++count;
    }
  }
  return count ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

int main() {
  // Two vortices observed by two radars with overlapping coverage.
  Table1Config scene;
  scene.num_vortices = 2;
  const WindField wind = MakeTornadicWindField(scene);
  const RadarSite radar_a{0.0, 0.0};
  const RadarSite radar_b{0.0, 30000.0};

  printf("== CASA-style epoch: pulses -> moments -> merge -> detect ==\n\n");
  printf("scene: %zu vortices at", wind.vortices.size());
  for (const auto& v : wind.vortices) {
    printf(" (%.0f, %.0f)m", v.x_m, v.y_m);
  }
  printf("\n\n");
  printf("%-10s %-12s %-14s %-12s %-12s %s\n", "avg size", "data (MB)",
         "vel var (avg)", "detections", "mean P(det)", "epoch verdict");

  TornadoDetector detector{TornadoDetector::Options{}};
  for (size_t averaging : {40, 100, 500}) {
    double mb_a = 0.0, mb_b = 0.0;
    const auto beams_a =
        RunRadar(radar_a, wind, averaging, 10.0, 101, &mb_a);
    const auto beams_b =
        RunRadar(radar_b, wind, averaging, 10.0, 202, &mb_b);

    // Merge both radars into one Cartesian grid (the §2.2 "merged data"
    // stage). Detection itself runs per radar in polar space; the grid is
    // what downstream meteorological algorithms consume.
    VoxelGrid grid({-2000.0, 40000.0, -2000.0, 32000.0, 250.0});
    for (const auto& b : beams_a) (void)grid.AddBeam(radar_a, b);
    for (const auto& b : beams_b) (void)grid.AddBeam(radar_b, b);

    const auto det_a = detector.DetectInScan(beams_a);
    const auto det_b = detector.DetectInScan(beams_b);
    double prob = 0.0;
    for (const auto& d : det_a) prob += d.probability;
    for (const auto& d : det_b) prob += d.probability;
    const size_t detections = det_a.size() + det_b.size();
    if (detections > 0) prob /= static_cast<double>(detections);

    printf("%-10zu %-12.2f %-14.4f %-12zu %-12.2f %s\n", averaging,
           mb_a + mb_b, MeanVelocityVariance(beams_a), detections, prob,
           detections > 0 ? "TORNADO WARNING" : "no detection");
  }

  // --- the same moment stream through a declared fan-out plan -------------
  // One radar's scan becomes a tuple batch (velocity carries the MA-CLT
  // Gaussian) feeding a fan-out plan: every gate is screened for storm
  // reflectivity and, independently, for tornado-strength velocity.
  // Branching one Query cursor twice declares the fan-out; the planner
  // compiles the shared plan to one DAG:
  //
  //           /-> speed map -> storm_filter -> storm_cells
  //   scan --+
  //           \-> velocity_filter -> fast_cells
  //
  // The storm branch also shows the planner's filter pushdown: the speed
  // map declares it preserves the 5 gate attributes (it only APPENDS
  // E[|v|]), and the filter declares it reads only attribute 2
  // (reflectivity), so the planner runs the filter FIRST — the map only
  // annotates gates that survive. The decision is visible in the plan
  // summary below.
  {
    double mb = 0.0;
    const auto beams = RunRadar(radar_a, wind, 100, 10.0, 101, &mb);
    BeamTupleOptions topts;
    topts.min_reflectivity_db = -20.0;
    auto batch = ScanToBatch(beams, topts);
    if (!batch.ok()) {
      fprintf(stderr, "adapter failed: %s\n",
              batch.status().ToString().c_str());
      return 1;
    }
    auto scan = usp::query::Query::From("moment_stream", 5);
    auto storm =
        scan.Map("annotate_speed",
                 [](const usp::stream::Tuple& t)
                     -> usp::common::Result<usp::stream::Tuple> {
                   usp::stream::Tuple out = t;
                   out.AppendValue(
                       std::fabs(t.value(3).AsDistribution()->Mean()));
                   return out;
                 },
                 /*output_arity=*/6, /*preserved_prefix=*/5)
            .Filter("storm_reflectivity",
                    [](const usp::stream::Tuple& t) {
                      return t.value(2).AsDouble() > 20.0;
                    },
                    /*reads_attrs=*/{2})
            .Sink("storm_cells");
    auto fast = scan.Filter("tornadic_velocity",
                            [](const usp::stream::Tuple& t) {
                              return std::fabs(
                                         t.value(3).AsDistribution()->Mean()) >
                                     20.0;
                            })
                    .Sink("fast_cells");
    (void)storm;  // both branches live in the one shared plan
    auto exec_or = fast.Compile();
    if (!exec_or.ok()) {
      fprintf(stderr, "compile failed: %s\n",
              exec_or.status().ToString().c_str());
      return 1;
    }
    auto exec = exec_or.MoveValueUnsafe();
    printf("\nstream plan: %s\n", exec->summary().ToString().c_str());
    if (auto st = exec->PushBatch(exec->source("moment_stream"),
                                  batch.value());
        !st.ok()) {
      fprintf(stderr, "plan failed: %s\n", st.ToString().c_str());
      return 1;
    }
    (void)exec->Finish();
    uint64_t map_in = 0;
    for (const auto& m : exec->MetricsSnapshot()) {
      if (m.name == "annotate_speed") map_in = m.metrics.tuples_in;
    }
    printf("stream plan (fan-out over one 10 s scan): %zu gate tuples -> "
           "%zu storm cells, %zu tornadic-velocity cells\n",
           batch.value().size(), exec->Result("storm_cells").size(),
           exec->Result("fast_cells").size());
    printf("filter pushdown: the speed map annotated only %llu of %zu "
           "gates (the reflectivity filter ran first)\n",
           static_cast<unsigned long long>(map_in), batch.value().size());
  }

  printf("\nNote the Table 1 tradeoff: aggressive averaging shrinks the\n"
         "data (and the per-voxel variance, since more pulses average\n"
         "out noise) but smears the velocity couplet across beams until\n"
         "the detector goes blind -- certainty about a field too coarse\n"
         "to contain the tornado.\n");
  return 0;
}
