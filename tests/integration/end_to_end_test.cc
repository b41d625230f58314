// End-to-end integration: RFID simulator -> T operator (particle filter +
// KL conversion) -> relational operators, and the radar epoch path:
// pulses -> moments -> merge -> detection. These tests exercise the whole
// Figure 2 architecture on small workloads.

#include <gtest/gtest.h>

#include "radar/experiment.h"
#include "radar/grid.h"
#include "rfid/transform_operator.h"
#include "stream/batch.h"
#include "stream/group_by.h"
#include "uncertain/aggregates.h"
#include "uncertain/selection.h"

namespace usp {
namespace {

using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

TEST(EndToEndRfidTest, SensorToWindowedCount) {
  // Full chain: simulator -> T operator -> windowed per-object count of
  // sightings. Checks tuple plumbing, timestamps, and windowing together.
  rfid::WarehouseConfig config;
  config.width_ft = 50.0;
  config.height_ft = 50.0;
  config.shelf_rows = 5;
  config.shelf_cols = 5;
  config.num_objects = 15;
  config.seed = 77;
  rfid::WarehouseSimulator sim(config);
  rfid::RfidTransformOperator::Options opts;
  opts.filter.particles_per_object = 48;
  rfid::RfidTransformOperator t_op(config.num_objects,
                                   sim.shelf_positions(), config.sensing,
                                   opts);

  uncertain::CltSum clt;
  stream::GroupByAggregateOperator count_op(
      "per_object", stream::WindowSpec::Tumbling(30'000'000),
      [](const Tuple& t) { return std::to_string(t.value(0).AsInt()); },
      {uncertain::MakeCountAggregate("sightings")});

  stream::VectorCollector locations;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t_op.ProcessReading(sim.Step(), &locations).ok());
  }
  ASSERT_FALSE(locations.tuples().empty());

  stream::VectorCollector counts;
  for (const Tuple& t : locations.tuples()) {
    ASSERT_TRUE(count_op.PushBatch(TupleBatch({t}), &counts).ok());
  }
  ASSERT_TRUE(count_op.Close(&counts).ok());
  ASSERT_FALSE(counts.tuples().empty());
  uint64_t total = 0;
  for (const Tuple& t : counts.tuples()) {
    total += static_cast<uint64_t>(t.value(1).AsInt());
  }
  EXPECT_EQ(total, locations.tuples().size());
}

TEST(EndToEndRfidTest, LocationDistributionsFeedProbabilisticSelection) {
  // T-operator output flows into a probabilistic filter: "objects west of
  // x = 25 ft with 80% confidence".
  rfid::WarehouseConfig config;
  config.width_ft = 50.0;
  config.height_ft = 50.0;
  config.shelf_rows = 5;
  config.shelf_cols = 5;
  config.num_objects = 15;
  config.seed = 78;
  rfid::WarehouseSimulator sim(config);
  rfid::RfidTransformOperator::Options opts;
  opts.filter.particles_per_object = 48;
  rfid::RfidTransformOperator t_op(config.num_objects,
                                   sim.shelf_positions(), config.sensing,
                                   opts);
  auto west_filter = uncertain::MakeProbabilisticFilter(
      "west", 1, uncertain::PredicateOp::kLessThan, 25.0, 0.0, 0.8);

  stream::VectorCollector locations;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(t_op.ProcessReading(sim.Step(), &locations).ok());
  }
  stream::VectorCollector west;
  for (const Tuple& t : locations.tuples()) {
    ASSERT_TRUE(west_filter->PushBatch(TupleBatch({t}), &west).ok());
  }
  ASSERT_FALSE(west.tuples().empty());
  // Every passed tuple indeed has P(x < 25) >= 0.8.
  for (const Tuple& t : west.tuples()) {
    EXPECT_GE(t.value(1).AsDistribution()->Cdf(25.0), 0.8);
  }
  // And the filter rejected something (objects live on both sides).
  EXPECT_LT(west.tuples().size(), locations.tuples().size());
}

TEST(EndToEndRadarTest, EpochPipelineProducesCalibratedDetections) {
  // Pulses -> moments -> voxel merge from two radars -> detection, with
  // detection probabilities attached.
  radar::Table1Config config;
  config.duration_s = 10.0;
  config.num_gates = 400;
  config.num_vortices = 2;
  const radar::WindField wind = radar::MakeTornadicWindField(config);

  radar::PulseSimConfig sim_config;
  sim_config.num_gates = config.num_gates;
  sim_config.seed = 5;
  radar::PulseSimulator sim(sim_config, wind);
  radar::MomentEstimator::Options mopts;
  mopts.averaging_size = 40;
  radar::MomentEstimator estimator(mopts);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(estimator.AddPulse(sim.NextPulse()).ok());
  }
  ASSERT_FALSE(estimator.beams().empty());

  // Merge all beams into a Cartesian grid (single radar here; the
  // grid_test covers multi-radar fusion).
  radar::VoxelGrid grid({0.0, 30000.0, 0.0, 30000.0, 250.0});
  for (const auto& beam : estimator.beams()) {
    ASSERT_TRUE(grid.AddBeam(sim_config.site, beam).ok());
  }
  size_t covered = 0;
  for (size_t r = 0; r < grid.height(); ++r) {
    for (size_t c = 0; c < grid.width(); ++c) {
      if (grid.at(c, r).contributions > 0) ++covered;
    }
  }
  EXPECT_GT(covered, 100u);

  radar::TornadoDetector detector(config.detector);
  const auto detections = detector.DetectInScan(estimator.beams());
  ASSERT_FALSE(detections.empty());
  for (const auto& d : detections) {
    EXPECT_GE(d.probability, config.detector.min_probability);
    EXPECT_LE(d.probability, 1.0);
  }
}

}  // namespace
}  // namespace usp
