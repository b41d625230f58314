#include "radar/stream_adapter.h"

#include <gtest/gtest.h>

#include "stream/batch.h"
#include "stream/group_by.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace radar {
namespace {

MomentBeam MakeBeam(double time_s, size_t gates) {
  MomentBeam beam;
  beam.time_s = time_s;
  beam.azimuth_rad = 0.3;
  beam.gates.resize(gates);
  for (size_t g = 0; g < gates; ++g) {
    beam.gates[g].reflectivity_db = 30.0;
    beam.gates[g].velocity_mps = 5.0 + static_cast<double>(g);
    beam.gates[g].velocity_variance = 0.25;
    beam.gates[g].spectral_width_mps = 1.0;
  }
  return beam;
}

TEST(StreamAdapterTest, TupleLayoutMatchesSchema) {
  stream::VectorCollector out;
  ASSERT_TRUE(BeamToTuples(MakeBeam(1.5, 4), {}, &out).ok());
  ASSERT_EQ(out.tuples().size(), 4u);
  const auto schema = MomentTupleSchema();
  const stream::Tuple& t = out.tuples()[0];
  ASSERT_EQ(t.num_values(), schema->num_fields());
  EXPECT_EQ(t.timestamp(), 1'500'000);
  EXPECT_EQ(t.value(0).AsDouble(), 0.3);
  EXPECT_NEAR(t.value(1).AsDouble(), 0.5 * kGateSpacingM, 1e-9);
  ASSERT_TRUE(t.value(3).is_distribution());
  EXPECT_NEAR(t.value(3).AsDistribution()->Mean(), 5.0, 1e-12);
  EXPECT_NEAR(t.value(3).AsDistribution()->Variance(), 0.25, 1e-12);
  EXPECT_EQ(t.lineage().size(), 1u);
}

TEST(StreamAdapterTest, ReflectivityGateSkipsClearAir) {
  MomentBeam beam = MakeBeam(0.0, 4);
  beam.gates[1].reflectivity_db = 5.0;
  BeamTupleOptions opts;
  opts.min_reflectivity_db = 20.0;
  stream::VectorCollector out;
  ASSERT_TRUE(BeamToTuples(beam, opts, &out).ok());
  EXPECT_EQ(out.tuples().size(), 3u);
}

TEST(StreamAdapterTest, DegenerateVarianceGetsFloor) {
  MomentBeam beam = MakeBeam(0.0, 1);
  beam.gates[0].velocity_variance = 0.0;
  stream::VectorCollector out;
  ASSERT_TRUE(BeamToTuples(beam, {}, &out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_GT(out.tuples()[0].value(3).AsDistribution()->Variance(), 0.0);
}

TEST(StreamAdapterTest, NullCollectorRejected) {
  EXPECT_FALSE(BeamToTuples(MakeBeam(0.0, 1), {}, nullptr).ok());
}

TEST(StreamAdapterTest, ScanFeedsWindowedAggregation) {
  // End-to-end: two beams -> tuple stream -> windowed AVG of the velocity
  // distribution per range gate band.
  std::vector<MomentBeam> scan = {MakeBeam(0.5, 8), MakeBeam(1.0, 8)};
  stream::VectorCollector tuples;
  ASSERT_TRUE(ScanToTuples(scan, {}, &tuples).ok());
  ASSERT_EQ(tuples.tuples().size(), 16u);

  uncertain::CltSum clt;
  stream::GroupByAggregateOperator avg_op(
      "avg_velocity", stream::WindowSpec::Tumbling(5'000'000),
      [](const stream::Tuple& t) {
        // Group by km band of range.
        return std::to_string(
            static_cast<int>(t.value(1).AsDouble() / 1000.0));
      },
      {uncertain::MakeAvgAggregate("velocity", 3, &clt)});
  stream::VectorCollector out;
  for (const auto& t : tuples.tuples()) {
    ASSERT_TRUE(avg_op.PushBatch(stream::TupleBatch({t}), &out).ok());
  }
  ASSERT_TRUE(avg_op.Close(&out).ok());
  ASSERT_EQ(out.tuples().size(), 1u);  // all 8 gates within the first km
  const auto& dist = *out.tuples()[0].value(1).AsDistribution();
  // Mean of velocities 5..12 over two beams = 8.5; variance 0.25/16.
  EXPECT_NEAR(dist.Mean(), 8.5, 1e-9);
  EXPECT_NEAR(dist.Variance(), 0.25 / 16.0, 1e-9);
}

TEST(StreamAdapterTest, BatchVariantsMatchCollectorPath) {
  std::vector<MomentBeam> scan = {MakeBeam(0.5, 8), MakeBeam(1.0, 8)};
  stream::VectorCollector tuples;
  ASSERT_TRUE(ScanToTuples(scan, {}, &tuples).ok());

  auto beam_batch = BeamToBatch(scan[0], {});
  ASSERT_TRUE(beam_batch.ok());
  EXPECT_EQ(beam_batch.value().size(), 8u);

  auto scan_batch = ScanToBatch(scan, {});
  ASSERT_TRUE(scan_batch.ok());
  ASSERT_EQ(scan_batch.value().size(), tuples.tuples().size());
  for (size_t i = 0; i < scan_batch.value().size(); ++i) {
    EXPECT_EQ(scan_batch.value()[i].timestamp(),
              tuples.tuples()[i].timestamp());
    EXPECT_EQ(scan_batch.value()[i].value(1).AsDouble(),
              tuples.tuples()[i].value(1).AsDouble());
  }
}

}  // namespace
}  // namespace radar
}  // namespace usp
