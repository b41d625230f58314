#include "rfid/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace usp {
namespace rfid {
namespace {

TEST(SensingModelTest, CloserIsMoreLikely) {
  SensingModel s;
  const Point2 reader{0.0, 0.0};
  const double near_p = s.DetectionProbability(reader, 0.0, {2.0, 0.0});
  const double far_p = s.DetectionProbability(reader, 0.0, {20.0, 0.0});
  EXPECT_GT(near_p, far_p);
  EXPECT_GT(near_p, 0.3);
}

TEST(SensingModelTest, ZeroBeyondHardRange) {
  SensingModel s;
  EXPECT_EQ(s.DetectionProbability({0, 0}, 0.0, {s.hard_range + 1.0, 0.0}),
            0.0);
}

TEST(SensingModelTest, OnAxisBeatsBehind) {
  SensingModel s;
  const Point2 reader{0.0, 0.0};
  // Heading +x: a tag at +x is in front, at -x is behind.
  const double front = s.DetectionProbability(reader, 0.0, {5.0, 0.0});
  const double behind = s.DetectionProbability(reader, 0.0, {-5.0, 0.0});
  EXPECT_GT(front, behind);
}

TEST(SensingModelTest, ProbabilityIsInUnitInterval) {
  SensingModel s;
  for (double x = -30.0; x <= 30.0; x += 3.0) {
    for (double y = -30.0; y <= 30.0; y += 3.0) {
      const double p = s.DetectionProbability({0, 0}, 0.7, {x, y});
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The sensing formula as it read before the precomputed-heading overload,
// with cos and sin taken per call: the oracle both forms must match.
double ReferenceDetectionProbability(const SensingModel& s, const Point2& r,
                                     double heading, const Point2& tag) {
  const double d = Distance(r, tag);
  if (d > s.hard_range) return 0.0;
  const double range_term =
      1.0 / (1.0 + std::exp(s.range_steepness * (d - s.range_midpoint)));
  double angle_term = 1.0;
  if (d > 1e-9) {
    const double cos_theta = ((tag.x - r.x) * std::cos(heading) +
                              (tag.y - r.y) * std::sin(heading)) /
                             d;
    angle_term =
        1.0 / (1.0 + std::exp(-s.fov_steepness * (cos_theta - s.fov_cos)));
  }
  return s.max_read_prob * range_term * angle_term;
}

TEST(SensingModelTest, PrecomputedHeadingIsBitwiseEqual) {
  const SensingModel s;
  const std::vector<Point2> readers = {{0.0, 0.0}, {3.0, 4.0}, {-17.5, 42.25}};
  const std::vector<Point2> offsets = {
      {0.0, 0.0},            // d = 0
      {1e-10, 0.0},          // d <= 1e-9: the angle term is skipped
      {0.0, -1e-9},          // d == 1e-9 exactly
      {s.hard_range, 0.0},   // d == hard_range exactly
      {-15.0, 20.0},         // d == hard_range exactly (3-4-5 triangle)
      {s.hard_range + 1e-6, 0.0},  // just beyond hard_range
      {40.0, -30.0},         // far beyond
  };
  size_t positive = 0;
  size_t checked = 0;
  for (const Point2& reader : readers) {
    std::vector<Point2> tags;
    for (const Point2& off : offsets) tags.push_back(reader + off);
    for (double dx = -27.0; dx <= 27.0; dx += 2.25) {
      for (double dy = -27.0; dy <= 27.0; dy += 3.5) {
        tags.push_back(reader + Point2{dx, dy});
      }
    }
    for (double heading = -7.0; heading <= 7.0; heading += 0.37) {
      const double c = std::cos(heading);
      const double sn = std::sin(heading);
      for (const Point2& tag : tags) {
        const double by_angle = s.DetectionProbability(reader, heading, tag);
        const double by_cos_sin = s.DetectionProbability(reader, c, sn, tag);
        const double reference =
            ReferenceDetectionProbability(s, reader, heading, tag);
        ASSERT_EQ(Bits(by_angle), Bits(reference))
            << "reader (" << reader.x << ", " << reader.y << ") heading "
            << heading << " tag (" << tag.x << ", " << tag.y << ")";
        ASSERT_EQ(Bits(by_cos_sin), Bits(reference))
            << "reader (" << reader.x << ", " << reader.y << ") heading "
            << heading << " tag (" << tag.x << ", " << tag.y << ")";
        if (reference > 0.0) ++positive;
        ++checked;
      }
    }
  }
  // The grid reaches both sides of hard_range.
  EXPECT_GT(positive, 0u);
  EXPECT_LT(positive, checked);
  EXPECT_EQ(Distance({3.0, 4.0}, Point2{3.0, 4.0} + Point2{-15.0, 20.0}),
            s.hard_range);
  EXPECT_GT(s.DetectionProbability({3.0, 4.0}, 0.5, {-12.0, 24.0}), 0.0);
}

WarehouseConfig SmallConfig() {
  WarehouseConfig c;
  c.width_ft = 50.0;
  c.height_ft = 50.0;
  c.shelf_rows = 5;
  c.shelf_cols = 5;
  c.num_objects = 40;
  c.seed = 7;
  return c;
}

TEST(WarehouseSimulatorTest, GeometryMatchesConfig) {
  const WarehouseSimulator sim(SmallConfig());
  EXPECT_EQ(sim.num_shelves(), 25u);
  EXPECT_EQ(sim.true_object_positions().size(), 40u);
  for (const Point2& s : sim.shelf_positions()) {
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x, 50.0);
    EXPECT_GE(s.y, 0.0);
    EXPECT_LE(s.y, 50.0);
  }
}

TEST(WarehouseSimulatorTest, StepAdvancesTime) {
  WarehouseSimulator sim(SmallConfig());
  const Reading r1 = sim.Step();
  const Reading r2 = sim.Step();
  EXPECT_GT(r2.time_s, r1.time_s);
  EXPECT_NEAR(r2.time_s - r1.time_s, 0.5, 1e-9);
}

TEST(WarehouseSimulatorTest, DeterministicForSeed) {
  WarehouseSimulator a(SmallConfig());
  WarehouseSimulator b(SmallConfig());
  for (int i = 0; i < 20; ++i) {
    const Reading ra = a.Step();
    const Reading rb = b.Step();
    EXPECT_EQ(ra.observed_objects, rb.observed_objects);
    EXPECT_EQ(ra.observed_shelves, rb.observed_shelves);
  }
}

TEST(WarehouseSimulatorTest, ObservationsAreWithinHardRange) {
  WarehouseConfig c = SmallConfig();
  WarehouseSimulator sim(c);
  for (int i = 0; i < 100; ++i) {
    const Reading r = sim.Step();
    for (uint32_t id : r.observed_objects) {
      ASSERT_LT(id, c.num_objects);
      EXPECT_LE(Distance(r.reader_pos, sim.true_object_positions()[id]),
                c.sensing.hard_range + 1e-9);
    }
  }
}

TEST(WarehouseSimulatorTest, ReaderCoversTheAreaOverTime) {
  WarehouseSimulator sim(SmallConfig());
  double min_x = 1e9, max_x = -1e9, min_y = 1e9, max_y = -1e9;
  for (int i = 0; i < 1000; ++i) {
    const Reading r = sim.Step();
    min_x = std::min(min_x, r.reader_pos.x);
    max_x = std::max(max_x, r.reader_pos.x);
    min_y = std::min(min_y, r.reader_pos.y);
    max_y = std::max(max_y, r.reader_pos.y);
  }
  EXPECT_LT(min_x, 5.0);
  EXPECT_GT(max_x, 45.0);
  EXPECT_GT(max_y - min_y, 20.0);
}

TEST(WarehouseSimulatorTest, ObjectsMoveOccasionally) {
  WarehouseConfig c = SmallConfig();
  c.object_move_prob_per_scan = 0.05;  // high rate for the test
  WarehouseSimulator sim(c);
  std::vector<uint32_t> moved;
  int total_moves = 0;
  for (int i = 0; i < 200; ++i) {
    moved.clear();
    sim.Step(&moved);
    total_moves += static_cast<int>(moved.size());
  }
  // E[moves] = 200 * 0.05 * 40 = 400; even 3-sigma fluctuation stays > 0.
  EXPECT_GT(total_moves, 100);
  EXPECT_LT(total_moves, 900);
}

TEST(WarehouseSimulatorTest, MostObjectsEventuallyObserved) {
  WarehouseConfig c = SmallConfig();
  c.num_objects = 30;
  WarehouseSimulator sim(c);
  std::vector<bool> seen(c.num_objects, false);
  for (int i = 0; i < 2000; ++i) {
    for (uint32_t id : sim.Step().observed_objects) seen[id] = true;
  }
  int count = 0;
  for (bool s : seen) count += s ? 1 : 0;
  EXPECT_GT(count, 25);
}

TEST(DistanceTest, Euclidean) {
  EXPECT_NEAR(Distance({0, 0}, {3, 4}), 5.0, 1e-12);
  EXPECT_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace rfid
}  // namespace usp
