// The particle filter's SIMD path: the box_muller and logistic_detection
// dispatch kernels are bitwise-equal on every tier and close to the libm
// forms they replace, MoveParticles consumes the Rng exactly as a
// per-particle Rng::Gaussian loop would, and a whole filter run is
// bitwise-identical on every tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "rfid/model.h"
#include "rfid/particle_filter.h"
#include "stats/simd/dispatch.h"

namespace usp {
namespace rfid {
namespace {

using stats::simd::Active;
using stats::simd::ScopedForceTier;
using stats::simd::Tier;
using stats::simd::TierAvailable;

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// |a - b| within `ulps` units in the last place of b (0 must be exact).
void ExpectWithinUlps(double a, double b, double ulps, const char* what,
                      size_t i) {
  if (b == 0.0) {
    EXPECT_EQ(a, 0.0) << what << " [" << i << "]";
    return;
  }
  const double ulp = std::nextafter(std::fabs(b),
                                    std::numeric_limits<double>::infinity()) -
                     std::fabs(b);
  EXPECT_LE(std::fabs(a - b), ulps * ulp)
      << what << " [" << i << "]: " << a << " vs " << b;
}

// Uniform pairs as Rng::Gaussian draws them, plus the domain edges.
void MakeUniforms(size_t n, std::vector<double>* u1, std::vector<double>* u2) {
  common::Rng rng(5);
  u1->clear();
  u2->clear();
  const double edges1[] = {0x1.0p-53, 1.0 - 0x1.0p-53, 0.5, 0.25,
                           std::sqrt(0.5)};
  const double edges2[] = {0.0, 1.0 - 0x1.0p-53, 0.25, 0.5, 0.75};
  for (size_t i = 0; i < n; ++i) {
    if (i < 5) {
      u1->push_back(edges1[i]);
      u2->push_back(edges2[i]);
      continue;
    }
    double u;
    do {
      u = rng.Uniform();
    } while (u <= 0.0);
    u1->push_back(u);
    u2->push_back(rng.Uniform());
  }
}

TEST(BoxMullerKernelTest, BitwiseAcrossTiersWithTails) {
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 13, 1027}) {
    std::vector<double> u1, u2;
    MakeUniforms(n, &u1, &u2);
    std::vector<std::vector<double>> cos_out, sin_out;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<double> zc(n), zs(n);
      Active().box_muller(u1.data(), u2.data(), n, zc.data(), zs.data());
      cos_out.push_back(std::move(zc));
      sin_out.push_back(std::move(zs));
    }
    for (size_t k = 1; k < cos_out.size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(cos_out[0][i], cos_out[k][i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(sin_out[0][i], sin_out[k][i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BoxMullerKernelTest, CloseToLibmBoxMuller) {
  const size_t n = 4099;
  std::vector<double> u1, u2;
  MakeUniforms(n, &u1, &u2);
  std::vector<double> zc(n), zs(n);
  Active().box_muller(u1.data(), u2.data(), n, zc.data(), zs.data());
  for (size_t i = 0; i < n; ++i) {
    // Rng::Gaussian's expressions with libm.
    const double r = std::sqrt(-2.0 * std::log(u1[i]));
    const double theta = 2.0 * M_PI * u2[i];
    // A few ulps of r, absolute: sin/cos near a zero are tiny but their
    // error is relative to the reduction, i.e. to 1.
    const double tol = 8.0 * std::numeric_limits<double>::epsilon() * r;
    EXPECT_NEAR(zc[i], r * std::cos(theta), tol) << i;
    EXPECT_NEAR(zs[i], r * std::sin(theta), tol) << i;
  }
}

// Tags around a reader at (3, 4) with heading 0.7 rad: a random cloud,
// the reader's own position (d == 0), points exactly at hard_range (3-4-5
// and 7-24-25 triangles scaled to 25 ft), and points just past it.
struct DetectionProbe {
  SensingModel model;
  Point2 reader{3.0, 4.0};
  double heading = 0.7;
  std::vector<double> xs, ys;
};

DetectionProbe MakeDetectionProbe(size_t n) {
  DetectionProbe p;
  common::Rng rng(11);
  const Point2 fixed[] = {
      {3.0, 4.0},                 // d == 0
      {3.0 + 15.0, 4.0 + 20.0},   // d == 25 == hard_range
      {3.0 - 7.0, 4.0 - 24.0},    // d == 25
      {3.0 + 25.0, 4.0},          // d == 25
      {3.0 + 25.0000001, 4.0},    // just beyond
      {3.0 + 1e-10, 4.0},         // d <= 1e-9: no bearing term
  };
  for (size_t i = 0; i < n; ++i) {
    Point2 t;
    if (i < sizeof(fixed) / sizeof(fixed[0])) {
      t = fixed[i];
    } else {
      t = {p.reader.x + rng.Uniform(-30.0, 30.0),
           p.reader.y + rng.Uniform(-30.0, 30.0)};
    }
    p.xs.push_back(t.x);
    p.ys.push_back(t.y);
  }
  return p;
}

stats::simd::LogisticDetection KernelModel(const SensingModel& s) {
  return {s.max_read_prob, s.range_midpoint, s.range_steepness,
          s.fov_cos,       s.fov_steepness,  s.hard_range};
}

std::vector<double> RunDetection(const DetectionProbe& p) {
  const size_t n = p.xs.size();
  std::vector<double> out(n);
  Active().logistic_detection(KernelModel(p.model), p.reader.x, p.reader.y,
                              std::cos(p.heading), std::sin(p.heading),
                              p.xs.data(), p.ys.data(), n, out.data());
  return out;
}

TEST(LogisticDetectionKernelTest, BitwiseAcrossTiersWithTails) {
  // 8 is a compressed belief; the others leave 1-3 lane tails.
  for (size_t n : {6, 7, 8, 9, 10, 11, 64, 101}) {
    const DetectionProbe p = MakeDetectionProbe(n);
    std::vector<std::vector<double>> outs;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      outs.push_back(RunDetection(p));
    }
    for (size_t k = 1; k < outs.size(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(outs[0][i], outs[k][i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(LogisticDetectionKernelTest, MatchesSensingModelWithinUlps) {
  const DetectionProbe p = MakeDetectionProbe(1001);
  const double c = std::cos(p.heading);
  const double s = std::sin(p.heading);
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    const std::vector<double> got = RunDetection(p);
    for (size_t i = 0; i < got.size(); ++i) {
      const double want =
          p.model.DetectionProbability(p.reader, c, s, {p.xs[i], p.ys[i]});
      ExpectWithinUlps(got[i], want, 8.0, "detection", i);
    }
    // The edge cases hit their branches: d == 0 and d == hard_range are
    // scored, beyond it is exactly 0.
    EXPECT_GT(got[0], 0.0);
    EXPECT_GT(got[1], 0.0);
    EXPECT_GT(got[2], 0.0);
    EXPECT_GT(got[3], 0.0);
    EXPECT_EQ(got[4], 0.0);
  }
}

// ---- MoveParticles against a per-particle reference -----------------------

// Rng::Gaussian with its Box-Muller pair evaluated by the scalar
// box_muller kernel instead of libm: same uniforms, same cache handling.
double ReferenceGaussian(common::Rng* rng) {
  double z;
  if (rng->TakeCachedGaussian(&z)) return z;
  double u1;
  do {
    u1 = rng->Uniform();
  } while (u1 <= 0.0);
  const double u2 = rng->Uniform();
  double zc, zs;
  {
    ScopedForceTier scalar(Tier::kScalar);
    Active().box_muller(&u1, &u2, 1, &zc, &zs);
  }
  rng->SetCachedGaussian(zs);
  return zc;
}

double ReferenceGaussian(common::Rng* rng, double mean, double stddev) {
  return mean + stddev * ReferenceGaussian(rng);
}

// The factored filter's motion loop as it ran per particle.
void ReferenceMove(const std::vector<Point2>& shelves, double sigma,
                   double jump_prob, common::Rng* rng, ObjectBelief* b) {
  for (size_t i = 0; i < b->size(); ++i) {
    if (jump_prob > 0.0 && rng->Bernoulli(jump_prob)) {
      const Point2& shelf = shelves[rng->UniformInt(shelves.size())];
      b->xs[i] = shelf.x + ReferenceGaussian(rng, 0.0, 1.0);
      b->ys[i] = shelf.y + ReferenceGaussian(rng, 0.0, 1.0);
    } else {
      b->xs[i] += ReferenceGaussian(rng, 0.0, sigma);
      b->ys[i] += ReferenceGaussian(rng, 0.0, sigma);
    }
  }
}

ObjectBelief RandomBelief(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  ObjectBelief b;
  for (size_t i = 0; i < n; ++i) {
    b.xs.push_back(rng.Uniform(0.0, 50.0));
    b.ys.push_back(rng.Uniform(0.0, 50.0));
    b.ws.push_back(1.0 / static_cast<double>(n));
  }
  return b;
}

TEST(MoveParticlesTest, EqualsPerParticleReference) {
  const std::vector<Point2> shelves = {
      {5.0, 5.0}, {15.0, 5.0}, {25.0, 35.0}, {45.0, 15.0}, {35.0, 45.0}};
  // jump_prob 0 draws no Bernoulli uniforms; 0.9 is a high
  // shelf_jump_rate, where most particles take the UniformInt path.
  for (double jump_prob : {0.0, 0.004, 0.3, 0.9}) {
    for (size_t n : {1, 2, 3, 7, 8, 63, 64, 65, 101}) {
      // A deviate cached on entry is the state RecoverAroundReader leaves
      // after an odd particle count (one Rng::Gaussian per particle).
      for (bool cached : {false, true}) {
        for (const Tier tier : AvailableTiers()) {
          SCOPED_TRACE(testing::Message()
                       << "jump_prob=" << jump_prob << " n=" << n
                       << " cached=" << cached << " tier="
                       << (tier == Tier::kScalar ? "scalar" : "avx2"));
          common::Rng rng_block(1000 + n);
          if (cached) rng_block.Gaussian();
          common::Rng rng_ref = rng_block;
          ObjectBelief block = RandomBelief(n, 7 + n);
          ObjectBelief ref = block;
          MotionScratch scratch;
          {
            ScopedForceTier force(tier);
            MoveParticles(shelves, 0.3, jump_prob, &rng_block, &scratch,
                          &block);
          }
          ReferenceMove(shelves, 0.3, jump_prob, &rng_ref, &ref);
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(block.xs[i], ref.xs[i]) << "x[" << i << "]";
            ASSERT_EQ(block.ys[i], ref.ys[i]) << "y[" << i << "]";
          }
          // Same Rng state: the same cached deviate (or none) and the same
          // raw stream afterwards.
          double zb = 0.0, zr = 0.0;
          const bool has_b = rng_block.TakeCachedGaussian(&zb);
          const bool has_r = rng_ref.TakeCachedGaussian(&zr);
          ASSERT_EQ(has_b, has_r);
          ASSERT_EQ(has_b, cached);
          ASSERT_EQ(zb, zr);
          for (int k = 0; k < 4; ++k) {
            ASSERT_EQ(rng_block.Next(), rng_ref.Next());
          }
        }
      }
    }
  }
}

TEST(MoveParticlesTest, EmptyBeliefLeavesRngAlone) {
  common::Rng rng(3);
  rng.Gaussian();
  common::Rng before = rng;
  ObjectBelief empty;
  MotionScratch scratch;
  MoveParticles({{1.0, 1.0}}, 0.2, 0.5, &rng, &scratch, &empty);
  double za = 0.0, zb = 0.0;
  ASSERT_TRUE(rng.TakeCachedGaussian(&za));
  ASSERT_TRUE(before.TakeCachedGaussian(&zb));
  EXPECT_EQ(za, zb);
  EXPECT_EQ(rng.Next(), before.Next());
}

// A whole filter run — odd particle counts, object moves (so beliefs
// collapse and RecoverAroundReader re-seeds them), compression and
// expansion — ends in bitwise-identical beliefs on every tier.
TEST(FactoredFilterTiersTest, BitwiseIdenticalAcrossTiers) {
  WarehouseConfig config;
  config.width_ft = 50.0;
  config.height_ft = 50.0;
  config.shelf_rows = 5;
  config.shelf_cols = 5;
  config.num_objects = 30;
  config.object_move_prob_per_scan = 0.01;
  config.seed = 17;
  FilterOptions opts;
  opts.particles_per_object = 65;
  opts.shelf_jump_rate = 0.05;
  opts.seed = 23;
  std::vector<std::vector<ObjectBelief>> runs;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    WarehouseSimulator sim(config);
    FactoredParticleFilter filter(config.num_objects, sim.shelf_positions(),
                                  config.sensing, opts);
    for (int i = 0; i < 600; ++i) filter.ProcessReading(sim.Step());
    std::vector<ObjectBelief> beliefs;
    for (uint32_t id = 0; id < config.num_objects; ++id) {
      beliefs.push_back(filter.belief(id));
    }
    runs.push_back(std::move(beliefs));
  }
  for (size_t k = 1; k < runs.size(); ++k) {
    for (uint32_t id = 0; id < runs[0].size(); ++id) {
      const ObjectBelief& a = runs[0][id];
      const ObjectBelief& b = runs[k][id];
      ASSERT_EQ(a.size(), b.size()) << id;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.xs[i], b.xs[i]) << id << ":" << i;
        ASSERT_EQ(a.ys[i], b.ys[i]) << id << ":" << i;
        ASSERT_EQ(a.ws[i], b.ws[i]) << id << ":" << i;
      }
    }
  }
}

}  // namespace
}  // namespace rfid
}  // namespace usp
