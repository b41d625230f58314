// CF grids on the frequency lattice t_j = j * dt. Gaussian and mixture
// grids run an anchored recurrence instead of exp/sincos per point; these
// tests pin down what that may and may not change:
//  * accuracy: every entry is within 1e-12 relative of the direct point
//    form Cf(t_j) wherever |Cf| > 1e-300 (negative j, ranges straddling
//    anchors, unaligned starts, tails of every length mod 4, underflow);
//  * tiers: scalar and AVX2 grids are bitwise-equal;
//  * purity: an entry depends only on (parameters, dt, j), so a grid
//    evaluated in pieces or extended (the pane partial's 513 -> 1025
//    doubling) equals a fresh one, and a cache hit equals a miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "stats/characteristic_function.h"
#include "stats/exponential.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/simd/dispatch.h"
#include "stats/uniform.h"

namespace usp {
namespace stats {
namespace {

using simd::ScopedForceTier;
using simd::Tier;

constexpr double kPi = 3.14159265358979323846;

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (simd::TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// Gaussian-family distributions spanning the engine's parameter ranges
// (perfbench's palette: means in [-5, 5], sds in [0.3, 1.3]) and beyond.
std::vector<std::unique_ptr<Distribution>> GaussianFamily() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Gaussian>(0.0, 1.0));
  dists.push_back(std::make_unique<Gaussian>(-4.7, 0.31));
  dists.push_back(std::make_unique<Gaussian>(38.0, 2.5));
  dists.push_back(std::make_unique<Gaussian>(3.3, 0.05));
  dists.push_back(std::make_unique<GaussianMixture>(
      GaussianMixture::Make({{0.4, -1.0, 0.5}, {0.6, 2.0, 1.2}})
          .MoveValueUnsafe()));
  dists.push_back(std::make_unique<GaussianMixture>(
      GaussianMixture::Make(
          {{0.7, 4.9, 0.3}, {1.1, -3.6, 1.25}, {0.25, 0.4, 0.8}})
          .MoveValueUnsafe()));
  return dists;
}

std::vector<std::unique_ptr<Distribution>> DirectFamilies() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Uniform>(-2.0, 3.0));
  dists.push_back(std::make_unique<Exponential>(0.8));
  dists.push_back(std::make_unique<GammaDist>(2.5, 1.3));
  return dists;
}

struct Range {
  int64_t j_begin;
  size_t n;
};

// Aligned and unaligned starts, both halves of the lattice, ranges that
// straddle 128-point anchors, and every tail length mod 4.
std::vector<Range> Ranges() {
  return {{0, 513},   {513, 512}, {-512, 1024}, {-300, 777}, {127, 2},
          {-129, 3},  {5, 1},     {-1, 1},      {-7, 14},    {250, 261},
          {-640, 129}, {1, 4},    {-2048, 4096}};
}

std::vector<std::complex<double>> Grid(const Distribution& d, double dt,
                                       Range r) {
  std::vector<std::complex<double>> out(r.n);
  d.CfGrid(dt, r.j_begin, r.n, out.data());
  return out;
}

void ExpectBitwise(const std::vector<std::complex<double>>& a,
                   const std::vector<std::complex<double>>& b,
                   const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << what << " [" << i << "].re";
    ASSERT_EQ(a[i].imag(), b[i].imag()) << what << " [" << i << "].im";
  }
}

TEST(CfLatticeTest, RecurrenceMatchesDirectForm) {
  double worst = 0.0;
  size_t checked = 0, underflowed = 0;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    for (const auto& d : GaussianFamily()) {
      // dt from the pane bucketing (2 pi / power-of-two width) and from
      // the tumbling inversion (2 pi / 16 sd), plus a coarse one that
      // drives the envelope deep into underflow inside one range.
      const double sd = d->Stddev();
      for (const double dt : {2.0 * kPi / 64.0, 2.0 * kPi / (16.0 * sd),
                              0.37 / sd}) {
        for (const Range r : Ranges()) {
          const auto grid = Grid(*d, dt, r);
          for (size_t i = 0; i < r.n; ++i) {
            const int64_t j = r.j_begin + static_cast<int64_t>(i);
            const std::complex<double> direct =
                d->Cf(LatticeFrequency(j, dt));
            if (std::abs(direct) > 1e-300) {
              const double rel = std::abs(grid[i] - direct) / std::abs(direct);
              worst = std::max(worst, rel);
              ++checked;
              ASSERT_LE(rel, 1e-12) << d->ToString() << " dt=" << dt
                                    << " j=" << j;
            } else {
              ++underflowed;
              ASSERT_LE(std::abs(grid[i]), 1e-290)
                  << d->ToString() << " dt=" << dt << " j=" << j;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(underflowed, 0u);  // the coarse dt reached underflow
  std::printf("recurrence vs direct: worst relative error %.3g over %zu "
              "points (%zu underflowed)\n",
              worst, checked, underflowed);
}

TEST(CfLatticeTest, UnderflowedBlocksAreExactlyZero) {
  // Far enough out that whole anchor blocks have exp(c t^2) == 0: those
  // entries are exactly 0 on both halves, never a restarted chain.
  const Gaussian g(1.5, 1.0);
  const double dt = 0.5;  // c t^2 < -745 from |j| ~ 78 on
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    const auto grid = Grid(g, dt, {-1024, 2048});
    for (size_t i = 0; i < grid.size(); ++i) {
      const int64_t j = -1024 + static_cast<int64_t>(i);
      if (j >= 256 || j < -256) {
        ASSERT_EQ(grid[i].real(), 0.0) << "j=" << j;
        ASSERT_EQ(grid[i].imag(), 0.0) << "j=" << j;
      }
    }
  }
}

TEST(CfLatticeTest, DirectFamiliesMatchPointCfBitwise) {
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    for (const auto& d : DirectFamilies()) {
      for (const Range r : Ranges()) {
        const double dt = 0.173;
        const auto grid = Grid(*d, dt, r);
        for (size_t i = 0; i < r.n; ++i) {
          const std::complex<double> direct = d->Cf(
              LatticeFrequency(r.j_begin + static_cast<int64_t>(i), dt));
          ASSERT_EQ(grid[i].real(), direct.real()) << d->ToString();
          ASSERT_EQ(grid[i].imag(), direct.imag()) << d->ToString();
        }
      }
    }
  }
}

TEST(CfLatticeTest, TiersAreBitwiseEqual) {
  if (!simd::TierAvailable(Tier::kAvx2)) GTEST_SKIP() << "no AVX2 tier";
  std::vector<std::unique_ptr<Distribution>> dists = GaussianFamily();
  for (auto& d : DirectFamilies()) dists.push_back(std::move(d));
  for (const auto& d : dists) {
    // The inversion's spacing, and a coarse one that reaches underflow.
    for (const double dt : {2.0 * kPi / (16.0 * d->Stddev()), 0.37}) {
      for (const Range r : Ranges()) {
        std::vector<std::complex<double>> scalar, avx2;
        {
          ScopedForceTier force(Tier::kScalar);
          scalar = Grid(*d, dt, r);
        }
        {
          ScopedForceTier force(Tier::kAvx2);
          avx2 = Grid(*d, dt, r);
        }
        ExpectBitwise(scalar, avx2,
                      d->ToString() + " j_begin=" + std::to_string(r.j_begin));
      }
    }
  }
}

TEST(CfLatticeTest, PiecewiseGridsEqualFreshOnes) {
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    for (const auto& d : GaussianFamily()) {
      const double dt = 2.0 * kPi / 64.0;
      const Range whole = {-700, 1800};
      const auto fresh = Grid(*d, dt, whole);
      // Uneven pieces: boundaries off the anchors and off the chain stride.
      std::vector<std::complex<double>> pieced(whole.n);
      size_t at = 0;
      for (const size_t len : {1, 130, 3, 255, 777, 5, 629}) {
        d->CfGrid(dt, whole.j_begin + static_cast<int64_t>(at), len,
                  pieced.data() + at);
        at += len;
      }
      ASSERT_EQ(at, whole.n);
      ExpectBitwise(fresh, pieced, d->ToString() + " pieced");
    }
  }
}

TEST(CfLatticeTest, ExtendedPaneGridEqualsFreshGrid) {
  // The pane partial's EnsureGrid: the positive half [0, 513) first, then
  // extended in place by [513, 1025) when the window doubles n.
  const auto owned = GaussianFamily();
  std::vector<const Distribution*> dists;
  for (const auto& d : owned) dists.push_back(d.get());
  // Fine enough that the product stays far from the underflow pin up to
  // j = 1024, so every entry carries bits of every factor.
  const double dt = 2.0 * kPi / 1024.0;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<std::complex<double>> scratch;
    std::vector<std::complex<double>> fresh(1025), extended(1025);
    ProductCfGrid(dists, dt, 0, 1025, fresh.data(), &scratch);
    CfGridCache cache;
    cache.enabled = true;
    ProductCfGrid(dists, dt, 0, 513, extended.data(), &scratch, &cache);
    ProductCfGrid(dists, dt, 513, 512, extended.data() + 513, &scratch,
                  &cache);
    ASSERT_GT(std::abs(fresh.back()), 1e-100);
    ExpectBitwise(fresh, extended, "extended pane grid");
  }
}

TEST(CfLatticeTest, CacheHitEqualsMissOnLatticeKeys) {
  const Gaussian a(1.0, 2.0), b(1.0, 2.0);
  const GaussianMixture m =
      GaussianMixture::Make({{0.4, -1.0, 0.5}, {0.6, 2.0, 1.2}})
          .MoveValueUnsafe();
  const std::vector<const Distribution*> dists = {&a, &m, &b};
  const double dt = 0.21;
  std::vector<std::complex<double>> scratch;
  std::vector<std::complex<double>> plain(300), cached(300);
  ProductCfGrid(dists, dt, -150, 300, plain.data(), &scratch);

  CfGridCache cache;
  cache.enabled = true;
  ProductCfGrid(dists, dt, -150, 300, cached.data(), &scratch, &cache);
  EXPECT_EQ(cache.misses, 2u);  // a and b share one signature
  EXPECT_EQ(cache.hits, 1u);
  ExpectBitwise(plain, cached, "miss");
  ProductCfGrid(dists, dt, -150, 300, cached.data(), &scratch, &cache);
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 4u);
  ExpectBitwise(plain, cached, "hit");

  // Same n and dt but another j_begin, or another dt: a different key.
  std::vector<std::complex<double>> shifted(300), shifted_plain(300);
  ProductCfGrid(dists, dt, 150, 300, shifted.data(), &scratch, &cache);
  EXPECT_EQ(cache.misses, 4u);
  ProductCfGrid(dists, dt, 150, 300, shifted_plain.data(), &scratch);
  ExpectBitwise(shifted_plain, shifted, "shifted range");
  ProductCfGrid(dists, 2.0 * dt, -150, 300, cached.data(), &scratch, &cache);
  EXPECT_EQ(cache.misses, 6u);
}

}  // namespace
}  // namespace stats
}  // namespace usp
