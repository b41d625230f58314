// The SIMD dispatch contract: every kernel tier is lane-exact, so forcing
// any available tier produces bitwise-identical CF grids, products, FFTs,
// and densities (CDF grids are allowed 1e-12 but are bitwise in practice).
// This is what lets the paned/sharded operators keep their exact-replay
// guarantees on any host ISA. Also covers the cross-group CfGridCache:
// hit/miss accounting, LRU bounding, uncacheable fallbacks, and the
// bitwise-neutrality claim (a hit returns exactly what the miss computed).

#include "stats/simd/dispatch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "stats/characteristic_function.h"
#include "stats/exponential.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/simd/vec_math.h"
#include "stats/uniform.h"

namespace usp {
namespace stats {
namespace {

using simd::Active;
using simd::ScopedForceTier;
using simd::Tier;
using simd::TierAvailable;

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// A lattice over ~[-40, 40] with irrational-ish spacing so exp/sincos
// reductions and the underflow pin all engage; j_begin = -(n / 2), so it
// includes 0 and negatives.
struct Probe {
  double dt;
  int64_t j_begin;
  size_t n;
  double t(size_t i) const {
    return LatticeFrequency(j_begin + static_cast<int64_t>(i), dt);
  }
};

Probe ProbeGrid(size_t n) {
  return {80.0 / static_cast<double>(n - 1), -static_cast<int64_t>(n / 2), n};
}

std::vector<std::unique_ptr<Distribution>> AllDistributions() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Gaussian>(1.5, 0.7));
  dists.push_back(std::make_unique<GaussianMixture>(
      GaussianMixture::Make({{0.4, -1.0, 0.5}, {0.6, 2.0, 1.2}})
          .MoveValueUnsafe()));
  dists.push_back(std::make_unique<Uniform>(-2.0, 3.0));
  dists.push_back(std::make_unique<Exponential>(0.8));
  dists.push_back(std::make_unique<GammaDist>(2.5, 1.3));
  return dists;
}

void ExpectComplexEq(const std::vector<std::complex<double>>& a,
                     const std::vector<std::complex<double>>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << what << " [" << i << "].re";
    ASSERT_EQ(a[i].imag(), b[i].imag()) << what << " [" << i << "].im";
  }
}

TEST(SimdDispatchTest, CfGridBitwiseAcrossTiers) {
  // Odd length so the AVX2 tier exercises its scalar tail.
  const Probe t = ProbeGrid(259);
  for (const auto& d : AllDistributions()) {
    const bool recurrence = d->type() == DistType::kGaussian ||
                            d->type() == DistType::kGaussianMixture;
    std::vector<std::vector<std::complex<double>>> per_tier;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<std::complex<double>> grid(t.n);
      d->CfGrid(t.dt, t.j_begin, t.n, grid.data());
      // Single-point Cf must agree with the grid kernel on every tier:
      // bitwise for the direct-form families, within the recurrence's
      // 1e-12 relative bound for Gaussian and mixture grids.
      for (size_t i = 0; i < t.n; i += 37) {
        const std::complex<double> one = d->Cf(t.t(i));
        if (recurrence) {
          ASSERT_LE(std::abs(grid[i] - one), 1e-12 * std::abs(one))
              << d->ToString();
        } else {
          ASSERT_EQ(grid[i].real(), one.real()) << d->ToString();
          ASSERT_EQ(grid[i].imag(), one.imag()) << d->ToString();
        }
      }
      per_tier.push_back(std::move(grid));
    }
    for (size_t k = 1; k < per_tier.size(); ++k) {
      ExpectComplexEq(per_tier[0], per_tier[k], d->ToString().c_str());
    }
  }
}

TEST(SimdDispatchTest, CdfGridWithinToleranceAcrossTiers) {
  std::vector<double> x;
  for (double v = -8.0; v <= 8.0; v += 0.093) x.push_back(v);
  for (const auto& d : AllDistributions()) {
    std::vector<std::vector<double>> per_tier;
    for (const Tier tier : AvailableTiers()) {
      ScopedForceTier force(tier);
      std::vector<double> grid(x.size());
      d->CdfGrid(x.data(), x.size(), grid.data());
      per_tier.push_back(std::move(grid));
    }
    for (size_t k = 1; k < per_tier.size(); ++k) {
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(per_tier[0][i], per_tier[k][i], 1e-12)
            << d->ToString() << " at x=" << x[i];
      }
    }
  }
}

TEST(SimdDispatchTest, ProductCfGridBitwiseAcrossTiers) {
  const auto owned = AllDistributions();
  // Repeat the set so the underflow pin engages at large |t|.
  std::vector<const Distribution*> dists;
  for (int rep = 0; rep < 40; ++rep) {
    for (const auto& d : owned) dists.push_back(d.get());
  }
  const Probe t = ProbeGrid(515);
  std::vector<std::vector<std::complex<double>>> per_tier;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<std::complex<double>> out(t.n), scratch;
    ProductCfGrid(dists, t.dt, t.j_begin, t.n, out.data(), &scratch);
    per_tier.push_back(std::move(out));
  }
  for (size_t k = 1; k < per_tier.size(); ++k) {
    ExpectComplexEq(per_tier[0], per_tier[k], "ProductCfGrid");
  }
}

TEST(SimdDispatchTest, FftBitwiseAcrossTiersAndAgainstReference) {
  common::Rng rng(2024);
  for (const size_t n : {size_t{8}, size_t{256}, size_t{1024}}) {
    std::vector<std::complex<double>> input(n);
    for (auto& c : input) c = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    for (const bool inverse : {false, true}) {
      std::vector<std::complex<double>> reference = input;
      common::Fft(reference, inverse);
      for (const Tier tier : AvailableTiers()) {
        ScopedForceTier force(tier);
        std::vector<std::complex<double>> data = input;
        Active().fft(data.data(), n, inverse);
        ExpectComplexEq(reference, data, "fft");
      }
    }
  }
}

TEST(SimdDispatchTest, PhaseRotateAndDensityMassesBitwiseAcrossTiers) {
  common::Rng rng(7);
  const size_t n = 513;  // odd: forces the AVX2 scalar tails
  std::vector<std::complex<double>> input(n);
  for (auto& c : input) c = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
  std::vector<std::vector<std::complex<double>>> rotated;
  std::vector<std::vector<double>> masses;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    std::vector<std::complex<double>> data = input;
    Active().phase_rotate(data.data(), n, /*dt=*/0.37, /*lo=*/-11.0);
    std::vector<double> m(n);
    Active().density_masses(input.data(), n, /*lo=*/-11.0, /*dx=*/0.043,
                            /*t_max=*/52.0, /*scale=*/0.159, m.data());
    rotated.push_back(std::move(data));
    masses.push_back(std::move(m));
  }
  for (size_t k = 1; k < rotated.size(); ++k) {
    ExpectComplexEq(rotated[0], rotated[k], "phase_rotate");
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(masses[0][i], masses[k][i]) << "density_masses[" << i << "]";
    }
  }
}

// Log<B> is ~1 ulp on the Box-Muller domain [2^-53, 1]. The scalar
// backend is checked here; the AVX2 lanes equal it bitwise (the
// box_muller tier tests in tests/rfid/particle_kernels_test.cc).
TEST(VecMathTest, LogWithinOneUlpOfLibm) {
  EXPECT_EQ(simd::Log<simd::ScalarBackend>(1.0), 0.0);
  EXPECT_FALSE(std::signbit(simd::Log<simd::ScalarBackend>(1.0)));
  std::vector<double> xs = {0x1.0p-53, 0x1.0p-52, 0.5, 0.25,
                            std::sqrt(0.5), std::nextafter(std::sqrt(0.5), 0.0),
                            std::nextafter(1.0, 0.0), 0.75, 1.0};
  common::Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform over [2^-53, 1), plus uniforms as Rng::Uniform draws them.
    xs.push_back(std::exp2(-53.0 * rng.Uniform()));
    const double u = rng.Uniform();
    if (u > 0.0) xs.push_back(u);
  }
  for (int k = -53; k <= 0; ++k) {
    const double p = std::ldexp(1.0, k);
    xs.push_back(p);
    if (k < 0) xs.push_back(std::nextafter(p, 1.0));
    xs.push_back(std::nextafter(p, 0.0));
  }
  for (const double x : xs) {
    if (!(x >= 0x1.0p-53 && x <= 1.0)) continue;
    const double want = std::log(x);
    const double got = simd::Log<simd::ScalarBackend>(x);
    const double ulp = std::nextafter(std::fabs(want), HUGE_VAL) -
                       std::fabs(want);
    ASSERT_LE(std::fabs(got - want), ulp) << "x = " << x;
  }
}

TEST(SimdDispatchTest, InversionEndToEndBitwiseAcrossTiers) {
  const auto owned = AllDistributions();
  std::vector<const Distribution*> dists;
  for (const auto& d : owned) dists.push_back(d.get());
  CfInversionOptions opts;
  opts.grid_points = 512;
  double mean = 0.0, var = 0.0;
  for (const Distribution* d : dists) {
    mean += d->Mean();
    var += d->Variance();
  }
  opts.mean = mean;
  opts.stddev = std::sqrt(var);
  std::vector<Histogram> per_tier;
  for (const Tier tier : AvailableTiers()) {
    ScopedForceTier force(tier);
    CfInversionWorkspace ws;
    auto h = InvertSumCfToDensity(dists, opts, &ws);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    per_tier.push_back(h.MoveValueUnsafe());
  }
  for (size_t k = 1; k < per_tier.size(); ++k) {
    ASSERT_EQ(per_tier[0].num_bins(), per_tier[k].num_bins());
    for (size_t b = 0; b < per_tier[0].num_bins(); ++b) {
      ASSERT_EQ(per_tier[0].BinMass(b), per_tier[k].BinMass(b)) << "bin " << b;
    }
  }
}

// ---- CfGridCache ---------------------------------------------------------

TEST(CfGridCacheTest, RepeatedSignaturesHitAndStayBitwise) {
  const Gaussian a(1.0, 2.0), b(1.0, 2.0), c(-3.0, 0.5);
  const std::vector<const Distribution*> dists = {&a, &b, &c};
  const Probe t = ProbeGrid(129);

  std::vector<std::complex<double>> plain(t.n), scratch;
  ProductCfGrid(dists, t.dt, t.j_begin, t.n, plain.data(), &scratch);

  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> cached(t.n);
  ProductCfGrid(dists, t.dt, t.j_begin, t.n, cached.data(), &scratch, &cache);
  // First window: a and b share one signature -> one miss serves both.
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 1u);
  ExpectComplexEq(plain, cached, "cache first pass");

  ProductCfGrid(dists, t.dt, t.j_begin, t.n, cached.data(), &scratch, &cache);
  // Second window over the same parameters: all hits, no new misses.
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 4u);
  ExpectComplexEq(plain, cached, "cache second pass");
}

TEST(CfGridCacheTest, DisabledCacheCountsNothing) {
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&g, &g};
  const Probe t = ProbeGrid(65);
  CfGridCache cache;  // enabled defaults to false
  std::vector<std::complex<double>> out(t.n), scratch;
  ProductCfGrid(dists, t.dt, t.j_begin, t.n, out.data(), &scratch, &cache);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

TEST(CfGridCacheTest, UncacheableDistributionFallsThrough) {
  // Histogram has no parameter signature (AppendCacheKey -> false): it is
  // evaluated directly every time and never stored or counted.
  const Histogram h =
      Histogram::FromMasses(0.0, 1.0, {1.0, 2.0, 1.0}).MoveValueUnsafe();
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&h, &g};
  const Probe t = ProbeGrid(65);

  std::vector<std::complex<double>> plain(t.n), scratch;
  ProductCfGrid(dists, t.dt, t.j_begin, t.n, plain.data(), &scratch);

  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> cached(t.n);
  for (int pass = 0; pass < 2; ++pass) {
    ProductCfGrid(dists, t.dt, t.j_begin, t.n, cached.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.misses, 1u);  // the gaussian only
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries.size(), 1u);
  ExpectComplexEq(plain, cached, "uncacheable mix");
}

TEST(CfGridCacheTest, LruEvictionBoundsEntries) {
  std::vector<std::unique_ptr<Gaussian>> owned;
  for (size_t i = 0; i < CfGridCache::kMaxEntries + 16; ++i) {
    owned.push_back(
        std::make_unique<Gaussian>(static_cast<double>(i), 1.0 + 0.01 * i));
  }
  const Probe t = ProbeGrid(65);
  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> out(t.n), scratch;
  for (const auto& g : owned) {
    const std::vector<const Distribution*> one = {g.get()};
    ProductCfGrid(one, t.dt, t.j_begin, t.n, out.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.entries.size(), CfGridCache::kMaxEntries);
  EXPECT_EQ(cache.misses, owned.size());
  EXPECT_EQ(cache.hits, 0u);
  // The most recent signature survived the eviction churn.
  const std::vector<const Distribution*> last = {owned.back().get()};
  ProductCfGrid(last, t.dt, t.j_begin, t.n, out.data(), &scratch, &cache);
  EXPECT_EQ(cache.hits, 1u);
}

TEST(CfGridCacheTest, OversizedGridsAreNotStored) {
  const Gaussian g(0.0, 1.0);
  const std::vector<const Distribution*> dists = {&g};
  const Probe t = ProbeGrid(CfGridCache::kMaxGridPoints + 1);
  CfGridCache cache;
  cache.enabled = true;
  std::vector<std::complex<double>> out(t.n), scratch;
  for (int pass = 0; pass < 2; ++pass) {
    ProductCfGrid(dists, t.dt, t.j_begin, t.n, out.data(), &scratch, &cache);
  }
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

}  // namespace
}  // namespace stats
}  // namespace usp
