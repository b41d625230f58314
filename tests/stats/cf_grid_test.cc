// The grid kernels (Distribution::CfGrid / CdfGrid, ProductCfGrid,
// InvertSumCfToDensity) against their per-point / closure counterparts.
// Uniform, exponential and gamma CF grids and every CDF grid evaluate the
// direct form at each point and must match bitwise. Gaussian and mixture
// CF grids run the anchored recurrence (stats/simd/kernels.h) and must
// match to its accuracy bound: 1e-12 relative wherever |Cf| > 1e-300
// (cf_lattice_test.cc covers that bound in depth).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/characteristic_function.h"
#include "stats/exponential.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/uniform.h"

namespace usp {
namespace stats {
namespace {

// The lattice t_j = j * 0.37 over [-50.3, 50.3], 0 included.
constexpr double kProbeDt = 0.37;
constexpr int64_t kProbeBegin = -136;
constexpr size_t kProbeN = 273;

double ProbeT(size_t i) {
  return LatticeFrequency(kProbeBegin + static_cast<int64_t>(i), kProbeDt);
}

// Gaussian-family CF grids are not bitwise the point form.
bool RunsRecurrence(const Distribution& d) {
  return d.type() == DistType::kGaussian ||
         d.type() == DistType::kGaussianMixture;
}

void ExpectCfNear(std::complex<double> got, std::complex<double> want,
                  const std::string& what) {
  if (std::abs(want) > 1e-300) {
    EXPECT_LE(std::abs(got - want) / std::abs(want), 1e-12) << what;
  } else {
    EXPECT_LE(std::abs(got), 1e-290) << what;
  }
}

// The families whose CF grids evaluate the direct form per point.
std::vector<std::unique_ptr<Distribution>> DirectDistributions() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Uniform>(-2.0, 3.0));
  dists.push_back(std::make_unique<Exponential>(0.8));
  dists.push_back(std::make_unique<GammaDist>(2.5, 1.3));
  return dists;
}

std::vector<std::unique_ptr<Distribution>> AllDistributions() {
  std::vector<std::unique_ptr<Distribution>> dists;
  dists.push_back(std::make_unique<Gaussian>(1.5, 0.7));
  dists.push_back(std::make_unique<GaussianMixture>(
      GaussianMixture::Make({{0.4, -1.0, 0.5}, {0.6, 2.0, 1.2}})
          .MoveValueUnsafe()));
  for (auto& d : DirectDistributions()) dists.push_back(std::move(d));
  return dists;
}

TEST(CfGridTest, MatchesScalarCf) {
  for (const auto& d : AllDistributions()) {
    std::vector<std::complex<double>> grid(kProbeN);
    d->CfGrid(kProbeDt, kProbeBegin, kProbeN, grid.data());
    for (size_t i = 0; i < kProbeN; ++i) {
      const std::complex<double> scalar = d->Cf(ProbeT(i));
      const std::string what =
          d->ToString() + " at t=" + std::to_string(ProbeT(i));
      if (RunsRecurrence(*d)) {
        ExpectCfNear(grid[i], scalar, what);
      } else {
        EXPECT_EQ(grid[i].real(), scalar.real()) << what;
        EXPECT_EQ(grid[i].imag(), scalar.imag()) << what;
      }
    }
  }
}

TEST(CfGridTest, CdfGridMatchesScalarCdfBitwise) {
  std::vector<double> x;
  for (double v = -8.0; v <= 8.0; v += 0.11) x.push_back(v);
  for (const auto& d : AllDistributions()) {
    std::vector<double> grid(x.size());
    d->CdfGrid(x.data(), x.size(), grid.data());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(grid[i], d->Cdf(x[i])) << d->ToString() << " at x=" << x[i];
    }
  }
}

// ProductCfGrid against the ProductCf closure on the same lattice:
// bitwise when every factor evaluates the direct form, within the
// recurrence bound once Gaussian-family factors are in the product.
void CheckProductAgainstClosure(
    const std::vector<std::unique_ptr<Distribution>>& owned, bool bitwise) {
  std::vector<const Distribution*> dists;
  for (const auto& d : owned) dists.push_back(d.get());
  // Repeat the set so the underflow pinning path engages at large |t|.
  std::vector<const Distribution*> many;
  for (int rep = 0; rep < 40; ++rep) {
    many.insert(many.end(), dists.begin(), dists.end());
  }
  const CharFn closure = ProductCf(many);
  std::vector<std::complex<double>> grid(kProbeN);
  std::vector<std::complex<double>> scratch;
  ProductCfGrid(many, kProbeDt, kProbeBegin, kProbeN, grid.data(), &scratch);
  for (size_t i = 0; i < kProbeN; ++i) {
    const std::complex<double> c = closure(ProbeT(i));
    const std::string what = "t=" + std::to_string(ProbeT(i));
    if (bitwise) {
      EXPECT_EQ(grid[i].real(), c.real()) << what;
      EXPECT_EQ(grid[i].imag(), c.imag()) << what;
    } else if (c == std::complex<double>(0.0, 0.0)) {
      // Pinned to zero by the closure: the grid product is pinned too, or
      // within a recurrence rounding of the 1e-300 pin threshold.
      EXPECT_LE(std::abs(grid[i]), 1e-149) << what;
    } else {
      // 200 factors, each within 1e-12 relative: the product within 1e-10.
      EXPECT_LE(std::abs(grid[i] - c) / std::abs(c), 1e-10) << what;
    }
  }
}

TEST(CfGridTest, ProductCfGridMatchesClosure) {
  CheckProductAgainstClosure(DirectDistributions(), /*bitwise=*/true);
  CheckProductAgainstClosure(AllDistributions(), /*bitwise=*/false);
}

// InvertSumCfToDensity against InvertCfToDensity(ProductCf(dists)):
// bitwise for direct-form families; for the full set (Gaussian and mixture
// included) every density within 1e-9 of the largest.
void CheckInversionAgainstClosure(
    const std::vector<std::unique_ptr<Distribution>>& owned, bool bitwise) {
  std::vector<const Distribution*> dists;
  for (const auto& d : owned) dists.push_back(d.get());
  double mean = 0.0, var = 0.0;
  for (const Distribution* d : dists) {
    mean += d->Mean();
    var += d->Variance();
  }
  CfInversionOptions opts;
  opts.grid_points = 256;
  opts.mean = mean;
  opts.stddev = std::sqrt(var);

  auto closure_hist = InvertCfToDensity(ProductCf(dists), opts);
  ASSERT_TRUE(closure_hist.ok());
  CfInversionWorkspace ws;
  auto grid_hist = InvertSumCfToDensity(dists, opts, &ws);
  ASSERT_TRUE(grid_hist.ok());
  // Run twice through the same workspace: reuse must not perturb results.
  auto grid_hist2 = InvertSumCfToDensity(dists, opts, &ws);
  ASSERT_TRUE(grid_hist2.ok());

  const Histogram& a = closure_hist.value();
  double peak = 0.0;
  for (const double p : a.densities()) peak = std::max(peak, p);
  for (const Histogram* b : {&grid_hist.value(), &grid_hist2.value()}) {
    ASSERT_EQ(a.num_bins(), b->num_bins());
    EXPECT_EQ(a.lo(), b->lo());
    EXPECT_EQ(a.hi(), b->hi());
    for (size_t i = 0; i < a.num_bins(); ++i) {
      if (bitwise) {
        ASSERT_EQ(a.densities()[i], b->densities()[i]) << "bin " << i;
      } else {
        ASSERT_NEAR(a.densities()[i], b->densities()[i], 1e-9 * peak)
            << "bin " << i;
      }
    }
  }
  // The workspace reuse itself stays bitwise.
  for (size_t i = 0; i < a.num_bins(); ++i) {
    ASSERT_EQ(grid_hist.value().densities()[i],
              grid_hist2.value().densities()[i])
        << "bin " << i;
  }
}

TEST(CfGridTest, InvertSumMatchesClosureInversion) {
  CheckInversionAgainstClosure(DirectDistributions(), /*bitwise=*/true);
  CheckInversionAgainstClosure(AllDistributions(), /*bitwise=*/false);
}

TEST(CfGridTest, InvertCfGridRecoversGaussian) {
  // Build the centered frequency grid for a Gaussian by hand and check the
  // assembled-grid inversion entry point recovers its density.
  const Gaussian g(2.0, 1.5);
  const double lo = 2.0 - 12.0, hi = 2.0 + 12.0;
  const size_t n = 1024;
  const double dt = 2.0 * 3.14159265358979323846 / (hi - lo);
  std::vector<std::complex<double>> phi(n);
  g.CfGrid(dt, -static_cast<int64_t>(n / 2), n, phi.data());
  CfInversionWorkspace ws;
  auto hist = InvertCfGridToDensity(phi.data(), n, lo, hi, 512, &ws);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist.value().Mean(), 2.0, 1e-3);
  EXPECT_NEAR(hist.value().Stddev(), 1.5, 1e-3);
  for (double x = -6.0; x <= 10.0; x += 0.5) {
    EXPECT_NEAR(hist.value().Cdf(x), g.Cdf(x), 1e-3) << "x=" << x;
  }
}

TEST(CfGridTest, InvertCfGridRejectsBadArguments) {
  std::vector<std::complex<double>> phi(100, {1.0, 0.0});
  CfInversionWorkspace ws;
  EXPECT_FALSE(InvertCfGridToDensity(phi.data(), 100, 0.0, 1.0, 64, &ws)
                   .ok());  // non-power-of-two n
  phi.resize(128);
  EXPECT_FALSE(InvertCfGridToDensity(phi.data(), 128, 1.0, 1.0, 64, &ws)
                   .ok());  // empty range
}

}  // namespace
}  // namespace stats
}  // namespace usp
