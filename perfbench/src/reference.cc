#include "reference.h"

#include <algorithm>
#include <cmath>
#include <complex>

namespace perfbench {
namespace ref {

double NormalSf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

namespace {

// P(a, x) by its power series; converges fast for x < a + 1.
double GammaPSeries(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  for (int n = 1; n < 100000; ++n) {
    term *= x / (a + n);
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Q(a, x) by the modified Lentz continued fraction; for x >= a + 1.
double GammaQFraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 100000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double GammaQ(double a, double x) {
  if (x <= 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQFraction(a, x);
}

double MixtureSumSf(const std::vector<const Mixture*>& terms, double t,
                    size_t nodes) {
  double mean = 0.0, var = 0.0, min_var = 0.0;
  for (const Mixture* m : terms) {
    double m1 = 0.0, m2 = 0.0, vmin = INFINITY;
    for (size_t j = 0; j < m->w.size(); ++j) {
      m1 += m->w[j] * m->mu[j];
      m2 += m->w[j] * (m->sd[j] * m->sd[j] + m->mu[j] * m->mu[j]);
      vmin = std::min(vmin, m->sd[j] * m->sd[j]);
    }
    mean += m1;
    var += m2 - m1 * m1;
    min_var += vmin;
  }
  // |phi_S(u)| <= exp(-min_var u^2 / 2): integrate until that is 1e-16.
  const double u_max = std::sqrt(2.0 * 37.0 / min_var);
  // The midpoint rule sees the distribution wrapped with period 2 pi / h;
  // keep the wrap far outside the mass around t.
  const double span = std::fabs(t - mean) + 14.0 * std::sqrt(var);
  const double h = std::min(u_max / static_cast<double>(nodes), M_PI / span);
  const size_t n = static_cast<size_t>(std::ceil(u_max / h));
  double integral = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double u = (static_cast<double>(k) + 0.5) * h;
    std::complex<double> phi(1.0, 0.0);
    for (const Mixture* m : terms) {
      std::complex<double> f(0.0, 0.0);
      for (size_t j = 0; j < m->w.size(); ++j) {
        const double damp = std::exp(-0.5 * m->sd[j] * m->sd[j] * u * u);
        f += m->w[j] * damp * std::polar(1.0, u * m->mu[j]);
      }
      phi *= f;
    }
    integral += (std::polar(1.0, -u * t) * phi).imag() / u;
  }
  return std::clamp(0.5 + integral * h / M_PI, 0.0, 1.0);
}

}  // namespace ref
}  // namespace perfbench
