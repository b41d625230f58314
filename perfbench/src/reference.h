// Reference probabilities computed outside the engine, from the generated
// inputs alone. None of these call library code, so a library change
// cannot move the reference along with the answer it checks.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <vector>

namespace perfbench {
namespace ref {

/// P(Z > z) for a standard normal Z.
double NormalSf(double z);

/// Upper regularized incomplete gamma Q(a, x) = P(G > x), G ~ Gamma(a, 1).
/// Series below a + 1, Lentz continued fraction above.
double GammaQ(double a, double x);

/// One Gaussian-mixture summand: weights sum to 1.
struct Mixture {
  std::vector<double> w, mu, sd;
};

/// P(S > t) for S = sum of independent mixtures, by Gil-Pelaez inversion
///   P(S > t) = 1/2 + (1/pi) int_0^inf Im[e^{-iut} phi_S(u)] / u du
/// on a midpoint rule with `nodes` points up to the frequency where
/// |phi_S| < 1e-16.
double MixtureSumSf(const std::vector<const Mixture*>& terms, double t,
                    size_t nodes);

}  // namespace ref
}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
