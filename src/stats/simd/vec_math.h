// Lane-exact vector math backends for the SIMD kernel layer.
//
// Every kernel under src/stats/simd/ is written ONCE as a template over a
// backend (ScalarBackend below; Avx2Backend lives in kernels_avx2.cc) whose
// operations are all correctly-rounded IEEE double ops (add/sub/mul/div/
// fma/round) or shared per-lane libm calls. Both backends therefore perform
// the same sequence of correctly-rounded operations on the same values, so
// every dispatch tier produces BITWISE-IDENTICAL results — the contract the
// forced-dispatch tests (tests/stats/simd_dispatch_test.cc) pin down.
//
// That contract dictates two repo-wide rules:
//  * The build compiles with -ffp-contract=off (CMakeLists.txt), so scalar
//    expressions elsewhere cannot be re-fused into fma by the optimiser and
//    drift from the scalar tier of these kernels.
//  * exp, sin/cos and log are implemented HERE as branch-free polynomial
//    kernels over backend ops instead of calling libm per lane — libm
//    makes no cross-call-site reproducibility promise once values are in
//    registers of different widths. (erfc stays a per-lane libm call:
//    both tiers call the same symbol on the same values, which is
//    lane-exact trivially.)
//
// Domain notes: Exp() is exact-zero below -745.2 and overflows to inf
// naturally above ~709.8; SinCos() requires |x| < 2^31 * pi/2 (quadrant
// indices must fit in int32); Log() takes positive normal inputs only
// (the Box-Muller kernel feeds it uniforms in [2^-53, 1)). CF grids call
// Exp/SinCos only where the direct form needs them: at every lattice point
// for uniform, and for Gaussian and mixture grids only at the recurrence
// anchors (one per chain and 128-point block) plus two per-call
// constants, so the arguments are mean * t_j and c * t_j^2 at anchor
// frequencies (phases stay below ~1e8) and non-positive ratio exponents.
// Lattice indices j must stay below 2^53 in magnitude, so j and j * dt
// are formed exactly from an Iota lane. The particle-filter kernels call
// SinCos on 2 pi u in [0, 2 pi) and Exp on the logistic exponents (an
// overflow to inf there yields a 0 term).

#ifndef USP_STATS_SIMD_VEC_MATH_H_
#define USP_STATS_SIMD_VEC_MATH_H_

#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace usp {
namespace stats {
namespace simd {

// ---- shared complex arithmetic --------------------------------------------
// The one canonical complex-multiply form, used by the closure product
// (ProductCf), the grid product (ProductCfGrid), the FFT butterflies, and
// the pane-aggregate pinned accumulation. gcc's inline complex<double>
// multiply lowers to exactly this under -ffp-contract=off, and the AVX2
// movedup/permute/addsub sequence reproduces it lane for lane.
inline std::complex<double> CMul(const std::complex<double>& a,
                                 const std::complex<double>& b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

// |z|^2 evaluated as re*re + im*im (matches std::norm under contract=off).
inline double CNorm(const std::complex<double>& z) {
  return z.real() * z.real() + z.imag() * z.imag();
}

// Underflow pin threshold shared by every product-of-CFs accumulation.
inline constexpr double kCfNormPin = 1e-300;

// ---- overlap assertion helper ---------------------------------------------
inline bool NoOverlap(const void* a, std::size_t a_bytes, const void* b,
                      std::size_t b_bytes) {
  const char* pa = static_cast<const char*>(a);
  const char* pb = static_cast<const char*>(b);
  return pa + a_bytes <= pb || pb + b_bytes <= pa;
}

// ---- scalar backend -------------------------------------------------------
struct ScalarBackend {
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kCplxLanes = 1;
  using V = double;
  using M = bool;
  using CV = std::complex<double>;

  static V Set(double x) { return x; }
  static V Load(const double* p) { return *p; }
  static void Store(double* p, V v) { *p = v; }
  static V Iota(double base) { return base; }
  static V Reverse(V a) { return a; }  // lane order reversed
  static V Add(V a, V b) { return a + b; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  static V Div(V a, V b) { return a / b; }
  static V Sqrt(V a) { return std::sqrt(a); }
  static V Neg(V a) { return -a; }
  static V Fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V Round(V a) { return std::nearbyint(a); }  // nearest-even
  static M Eq(V a, V b) { return a == b; }
  static M Lt(V a, V b) { return a < b; }
  static M MaskAnd(M a, M b) { return a && b; }
  static V Select(M m, V a, V b) { return m ? a : b; }
  static V NegateIf(V v, M m) { return m ? -v : v; }
  static V Erfc(V a) { return std::erfc(a); }

  // 2^k for integral-valued k in [-1076, 1024] (biased-exponent bit trick;
  // callers split larger scalings into two steps).
  static V Exp2Int(V k) {
    const int64_t ki = static_cast<int64_t>(k);
    const uint64_t bits = static_cast<uint64_t>(ki + 1023) << 52;
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }

  // Splits a positive normal x into x = m * 2^k with m in [1, 2) and k an
  // integral double, by the bits of x.
  static void SplitExponent(V x, V* m, V* k) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    *k = static_cast<double>(static_cast<int64_t>(bits >> 52) - 1023);
    bits = (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL;
    std::memcpy(m, &bits, sizeof(bits));
  }

  // Quadrant masks for sin/cos reconstruction from j = round(x * 2/pi).
  static void Quadrant(V j, M* swap, M* neg_sin, M* neg_cos) {
    const int32_t q = static_cast<int32_t>(static_cast<int64_t>(j));
    *swap = (q & 1) != 0;
    *neg_sin = (q & 2) != 0;
    *neg_cos = ((q + 1) & 2) != 0;
  }

  static CV CLoad(const std::complex<double>* p) { return *p; }
  static void CStore(std::complex<double>* p, CV v) { *p = v; }
  static CV CAdd(CV a, CV b) {
    return {a.real() + b.real(), a.imag() + b.imag()};
  }
  static CV CSub(CV a, CV b) {
    return {a.real() - b.real(), a.imag() - b.imag()};
  }
  static CV CMulV(CV a, CV b) { return CMul(a, b); }
  static CV CDivReal(CV a, double d) { return {a.real() / d, a.imag() / d}; }

  // Interleave kLanes (re, im) pairs into complex storage, and back.
  static void StoreComplex(std::complex<double>* p, V re, V im) {
    *p = {re, im};
  }
  static void AccumComplex(std::complex<double>* p, V re, V im) {
    *p = {p->real() + re, p->imag() + im};
  }
  static void LoadComplexSplit(const std::complex<double>* p, V* re, V* im) {
    *re = p->real();
    *im = p->imag();
  }
  // p[0..kLanes) *= (cos_i, sin_i)
  static void RotateComplex(std::complex<double>* p, V cosv, V sinv) {
    *p = CMul(*p, {cosv, sinv});
  }

  // One product-accumulation step with the ProductCf underflow pin:
  // zeroed entries stay zero; products whose norm underflows kCfNormPin
  // are pinned to exactly +0.
  static void ProductPinChunk(const std::complex<double>* cf,
                              std::complex<double>* out) {
    const CV o = *out;
    if (o.real() == 0.0 && o.imag() == 0.0) return;
    const CV p = CMul(o, *cf);
    *out = (CNorm(p) < kCfNormPin) ? CV(0.0, 0.0) : p;
  }
};

// ---- shared transcendental kernels ----------------------------------------

namespace detail {
inline constexpr double kLog2E = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 2/pi and the fdlibm two-part pi/2 split used for fma Cody-Waite reduction.
inline constexpr double kTwoOverPi = 6.36619772367581382433e-01;
inline constexpr double kPio2Hi = 1.57079632673412561417e+00;
inline constexpr double kPio2Lo = 6.07710050650619224932e-11;
inline constexpr double kSqrt2 = 1.41421356237309504880;
}  // namespace detail

// exp(x): k = round(x*log2e); r = x - k*ln2 (two fma steps); degree-13
// Taylor polynomial on |r| <= ln2/2; two-step 2^k scaling so subnormal
// results round identically in every tier. ~1 ulp.
template <class B>
typename B::V Exp(typename B::V x) {
  using V = typename B::V;
  V k = B::Round(B::Mul(x, B::Set(detail::kLog2E)));
  k = B::Select(B::Lt(k, B::Set(-1076.0)), B::Set(-1076.0), k);
  k = B::Select(B::Lt(B::Set(1024.0), k), B::Set(1024.0), k);
  V r = B::Fma(k, B::Set(-detail::kLn2Hi), x);
  r = B::Fma(k, B::Set(-detail::kLn2Lo), r);
  // Horner over 1/13! .. 1/2!; exp(r) = 1 + r + r^2 * q.
  V q = B::Set(1.6059043836821613e-10);
  q = B::Fma(q, r, B::Set(2.0876756987868099e-09));
  q = B::Fma(q, r, B::Set(2.5052108385441719e-08));
  q = B::Fma(q, r, B::Set(2.7557319223985888e-07));
  q = B::Fma(q, r, B::Set(2.7557319223985893e-06));
  q = B::Fma(q, r, B::Set(2.4801587301587302e-05));
  q = B::Fma(q, r, B::Set(1.9841269841269841e-04));
  q = B::Fma(q, r, B::Set(1.3888888888888889e-03));
  q = B::Fma(q, r, B::Set(8.3333333333333332e-03));
  q = B::Fma(q, r, B::Set(4.1666666666666664e-02));
  q = B::Fma(q, r, B::Set(1.6666666666666666e-01));
  q = B::Fma(q, r, B::Set(0.5));
  V result = B::Fma(B::Mul(r, r), q, B::Add(r, B::Set(1.0)));
  const typename B::V k1 = B::Round(B::Mul(k, B::Set(0.5)));
  const typename B::V k2 = B::Sub(k, k1);
  result = B::Mul(B::Mul(result, B::Exp2Int(k1)), B::Exp2Int(k2));
  return B::Select(B::Lt(x, B::Set(-745.2)), B::Set(0.0), result);
}

// sin(x) and cos(x) together: j = round(x*2/pi), fma Cody-Waite reduction
// to |r| <= pi/4, fdlibm kernel polynomials, branch-free quadrant
// reconstruction. ~2 ulp; requires |x| < 2^31 * pi/2.
template <class B>
void SinCos(typename B::V x, typename B::V* sin_out, typename B::V* cos_out) {
  using V = typename B::V;
  using M = typename B::M;
  const V j = B::Round(B::Mul(x, B::Set(detail::kTwoOverPi)));
  V r = B::Fma(j, B::Set(-detail::kPio2Hi), x);
  r = B::Fma(j, B::Set(-detail::kPio2Lo), r);
  const V z = B::Mul(r, r);
  // sin(r) = r + r^3 * S(z)
  V ps = B::Set(1.58969099521155010221e-10);
  ps = B::Fma(ps, z, B::Set(-2.50507602534068634195e-08));
  ps = B::Fma(ps, z, B::Set(2.75573137070700676789e-06));
  ps = B::Fma(ps, z, B::Set(-1.98412698298579493134e-04));
  ps = B::Fma(ps, z, B::Set(8.33333333332248946124e-03));
  ps = B::Fma(ps, z, B::Set(-1.66666666666666324348e-01));
  const V s = B::Fma(B::Mul(z, r), ps, r);
  // cos(r) = 1 - z/2 + z^2 * C(z)
  V pc = B::Set(-1.13596475577881948265e-11);
  pc = B::Fma(pc, z, B::Set(2.08757232129817482790e-09));
  pc = B::Fma(pc, z, B::Set(-2.75573143513906633035e-07));
  pc = B::Fma(pc, z, B::Set(2.48015872894767294178e-05));
  pc = B::Fma(pc, z, B::Set(-1.38888888888741095749e-03));
  pc = B::Fma(pc, z, B::Set(4.16666666666666019037e-02));
  const V c =
      B::Fma(B::Mul(z, z), pc, B::Sub(B::Set(1.0), B::Mul(B::Set(0.5), z)));
  M swap, neg_sin, neg_cos;
  B::Quadrant(j, &swap, &neg_sin, &neg_cos);
  *sin_out = B::NegateIf(B::Select(swap, c, s), neg_sin);
  *cos_out = B::NegateIf(B::Select(swap, s, c), neg_cos);
}

// log(x) for positive normal x, the fdlibm e_log.c algorithm without its
// special-case branches: x = m * 2^k with m in [sqrt2/2, sqrt2], f = m - 1
// (exact), s = f / (2 + f), and log(1 + f) = f - (f^2/2 - s (f^2/2 + R(s^2)))
// with fdlibm's degree-14 minimax R; k * ln2 is added as two parts. Plain
// multiplies and adds in fdlibm's order, ~1 ulp. Zero, negative,
// subnormal, infinite and NaN inputs are outside the domain.
template <class B>
typename B::V Log(typename B::V x) {
  using V = typename B::V;
  V m, k;
  B::SplitExponent(x, &m, &k);
  const typename B::M high = B::Lt(B::Set(detail::kSqrt2), m);
  m = B::Select(high, B::Mul(m, B::Set(0.5)), m);
  k = B::Select(high, B::Add(k, B::Set(1.0)), k);
  const V f = B::Sub(m, B::Set(1.0));
  const V s = B::Div(f, B::Add(B::Set(2.0), f));
  const V z = B::Mul(s, s);
  const V w = B::Mul(z, z);
  // t1 = w (Lg2 + w (Lg4 + w Lg6)), t2 = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7))).
  V t1 = B::Mul(w, B::Set(1.531383769920937332e-01));
  t1 = B::Mul(w, B::Add(B::Set(2.222219843214978396e-01), t1));
  t1 = B::Mul(w, B::Add(B::Set(3.999999999940941908e-01), t1));
  V t2 = B::Mul(w, B::Set(1.479819860511658591e-01));
  t2 = B::Mul(w, B::Add(B::Set(1.818357216161805012e-01), t2));
  t2 = B::Mul(w, B::Add(B::Set(2.857142874366239149e-01), t2));
  t2 = B::Mul(z, B::Add(B::Set(6.666666666666735130e-01), t2));
  const V r = B::Add(t2, t1);
  const V hfsq = B::Mul(B::Mul(B::Set(0.5), f), f);
  const V tail = B::Add(B::Mul(s, B::Add(hfsq, r)),
                        B::Mul(k, B::Set(detail::kLn2Lo)));
  return B::Sub(B::Mul(k, B::Set(detail::kLn2Hi)),
                B::Sub(B::Sub(hfsq, tail), f));
}

}  // namespace simd
}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_SIMD_VEC_MATH_H_
