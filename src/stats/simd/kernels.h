// Templated kernel bodies for the SIMD dispatch layer.
//
// Each kernel is instantiated once per backend (kernels_scalar.cc,
// kernels_avx2.cc); a per-point kernel's vector main loop hands its
// remainder to the ScalarBackend instantiation, so a tier's tail elements
// are bitwise identical to the pure-scalar tier by construction. (The
// Gaussian lattice recurrence instead fixes its chain layout across tiers
// and writes range edges lane by lane; see GaussianChainsT.)
//
// Aliasing contract (shared by every tier): input and output ranges must
// not overlap unless a kernel is explicitly documented as in-place
// (PhaseRotateT, FftT, and the read-modify-write accumulators, which take
// a single pointer per range). Pointers annotated __restrict are honoured
// as such by the vector loads/stores; the asserts make the contract
// checkable in debug builds.
//
// CF grids live on the frequency lattice t_j = j * dt. Uniform and
// exponential grids evaluate the direct per-lane form at every t_j (gamma
// runs one shared libm loop), so their entries equal the single-point
// CfPoint helpers at the bottom, which the Distribution::Cf overrides
// call, bitwise. Gaussian and mixture grids instead run an anchored
// recurrence (detail::GaussianChainsT) with one exact evaluation per
// chain anchor and no exp or sincos in between: their entries equal Cf(t_j)
// at the anchors and agree with it to ~1e-13 relative elsewhere
// (tests/stats/cf_lattice_test.cc). Every tier still performs the same
// correctly-rounded operations on the same values, so the tiers stay
// bitwise-equal to each other, and each entry is a pure function of the
// parameters, dt and j, whatever range a call covers.

#ifndef USP_STATS_SIMD_KERNELS_H_
#define USP_STATS_SIMD_KERNELS_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "stats/simd/dispatch.h"
#include "stats/simd/vec_math.h"

namespace usp {
namespace stats {
namespace simd {

namespace detail {
inline constexpr double kPi = 3.14159265358979323846;
}  // namespace detail

// ---- CF grids on the frequency lattice ------------------------------------
// Every CF grid kernel evaluates t_j = j * dt for the integers j in
// [j_begin, j_begin + n); j may be negative. Each kernel forms t_j as
// static_cast<double>(j) * dt (an Iota lane times dt), the same value the
// per-point Cf(t_j) receives from LatticeFrequency() in distribution.h.

namespace detail {

// weight * exp(c * t^2) * (cos(mean*t), sin(mean*t)) per lane: the direct
// Gaussian-component form, used by the point helpers and as the exact
// anchor of every recurrence chain below.
template <class B>
void GaussianCfAt(typename B::V vc, typename B::V vmean, typename B::V vw,
                  typename B::V t, typename B::V* re, typename B::V* im) {
  const auto env = B::Mul(vw, Exp<B>(B::Mul(B::Mul(vc, t), t)));
  typename B::V s, co;
  SinCos<B>(B::Mul(vmean, t), &s, &co);
  *re = B::Mul(env, co);
  *im = B::Mul(env, s);
}

// Anchored-recurrence layout of the Gaussian lattice kernels, the same on
// every tier whatever its lane count: each block of kAnchorBlock points
// whose first |j| is a multiple of kAnchorBlock runs kChains interleaved
// chains (chain c holds |j| = block + c, block + c + kChains, ...). With
// S = kChains, CF(t_{m+S}) = CF(t_m) * R_m where
//   R_m = exp(c dt^2 (2Sm + S^2)) * e^{i mean S dt},
//   R_{m+S} = R_m * exp(2 S^2 c dt^2),
// so a chain step is one complex multiply and one real-by-complex
// multiply, no exp or sincos. A chain's anchor (its first point) and its
// first ratio are exact evaluations; the rotation e^{i mean S dt} and the
// real step factor are computed once per call from (c, mean, dt) alone.
// Each value is therefore a pure function of (c, mean, weight, dt, j): a
// grid split into pieces, extended, or cached equals a fresh evaluation.
inline constexpr int64_t kAnchorBlock = 128;
inline constexpr int64_t kChains = 4;
inline constexpr int64_t kChainSteps = kAnchorBlock / kChains;

// Writes (kAccum false) or adds (kAccum true) the chain points |j| = m in
// [m_lo, m_hi) of one half of the lattice: j = m for the t >= 0 half; for
// the t < 0 half (negative true) j = -m and the value is the conjugate,
// since CF(-t) = conj(CF(t)). Chains run outward from t = 0, so an envelope
// that has underflowed only ever continues to 0; a block whose anchors are
// all exactly 0 is left at 0 without running its chains.
template <class B, bool kAccum>
void GaussianChainsT(double c, double mean, double weight, double dt,
                     int64_t m_lo, int64_t m_hi, bool negative,
                     int64_t j_begin, std::complex<double>* __restrict out) {
  using V = typename B::V;
  constexpr int64_t kL = static_cast<int64_t>(B::kLanes);
  static_assert(kChains % kL == 0, "chains must fill whole vectors");
  constexpr int64_t kGroups = kChains / kL;
  // Hoisted per-call constants: scalar evaluations, identical on every tier.
  const double cdt2 = c * dt * dt;
  const V vq = B::Set(
      Exp<ScalarBackend>(cdt2 * static_cast<double>(2 * kChains * kChains)));
  double rot_s, rot_c;
  SinCos<ScalarBackend>(mean * (dt * static_cast<double>(kChains)), &rot_s,
                        &rot_c);
  const V vrot_s = B::Set(rot_s);
  const V vrot_c = B::Set(rot_c);
  const V vc = B::Set(c);
  const V vmean = B::Set(mean);
  const V vw = B::Set(weight);
  const V vdt = B::Set(dt);
  const V vcdt2 = B::Set(cdt2);
  const V vtwo_s = B::Set(static_cast<double>(2 * kChains));
  const V vs2 = B::Set(static_cast<double>(kChains * kChains));

  // Output index of lattice point |j| = m in this half.
  const auto index = [&](int64_t m) {
    return static_cast<std::size_t>((negative ? -m : m) - j_begin);
  };
  // One vector of kL consecutive points m_first .. m_first + kL - 1.
  const auto emit = [&](int64_t m_first, V re, V im) {
    if (m_first >= m_lo && m_first + kL <= m_hi) {
      if (negative) {
        // Descending j: lanes reversed into ascending output order.
        std::complex<double>* p = out + index(m_first + kL - 1);
        const V rre = B::Reverse(re);
        const V rim = B::Neg(B::Reverse(im));
        if constexpr (kAccum) {
          B::AccumComplex(p, rre, rim);
        } else {
          B::StoreComplex(p, rre, rim);
        }
      } else {
        std::complex<double>* p = out + index(m_first);
        if constexpr (kAccum) {
          B::AccumComplex(p, re, im);
        } else {
          B::StoreComplex(p, re, im);
        }
      }
      return;
    }
    // Range edge: per lane, with the same adds the vector forms perform.
    double lre[kL], lim[kL];
    B::Store(lre, re);
    B::Store(lim, im);
    for (int64_t l = 0; l < kL; ++l) {
      const int64_t m = m_first + l;
      if (m < m_lo || m >= m_hi) continue;
      const double vim_l = negative ? -lim[l] : lim[l];
      std::complex<double>& o = out[index(m)];
      if constexpr (kAccum) {
        o = {o.real() + lre[l], o.imag() + vim_l};
      } else {
        o = {lre[l], vim_l};
      }
    }
  };

  for (int64_t mb = m_lo / kAnchorBlock * kAnchorBlock; mb < m_hi;
       mb += kAnchorBlock) {
    const int64_t steps =
        std::min(kChainSteps, (m_hi - mb + kChains - 1) / kChains);
    V vre[kGroups], vim[kGroups];
    V rre[kGroups] = {}, rim[kGroups] = {};  // set only when steps > 1
    bool all_zero = true;
    for (int64_t g = 0; g < kGroups; ++g) {
      const V m0 = B::Iota(static_cast<double>(mb + g * kL));
      GaussianCfAt<B>(vc, vmean, vw, B::Mul(m0, vdt), &vre[g], &vim[g]);
      // A block that emits only its anchors (the lone j = 512 point of a
      // 513-point pane grid) never steps, so it needs no ratio.
      if (steps > 1) {
        const V renv =
            Exp<B>(B::Mul(vcdt2, B::Add(B::Mul(vtwo_s, m0), vs2)));
        rre[g] = B::Mul(renv, vrot_c);
        rim[g] = B::Mul(renv, vrot_s);
      }
      double are[kL], aim[kL];
      B::Store(are, vre[g]);
      B::Store(aim, vim[g]);
      for (int64_t l = 0; l < kL; ++l) {
        all_zero = all_zero && are[l] == 0.0 && aim[l] == 0.0;
      }
    }
    if (all_zero) {
      if constexpr (!kAccum) {
        const int64_t end = std::min(mb + kAnchorBlock, m_hi);
        for (int64_t m = std::max(mb, m_lo); m < end; ++m) {
          out[index(m)] = {0.0, 0.0};
        }
      }
      continue;
    }
    for (int64_t s = 0;; ++s) {
      for (int64_t g = 0; g < kGroups; ++g) {
        emit(mb + s * kChains + g * kL, vre[g], vim[g]);
      }
      if (s + 1 == steps) break;
      for (int64_t g = 0; g < kGroups; ++g) {
        // CMul(v, R) in the canonical form, then R *= q.
        const V nre = B::Sub(B::Mul(vre[g], rre[g]), B::Mul(vim[g], rim[g]));
        const V nim = B::Add(B::Mul(vre[g], rim[g]), B::Mul(vim[g], rre[g]));
        vre[g] = nre;
        vim[g] = nim;
        rre[g] = B::Mul(rre[g], vq);
        rim[g] = B::Mul(rim[g], vq);
      }
    }
  }
}

// Splits the lattice range into its t >= 0 and t < 0 halves.
template <class B, bool kAccum>
void GaussianLatticeT(double c, double mean, double weight, double dt,
                      int64_t j_begin, std::size_t n,
                      std::complex<double>* __restrict out) {
  if (n == 0) return;
  const int64_t j_end = j_begin + static_cast<int64_t>(n);
  if (j_end > 0) {
    GaussianChainsT<B, kAccum>(c, mean, weight, dt,
                               std::max<int64_t>(j_begin, 0), j_end,
                               /*negative=*/false, j_begin, out);
  }
  if (j_begin < 0) {
    GaussianChainsT<B, kAccum>(c, mean, weight, dt,
                               1 - std::min<int64_t>(j_end, 0), 1 - j_begin,
                               /*negative=*/true, j_begin, out);
  }
}

// Uniform[lo, hi] per lane: (e^{it*hi} - e^{it*lo}) / (i * t * width), with
// t == 0 lanes selected to exactly (1, 0). Division by the purely
// imaginary denominator is expanded to (num_im/den, -num_re/den); zero
// lanes divide by a selected 1.0 so no lane ever divides by zero.
template <class B>
void UniformCfAt(double lo, double hi, typename B::V t, typename B::V* re,
                 typename B::V* im) {
  const auto one = B::Set(1.0);
  const auto zero = B::Set(0.0);
  const auto is_zero = B::Eq(t, zero);
  typename B::V sh, ch, sl, cl;
  SinCos<B>(B::Mul(t, B::Set(hi)), &sh, &ch);
  SinCos<B>(B::Mul(t, B::Set(lo)), &sl, &cl);
  const auto num_re = B::Sub(ch, cl);
  const auto num_im = B::Sub(sh, sl);
  const auto den = B::Select(is_zero, one, B::Mul(t, B::Set(hi - lo)));
  *re = B::Select(is_zero, one, B::Div(num_im, den));
  *im = B::Select(is_zero, zero, B::Neg(B::Div(num_re, den)));
}

// Exponential(rate) per lane: rate / (rate - i t) expanded against the
// conjugate: (rate^2 / den, rate*t / den), den = rate^2 + t^2.
template <class B>
void ExponentialCfAt(double rate, typename B::V t, typename B::V* re,
                     typename B::V* im) {
  const auto vrate2 = B::Set(rate * rate);
  const auto den = B::Add(vrate2, B::Mul(t, t));
  *re = B::Div(vrate2, den);
  *im = B::Div(B::Mul(B::Set(rate), t), den);
}

}  // namespace detail

// out[i] = exp(c * t_j^2) * e^{i mean t_j}, c = -sd^2/2, j = j_begin + i,
// by the anchored recurrence (detail::GaussianChainsT).
template <class B>
void GaussianCfGridT(double c, double mean, double dt, int64_t j_begin,
                     std::size_t n, std::complex<double>* __restrict out) {
  detail::GaussianLatticeT<B, false>(c, mean, 1.0, dt, j_begin, n, out);
}

// out[i] += weight * exp(c * t_j^2) * e^{i mean t_j}; one call per mixture
// component, in component order.
template <class B>
void GmmCfGridAccumT(double c, double mean, double weight, double dt,
                     int64_t j_begin, std::size_t n,
                     std::complex<double>* __restrict out) {
  detail::GaussianLatticeT<B, true>(c, mean, weight, dt, j_begin, n, out);
}

// Uniform[lo, hi], evaluated directly at every lattice point.
template <class B>
void UniformCfGridT(double lo, double hi, double dt, int64_t j_begin,
                    std::size_t n, std::complex<double>* __restrict out) {
  const auto vdt = B::Set(dt);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto t = B::Mul(
        B::Iota(static_cast<double>(j_begin + static_cast<int64_t>(i))), vdt);
    typename B::V re, im;
    detail::UniformCfAt<B>(lo, hi, t, &re, &im);
    B::StoreComplex(out + i, re, im);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      UniformCfGridT<ScalarBackend>(lo, hi, dt,
                                    j_begin + static_cast<int64_t>(i), n - i,
                                    out + i);
    }
  }
}

// Exponential(rate), evaluated directly at every lattice point.
template <class B>
void ExponentialCfGridT(double rate, double dt, int64_t j_begin,
                        std::size_t n, std::complex<double>* __restrict out) {
  const auto vdt = B::Set(dt);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto t = B::Mul(
        B::Iota(static_cast<double>(j_begin + static_cast<int64_t>(i))), vdt);
    typename B::V re, im;
    detail::ExponentialCfAt<B>(rate, t, &re, &im);
    B::StoreComplex(out + i, re, im);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      ExponentialCfGridT<ScalarBackend>(
          rate, dt, j_begin + static_cast<int64_t>(i), n - i, out + i);
    }
  }
}

// Gamma(shape, scale): (1 - i*scale*t)^{-shape} has no cheap lane-exact
// vector form (complex pow), so every tier runs this same per-lane libm
// loop — registered in both dispatch tables on purpose.
inline void GammaCfGridScalar(double shape, double scale, double dt,
                              int64_t j_begin, std::size_t n,
                              std::complex<double>* __restrict out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        static_cast<double>(j_begin + static_cast<int64_t>(i)) * dt;
    const std::complex<double> base(1.0, -scale * t);
    out[i] = std::pow(base, -shape);
  }
}

// out[i] = 0.5 * erfc(-z/sqrt2), z = (x[i]-mean)/sd: the StdNormalCdf
// form. erfc is a shared per-lane libm call, so this is lane-exact too.
template <class B>
void GaussianCdfGridT(double mean, double sd, const double* __restrict x,
                      std::size_t n, double* __restrict out) {
  assert(NoOverlap(x, n * sizeof(*x), out, n * sizeof(*out)));
  const auto vm = B::Set(mean);
  const auto vsd = B::Set(sd);
  const auto vsqrt2 = B::Set(detail::kSqrt2);
  const auto vhalf = B::Set(0.5);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto z = B::Div(B::Sub(B::Load(x + i), vm), vsd);
    const auto e = B::Erfc(B::Div(B::Neg(z), vsqrt2));
    B::Store(out + i, B::Mul(vhalf, e));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) GaussianCdfGridT<ScalarBackend>(mean, sd, x + i, n - i, out + i);
  }
}

// out[i] += weight * StdNormalCdf((x[i]-mean)/sd); one call per component.
template <class B>
void GmmCdfGridAccumT(double mean, double sd, double weight,
                      const double* __restrict x, std::size_t n,
                      double* __restrict out) {
  assert(NoOverlap(x, n * sizeof(*x), out, n * sizeof(*out)));
  const auto vm = B::Set(mean);
  const auto vsd = B::Set(sd);
  const auto vw = B::Set(weight);
  const auto vsqrt2 = B::Set(detail::kSqrt2);
  const auto vhalf = B::Set(0.5);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto z = B::Div(B::Sub(B::Load(x + i), vm), vsd);
    const auto cdf = B::Mul(vhalf, B::Erfc(B::Div(B::Neg(z), vsqrt2)));
    B::Store(out + i, B::Add(B::Load(out + i), B::Mul(vw, cdf)));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      GmmCdfGridAccumT<ScalarBackend>(mean, sd, weight, x + i, n - i, out + i);
    }
  }
}

// out[i] *= cf[i] with the ProductCf underflow pin: entries already at
// zero stay zero (their sign bits preserved), products whose norm drops
// below kCfNormPin become exactly +0.
template <class B>
void ProductCfAccumT(const std::complex<double>* __restrict cf, std::size_t n,
                     std::complex<double>* __restrict out) {
  assert(NoOverlap(cf, n * sizeof(*cf), out, n * sizeof(*out)));
  std::size_t i = 0;
  for (; i + B::kCplxLanes <= n; i += B::kCplxLanes) {
    B::ProductPinChunk(cf + i, out + i);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) ProductCfAccumT<ScalarBackend>(cf + i, n - i, out + i);
  }
}

// In-place iterative radix-2 FFT, bitwise-identical to common::Fft: the
// per-stage twiddle table is filled by the same sequential w *= wlen
// recurrence the scalar form uses (so every tier multiplies by identical
// factors), and the butterflies are lane adds/subs plus CMul. `twiddle`
// is caller-provided scratch (the dispatch wrapper owns a thread_local).
template <class B>
void FftT(std::complex<double>* data, std::size_t n, bool inverse,
          std::vector<std::complex<double>>* twiddle) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  if (twiddle->size() < n / 2) twiddle->resize(n / 2);
  std::complex<double>* tw = twiddle->data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang =
        2.0 * detail::kPi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    tw[0] = {1.0, 0.0};
    for (std::size_t k = 1; k < half; ++k) tw[k] = CMul(tw[k - 1], wlen);
    for (std::size_t i = 0; i < n; i += len) {
      std::size_t k = 0;
      if constexpr (B::kCplxLanes > 1) {
        for (; k + B::kCplxLanes <= half; k += B::kCplxLanes) {
          const auto u = B::CLoad(data + i + k);
          const auto v =
              B::CMulV(B::CLoad(data + i + k + half), B::CLoad(tw + k));
          B::CStore(data + i + k, B::CAdd(u, v));
          B::CStore(data + i + k + half, B::CSub(u, v));
        }
      }
      for (; k < half; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = CMul(data[i + k + half], tw[k]);
        data[i + k] = {u.real() + v.real(), u.imag() + v.imag()};
        data[i + k + half] = {u.real() - v.real(), u.imag() - v.imag()};
      }
    }
  }
  if (inverse) {
    const double dn = static_cast<double>(n);
    std::size_t i = 0;
    for (; i + B::kCplxLanes <= n; i += B::kCplxLanes) {
      B::CStore(data + i, B::CDivReal(B::CLoad(data + i), dn));
    }
    for (; i < n; ++i) {
      data[i] = {data[i].real() / dn, data[i].imag() / dn};
    }
  }
}

// In-place pre-FFT phase rotation shared by all three CF inversion entry
// points: data[k] *= exp(i*phase), phase = -k*dt*lo - pi*k/n.
template <class B>
void PhaseRotateT(std::complex<double>* data, std::size_t n, double dt,
                  double lo) {
  const auto vdt = B::Set(dt);
  const auto vlo = B::Set(lo);
  const auto vpi = B::Set(detail::kPi);
  const auto vn = B::Set(static_cast<double>(n));
  std::size_t k = 0;
  for (; k + B::kLanes <= n; k += B::kLanes) {
    const auto kd = B::Iota(static_cast<double>(k));
    const auto t1 = B::Mul(B::Mul(B::Neg(kd), vdt), vlo);
    const auto t2 = B::Div(B::Mul(vpi, kd), vn);
    typename B::V s, c;
    SinCos<B>(B::Sub(t1, t2), &s, &c);
    B::RotateComplex(data + k, c, s);
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    for (; k < n; ++k) {
      const double kd = static_cast<double>(k);
      const double phase =
          -kd * dt * lo - detail::kPi * kd / static_cast<double>(n);
      typename ScalarBackend::V s, c;
      SinCos<ScalarBackend>(phase, &s, &c);
      ScalarBackend::RotateComplex(data + k, c, s);
    }
  }
}

// Post-FFT density extraction: masses[j] = max(0, scale * Re(rot * a[j]))
// * dx with rot = e^{i * t_max * xj}, xj = lo + (j+0.5)*dx. The total-mass
// reduction stays a sequential scalar loop at the call site (a vector
// partial-sum tree would order the adds differently per tier).
template <class B>
void DensityMassesT(const std::complex<double>* __restrict a, std::size_t n,
                    double lo, double dx, double t_max, double scale,
                    double* __restrict masses) {
  assert(NoOverlap(a, n * sizeof(*a), masses, n * sizeof(*masses)));
  const auto vlo = B::Set(lo);
  const auto vdx = B::Set(dx);
  const auto vtmax = B::Set(t_max);
  const auto vscale = B::Set(scale);
  const auto vhalf = B::Set(0.5);
  const auto zero = B::Set(0.0);
  std::size_t j = 0;
  for (; j + B::kLanes <= n; j += B::kLanes) {
    const auto jd = B::Iota(static_cast<double>(j));
    const auto xj = B::Add(vlo, B::Mul(B::Add(jd, vhalf), vdx));
    typename B::V s, c;
    SinCos<B>(B::Mul(vtmax, xj), &s, &c);
    typename B::V are, aim;
    B::LoadComplexSplit(a + j, &are, &aim);
    const auto fj = B::Mul(vscale, B::Sub(B::Mul(c, are), B::Mul(s, aim)));
    B::Store(masses + j, B::Mul(B::Select(B::Lt(zero, fj), fj, zero), vdx));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    // Tail keeps the GLOBAL index j in the xj expression — recursing with
    // a shifted lo would round xj differently than the vector lanes.
    for (; j < n; ++j) {
      const double jd = static_cast<double>(j);
      const double xj = lo + (jd + 0.5) * dx;
      double s, c;
      SinCos<ScalarBackend>(t_max * xj, &s, &c);
      const double fj = scale * (c * a[j].real() - s * a[j].imag());
      masses[j] = (0.0 < fj ? fj : 0.0) * dx;
    }
  }
}

// ---- particle-filter kernels ----------------------------------------------
// Per-particle math of the RFID particle filter over plain arrays. Both are
// elementwise; a vector tier's tail runs the ScalarBackend instantiation.

// Box-Muller over paired uniforms: r = sqrt(-2 log u1[i]), theta =
// 2 pi u2[i], z_cos[i] = r cos(theta), z_sin[i] = r sin(theta) — the
// expression order of common::Rng::Gaussian, with the lane-exact Log and
// SinCos in place of libm. Requires u1[i] in [2^-53, 1] and u2[i] in
// [0, 1).
template <class B>
void BoxMullerT(const double* __restrict u1, const double* __restrict u2,
                std::size_t n, double* __restrict z_cos,
                double* __restrict z_sin) {
  assert(NoOverlap(u1, n * sizeof(*u1), z_cos, n * sizeof(*z_cos)));
  assert(NoOverlap(u2, n * sizeof(*u2), z_sin, n * sizeof(*z_sin)));
  assert(NoOverlap(z_cos, n * sizeof(*z_cos), z_sin, n * sizeof(*z_sin)));
  const auto vm2 = B::Set(-2.0);
  const auto v2pi = B::Set(2.0 * detail::kPi);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto r = B::Sqrt(B::Mul(vm2, Log<B>(B::Load(u1 + i))));
    typename B::V s, c;
    SinCos<B>(B::Mul(v2pi, B::Load(u2 + i)), &s, &c);
    B::Store(z_cos + i, B::Mul(r, c));
    B::Store(z_sin + i, B::Mul(r, s));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      BoxMullerT<ScalarBackend>(u1 + i, u2 + i, n - i, z_cos + i, z_sin + i);
    }
  }
}

// Logistic RFID sensing model per tag (xs[i], ys[i]) against one reader
// pose, the formula of rfid::SensingModel::DetectionProbability: with d
// the reader-tag distance,
//   p = max_read_prob / (1 + e^{range_steepness (d - range_midpoint)})
//                     / (1 + e^{-fov_steepness (cos_theta - fov_cos)}),
// cos_theta the bearing cosine against the heading; the angular factor is
// 1 when d <= 1e-9 and p is 0 when d > hard_range. Both branches are lane
// selects (a masked lane divides by 1, never by 0).
template <class B>
void LogisticDetectionT(const LogisticDetection& model, double reader_x,
                        double reader_y, double cos_heading,
                        double sin_heading, const double* __restrict xs,
                        const double* __restrict ys, std::size_t n,
                        double* __restrict out) {
  assert(NoOverlap(xs, n * sizeof(*xs), out, n * sizeof(*out)));
  assert(NoOverlap(ys, n * sizeof(*ys), out, n * sizeof(*out)));
  const auto one = B::Set(1.0);
  const auto zero = B::Set(0.0);
  const auto vrx = B::Set(reader_x);
  const auto vry = B::Set(reader_y);
  const auto vcos = B::Set(cos_heading);
  const auto vsin = B::Set(sin_heading);
  const auto vmax = B::Set(model.max_read_prob);
  const auto vmid = B::Set(model.range_midpoint);
  const auto vrange = B::Set(model.range_steepness);
  const auto vfov = B::Set(model.fov_cos);
  const auto vnfov = B::Set(-model.fov_steepness);
  const auto vhard = B::Set(model.hard_range);
  const auto vnear = B::Set(1e-9);
  std::size_t i = 0;
  for (; i + B::kLanes <= n; i += B::kLanes) {
    const auto tx = B::Load(xs + i);
    const auto ty = B::Load(ys + i);
    const auto dx = B::Sub(vrx, tx);
    const auto dy = B::Sub(vry, ty);
    const auto d = B::Sqrt(B::Add(B::Mul(dx, dx), B::Mul(dy, dy)));
    const auto range_term =
        B::Div(one, B::Add(one, Exp<B>(B::Mul(vrange, B::Sub(d, vmid)))));
    const auto has_bearing = B::Lt(vnear, d);
    const auto cos_theta =
        B::Div(B::Add(B::Mul(B::Sub(tx, vrx), vcos),
                      B::Mul(B::Sub(ty, vry), vsin)),
               B::Select(has_bearing, d, one));
    const auto angle_exp = Exp<B>(B::Mul(vnfov, B::Sub(cos_theta, vfov)));
    const auto angle_term =
        B::Select(has_bearing, B::Div(one, B::Add(one, angle_exp)), one);
    const auto p = B::Mul(B::Mul(vmax, range_term), angle_term);
    B::Store(out + i, B::Select(B::Lt(vhard, d), zero, p));
  }
  if constexpr (!std::is_same_v<B, ScalarBackend>) {
    if (i < n) {
      LogisticDetectionT<ScalarBackend>(model, reader_x, reader_y,
                                        cos_heading, sin_heading, xs + i,
                                        ys + i, n - i, out + i);
    }
  }
}

// ---- single-point helpers for the Distribution::Cf overrides --------------
// The direct per-lane forms above on ScalarBackend. Uniform and exponential
// grids run exactly these forms at t_j, so their CfGrid entries equal
// Cf(t_j) bitwise on every tier; Gaussian and mixture grids equal these at
// the chain anchors and agree elsewhere to ~1e-13 relative
// (tests/stats/cf_lattice_test.cc).

inline std::complex<double> GaussianCfPoint(double c, double mean, double t) {
  double re, im;
  detail::GaussianCfAt<ScalarBackend>(c, mean, 1.0, t, &re, &im);
  return {re, im};
}

inline void GmmCfPointAccum(double c, double mean, double weight, double t,
                            std::complex<double>* acc) {
  double re, im;
  detail::GaussianCfAt<ScalarBackend>(c, mean, weight, t, &re, &im);
  ScalarBackend::AccumComplex(acc, re, im);
}

inline std::complex<double> UniformCfPoint(double lo, double hi, double t) {
  double re, im;
  detail::UniformCfAt<ScalarBackend>(lo, hi, t, &re, &im);
  return {re, im};
}

inline std::complex<double> ExponentialCfPoint(double rate, double t) {
  double re, im;
  detail::ExponentialCfAt<ScalarBackend>(rate, t, &re, &im);
  return {re, im};
}

}  // namespace simd
}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_SIMD_KERNELS_H_
