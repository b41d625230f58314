// AVX2+FMA dispatch tier. Compiled with -mavx2 -mfma (see CMakeLists.txt);
// excluded from -DUSP_FORCE_SCALAR=ON builds and non-x86 targets.
//
// Every backend op below is a correctly-rounded IEEE double operation (or
// a per-lane libm call on the same values), matching ScalarBackend lane
// for lane — see vec_math.h for why that makes the tiers bitwise-equal.

#ifdef USP_SIMD_HAVE_AVX2

// GCC 12's auto-vectorisers pack the scalar complex arithmetic in
// FftAvx2's butterflies/twiddles and the PhaseRotateT tail into
// vfmaddsub/vfmsubadd, fusing a multiply with an add/sub even under
// -ffp-contract=off: the SLP vectoriser at -O3, the loop vectoriser at
// -O2. That breaks the lane-exact contract with the scalar tier, so both
// are off for this file (its hot loops are explicit AVX2 intrinsics). A
// pragma rather than a build flag, so every build of this source
// (including ones with their own flags) gets it; the
// stats_simd_avx2_no_fused_addsub test checks the object.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("no-tree-slp-vectorize", "no-tree-loop-vectorize")
#endif

#include <immintrin.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {
namespace simd {
namespace {

struct Avx2Backend {
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kCplxLanes = 2;  // interleaved in one __m256d
  using V = __m256d;
  using M = __m256d;
  using CV = __m256d;

  static V Set(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V Iota(double base) {
    return _mm256_add_pd(_mm256_set1_pd(base),
                         _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
  }
  static V Reverse(V a) { return _mm256_permute4x64_pd(a, 0x1B); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static V Sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V Neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Round(V a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static M Eq(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M Lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M MaskAnd(M a, M b) { return _mm256_and_pd(a, b); }
  static V Select(M m, V a, V b) { return _mm256_blendv_pd(b, a, m); }
  static V NegateIf(V v, M m) {
    return _mm256_xor_pd(v, _mm256_and_pd(m, _mm256_set1_pd(-0.0)));
  }
  static V Erfc(V a) {
    double lanes[kLanes];
    _mm256_storeu_pd(lanes, a);
    for (std::size_t i = 0; i < kLanes; ++i) lanes[i] = std::erfc(lanes[i]);
    return _mm256_loadu_pd(lanes);
  }

  static V Exp2Int(V k) {
    const __m128i k32 = _mm256_cvtpd_epi32(k);
    __m256i k64 = _mm256_cvtepi32_epi64(k32);
    k64 = _mm256_add_epi64(k64, _mm256_set1_epi64x(1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(k64, 52));
  }

  static void SplitExponent(V x, V* m, V* k) {
    const __m256i bits = _mm256_castpd_si256(x);
    // The biased exponent (< 2^11) as a double: OR it into the mantissa of
    // 2^52 and subtract 2^52, both exact.
    const __m256d two52 = _mm256_set1_pd(0x1.0p52);
    const __m256d biased = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                            _mm256_castpd_si256(two52))),
        two52);
    *k = _mm256_sub_pd(biased, _mm256_set1_pd(1023.0));
    *m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
        _mm256_set1_epi64x(0x3FF0000000000000LL)));
  }

  static void Quadrant(V j, M* swap, M* neg_sin, M* neg_cos) {
    const __m128i ji = _mm256_cvtpd_epi32(j);
    const __m128i one = _mm_set1_epi32(1);
    const __m128i two = _mm_set1_epi32(2);
    const __m128i swap32 = _mm_cmpeq_epi32(_mm_and_si128(ji, one), one);
    const __m128i nsin32 = _mm_cmpeq_epi32(_mm_and_si128(ji, two), two);
    const __m128i ncos32 = _mm_cmpeq_epi32(
        _mm_and_si128(_mm_add_epi32(ji, one), two), two);
    *swap = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(swap32));
    *neg_sin = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(nsin32));
    *neg_cos = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(ncos32));
  }

  static CV CLoad(const std::complex<double>* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void CStore(std::complex<double>* p, CV v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static CV CAdd(CV a, CV b) { return _mm256_add_pd(a, b); }
  static CV CSub(CV a, CV b) { return _mm256_sub_pd(a, b); }
  // (ar*br - ai*bi, ar*bi + ai*br): the canonical CMul form, lane-exact
  // against simd::CMul via movedup/permute/addsub.
  static CV CMulV(CV a, CV b) {
    const __m256d are = _mm256_movedup_pd(a);           // (ar, ar | ...)
    const __m256d aim = _mm256_permute_pd(a, 0xF);      // (ai, ai | ...)
    const __m256d bswap = _mm256_permute_pd(b, 0x5);    // (bi, br | ...)
    return _mm256_addsub_pd(_mm256_mul_pd(are, b),
                            _mm256_mul_pd(aim, bswap));
  }
  static CV CDivReal(CV a, double d) {
    return _mm256_div_pd(a, _mm256_set1_pd(d));
  }

  static void StoreComplex(std::complex<double>* p, V re, V im) {
    const __m256d lo = _mm256_unpacklo_pd(re, im);  // (re0, im0, re2, im2)
    const __m256d hi = _mm256_unpackhi_pd(re, im);  // (re1, im1, re3, im3)
    double* out = reinterpret_cast<double*>(p);
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  static void AccumComplex(std::complex<double>* p, V re, V im) {
    const __m256d lo = _mm256_unpacklo_pd(re, im);
    const __m256d hi = _mm256_unpackhi_pd(re, im);
    double* out = reinterpret_cast<double*>(p);
    const __m256d c01 = _mm256_permute2f128_pd(lo, hi, 0x20);
    const __m256d c23 = _mm256_permute2f128_pd(lo, hi, 0x31);
    _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), c01));
    _mm256_storeu_pd(out + 4, _mm256_add_pd(_mm256_loadu_pd(out + 4), c23));
  }
  static void LoadComplexSplit(const std::complex<double>* p, V* re, V* im) {
    const double* in = reinterpret_cast<const double*>(p);
    const __m256d c01 = _mm256_loadu_pd(in);      // (re0, im0, re1, im1)
    const __m256d c23 = _mm256_loadu_pd(in + 4);  // (re2, im2, re3, im3)
    const __m256d lo = _mm256_permute2f128_pd(c01, c23, 0x20);
    const __m256d hi = _mm256_permute2f128_pd(c01, c23, 0x31);
    *re = _mm256_unpacklo_pd(lo, hi);
    *im = _mm256_unpackhi_pd(lo, hi);
  }
  static void RotateComplex(std::complex<double>* p, V cosv, V sinv) {
    const __m256d lo = _mm256_unpacklo_pd(cosv, sinv);
    const __m256d hi = _mm256_unpackhi_pd(cosv, sinv);
    const __m256d rot01 = _mm256_permute2f128_pd(lo, hi, 0x20);
    const __m256d rot23 = _mm256_permute2f128_pd(lo, hi, 0x31);
    double* out = reinterpret_cast<double*>(p);
    _mm256_storeu_pd(out, CMulV(_mm256_loadu_pd(out), rot01));
    _mm256_storeu_pd(out + 4, CMulV(_mm256_loadu_pd(out + 4), rot23));
  }

  static void ProductPinChunk(const std::complex<double>* cf,
                              std::complex<double>* out) {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d o = CLoad(out);
    const __m256d p = CMulV(o, CLoad(cf));
    // Per-complex squared norm, replicated into both of its lanes.
    const __m256d sq = _mm256_mul_pd(p, p);
    const __m256d nrm = _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
    const __m256d pin = _mm256_cmp_pd(nrm, _mm256_set1_pd(kCfNormPin),
                                      _CMP_LT_OQ);
    // "Was already (0, 0)" per complex: both component-eq lanes set.
    const __m256d eq0 = _mm256_cmp_pd(o, zero, _CMP_EQ_OQ);
    const __m256d was_zero = _mm256_and_pd(eq0, _mm256_permute_pd(eq0, 0x5));
    __m256d r = _mm256_blendv_pd(p, zero, pin);  // pin underflow to +0
    r = _mm256_blendv_pd(r, o, was_zero);        // keep pre-existing zeros
    CStore(out, r);
  }
};

void FftAvx2(std::complex<double>* data, std::size_t n, bool inverse) {
  thread_local std::vector<std::complex<double>> twiddle;
  FftT<Avx2Backend>(data, n, inverse, &twiddle);
}

}  // namespace

extern const Dispatch kAvx2Dispatch;
const Dispatch kAvx2Dispatch = {
    "avx2",
    Tier::kAvx2,
    &GaussianCfGridT<Avx2Backend>,
    &GmmCfGridAccumT<Avx2Backend>,
    &UniformCfGridT<Avx2Backend>,
    &ExponentialCfGridT<Avx2Backend>,
    &GammaCfGridScalar,  // complex pow: same per-lane loop as scalar tier
    &GaussianCdfGridT<Avx2Backend>,
    &GmmCdfGridAccumT<Avx2Backend>,
    &ProductCfAccumT<Avx2Backend>,
    &FftAvx2,
    &PhaseRotateT<Avx2Backend>,
    &DensityMassesT<Avx2Backend>,
    &BoxMullerT<Avx2Backend>,
    &LogisticDetectionT<Avx2Backend>,
};

}  // namespace simd
}  // namespace stats
}  // namespace usp

#endif  // USP_SIMD_HAVE_AVX2
