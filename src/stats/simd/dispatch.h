// Runtime SIMD dispatch for the CF/CDF grid kernels, the ProductCfGrid
// accumulation, the CF-inversion FFT/phase/density loops, and the RFID
// particle filter's Box-Muller and detection-probability loops.
//
// The tier is selected ONCE (first use) via cpuid: AVX2+FMA when the CPU
// and the build support it, the scalar fallback otherwise. Every entry in
// the table is lane-exact against the scalar tier (see vec_math.h), so
// switching tiers never changes results bitwise — which is what lets the
// paned/sharded operators keep their exact-replay guarantees regardless
// of the host ISA.
//
// Overrides:
//  * environment: USP_SIMD=scalar forces the scalar tier at startup
//    (the bench `--simd off` axis and the differential harness use this).
//  * ScopedForceTier: RAII override for tests; not thread-safe against
//    concurrent Active() users by design (tests force before spawning).
//  * -DUSP_FORCE_SCALAR=ON builds compile the AVX2 tier out entirely.
//
// Aliasing contract: src/dst ranges passed to table entries must not
// overlap (asserted in debug builds); fft/phase_rotate are in-place.

#ifndef USP_STATS_SIMD_DISPATCH_H_
#define USP_STATS_SIMD_DISPATCH_H_

#include <complex>
#include <cstddef>
#include <cstdint>

namespace usp {
namespace stats {
namespace simd {

enum class Tier { kScalar, kAvx2 };

/// Parameters of the logistic RFID sensing model (rfid::SensingModel),
/// as the detection kernel takes them.
struct LogisticDetection {
  double max_read_prob;
  double range_midpoint;
  double range_steepness;
  double fov_cos;
  double fov_steepness;
  double hard_range;
};

struct Dispatch {
  const char* isa;  // "scalar" or "avx2"; recorded in bench JSON
  Tier tier;

  // Distribution grid kernels (see kernels.h for the exact formulas). CF
  // grids cover the frequency lattice t_j = j * dt, j in
  // [j_begin, j_begin + n).
  void (*gaussian_cf_grid)(double c, double mean, double dt, int64_t j_begin,
                           std::size_t n, std::complex<double>* out);
  void (*gmm_cf_grid_accum)(double c, double mean, double weight, double dt,
                            int64_t j_begin, std::size_t n,
                            std::complex<double>* out);
  void (*uniform_cf_grid)(double lo, double hi, double dt, int64_t j_begin,
                          std::size_t n, std::complex<double>* out);
  void (*exponential_cf_grid)(double rate, double dt, int64_t j_begin,
                              std::size_t n, std::complex<double>* out);
  void (*gamma_cf_grid)(double shape, double scale, double dt,
                        int64_t j_begin, std::size_t n,
                        std::complex<double>* out);
  void (*gaussian_cdf_grid)(double mean, double sd, const double* x,
                            std::size_t n, double* out);
  void (*gmm_cdf_grid_accum)(double mean, double sd, double weight,
                             const double* x, std::size_t n, double* out);

  // ProductCfGrid accumulation: out[i] *= cf[i] with the underflow pin.
  void (*product_cf_accum)(const std::complex<double>* cf, std::size_t n,
                           std::complex<double>* out);

  // CF inversion: in-place radix-2 FFT (n a power of two), the pre-FFT
  // phase rotation, and the post-FFT density-mass extraction.
  void (*fft)(std::complex<double>* data, std::size_t n, bool inverse);
  void (*phase_rotate)(std::complex<double>* data, std::size_t n, double dt,
                       double lo);
  void (*density_masses)(const std::complex<double>* a, std::size_t n,
                         double lo, double dx, double t_max, double scale,
                         double* masses);

  // Particle-filter kernels: Box-Muller pairs from paired uniforms, and the
  // logistic detection probability of tags (xs[i], ys[i]) against one
  // reader pose (see kernels.h).
  void (*box_muller)(const double* u1, const double* u2, std::size_t n,
                     double* z_cos, double* z_sin);
  void (*logistic_detection)(const LogisticDetection& model, double reader_x,
                             double reader_y, double cos_heading,
                             double sin_heading, const double* xs,
                             const double* ys, std::size_t n, double* out);
};

/// The active table. First call performs cpuid detection (honouring
/// USP_SIMD=scalar); later calls are a single atomic load.
const Dispatch& Active();

/// Name of the active tier's ISA ("avx2" / "scalar").
const char* ActiveIsaName();

/// True when `tier` can run on this build + CPU.
bool TierAvailable(Tier tier);

/// Test hook: force a tier for the lifetime of the object, then restore.
class ScopedForceTier {
 public:
  explicit ScopedForceTier(Tier tier);
  ~ScopedForceTier();
  ScopedForceTier(const ScopedForceTier&) = delete;
  ScopedForceTier& operator=(const ScopedForceTier&) = delete;

 private:
  const Dispatch* saved_;
};

}  // namespace simd
}  // namespace stats
}  // namespace usp

#endif  // USP_STATS_SIMD_DISPATCH_H_
