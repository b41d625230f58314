// Scalar dispatch tier: the templated kernels instantiated with
// ScalarBackend. This tier is the bitwise reference every vector tier is
// tested against, and the one CI exercises with -DUSP_FORCE_SCALAR=ON.

#include <complex>
#include <cstddef>
#include <vector>

#include "stats/simd/dispatch.h"
#include "stats/simd/kernels.h"

namespace usp {
namespace stats {
namespace simd {
namespace {

void FftScalar(std::complex<double>* data, std::size_t n, bool inverse) {
  thread_local std::vector<std::complex<double>> twiddle;
  FftT<ScalarBackend>(data, n, inverse, &twiddle);
}

}  // namespace

extern const Dispatch kScalarDispatch;
const Dispatch kScalarDispatch = {
    "scalar",
    Tier::kScalar,
    &GaussianCfGridT<ScalarBackend>,
    &GmmCfGridAccumT<ScalarBackend>,
    &UniformCfGridT<ScalarBackend>,
    &ExponentialCfGridT<ScalarBackend>,
    &GammaCfGridScalar,
    &GaussianCdfGridT<ScalarBackend>,
    &GmmCdfGridAccumT<ScalarBackend>,
    &ProductCfAccumT<ScalarBackend>,
    &FftScalar,
    &PhaseRotateT<ScalarBackend>,
    &DensityMassesT<ScalarBackend>,
    &BoxMullerT<ScalarBackend>,
    &LogisticDetectionT<ScalarBackend>,
};

}  // namespace simd
}  // namespace stats
}  // namespace usp
