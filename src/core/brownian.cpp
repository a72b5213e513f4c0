#include "core/brownian.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

Matrix gaussian_block(Xoshiro256& rng, std::size_t dim, std::size_t count) {
  Matrix z(dim, count);
  fill_gaussian(rng, {z.data(), dim * count});
  return z;
}

namespace {
Matrix cholesky_traced(const Matrix& mobility) {
  HBD_TRACE_SCOPE("cholesky.factor");
  return cholesky(mobility);
}
}  // namespace

CholeskyBrownianSampler::CholeskyBrownianSampler(const Matrix& mobility)
    : factor_(cholesky_traced(mobility)) {}

Matrix CholeskyBrownianSampler::sample_block(const Matrix& z,
                                             double two_kbt_dt) const {
  HBD_CHECK(z.rows() == factor_.rows());
  HBD_TRACE_SCOPE("cholesky.sample");
  Matrix d = z;
  trmm_lower_left(factor_, d);  // D = S Z
  scal(std::sqrt(two_kbt_dt), {d.data(), d.rows() * d.cols()});
  return d;
}

Matrix sample_wavespace_block(PmeOperator& pme, const Matrix& z,
                              double two_kbt_dt, const KrylovConfig& config,
                              Xoshiro256& wave_rng, KrylovStats* stats) {
  HBD_TRACE_SCOPE("wavespace.sample");
  Matrix d;
  {
    // Near-field M_real^{1/2} z via block Lanczos on the sparse part only.
    // The PSE kernel's real-space spectrum is nonnegative for every ξ, so
    // this part is positive definite up to cutoff truncation; the Lanczos
    // SPD guard (min projected eigenvalue) backstops it.
    HBD_TRACE_SCOPE("wavespace.nearfield");
    d = krylov_sqrt_apply(
        [&pme](const Matrix& x, Matrix& y) { pme.apply_real_block(x, y); }, z,
        config, stats);
  }
  // Far-field sample accumulated on top from the independent wave stream.
  pme.sample_recip_block(wave_rng, d, /*accumulate=*/true);
  scal(std::sqrt(two_kbt_dt), {d.data(), d.rows() * d.cols()});
  return d;
}

double measure_sample_covariance_error(PmeOperator& pme,
                                       const KrylovConfig& krylov,
                                       BrownianMethod method,
                                       std::size_t blocks, std::size_t width,
                                       std::uint64_t seed) {
  const std::size_t dim = 3 * pme.particles();
  constexpr std::size_t kProbes = 3;
  const auto col_dot = [dim](const Matrix& a, std::size_t ca, const Matrix& b,
                             std::size_t cb) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i)
      acc += a.data()[i * a.cols() + ca] * b.data()[i * b.cols() + cb];
    return acc;
  };
  // Fixed unit probe directions, drawn from a stream disjoint from the
  // sampling draws below.
  Xoshiro256 probe_rng(seed ^ 0xD1B54A32D192ED03ull);
  Matrix x = gaussian_block(probe_rng, dim, kProbes);
  for (std::size_t p = 0; p < kProbes; ++p) {
    const double inv_norm = 1.0 / std::sqrt(col_dot(x, p, x, p));
    for (std::size_t i = 0; i < dim; ++i)
      x.data()[i * kProbes + p] *= inv_norm;
  }
  // Exact quadratic forms xᵀ M̃ x through the deterministic operator.
  Matrix mx(dim, kProbes);
  pme.apply_block(x, mx);
  double expected[kProbes];
  for (std::size_t p = 0; p < kProbes; ++p)
    expected[p] = col_dot(x, p, mx, p);
  const BlockApply full = [&pme](const Matrix& b, Matrix& mb) {
    pme.apply_block(b, mb);
  };
  // Accumulate ⟨(xᵀD)²⟩ over blocks·width samples at unit 2·kBT·Δt.
  Xoshiro256 z_rng(seed);
  Xoshiro256 wave_rng = substream(seed, 1);
  double acc[kProbes] = {0.0, 0.0, 0.0};
  for (std::size_t bl = 0; bl < blocks; ++bl) {
    const Matrix z = gaussian_block(z_rng, dim, width);
    const Matrix d =
        method == BrownianMethod::wavespace
            ? sample_wavespace_block(pme, z, 1.0, krylov, wave_rng)
            : krylov_sqrt_apply(full, z, krylov);
    for (std::size_t j = 0; j < width; ++j)
      for (std::size_t p = 0; p < kProbes; ++p) {
        const double dot = col_dot(x, p, d, j);
        acc[p] += dot * dot;
      }
  }
  double err = 0.0;
  const double inv = 1.0 / static_cast<double>(blocks * width);
  for (std::size_t p = 0; p < kProbes; ++p)
    err = std::max(err,
                   std::abs(acc[p] * inv - expected[p]) / std::abs(expected[p]));
  return err;
}

}  // namespace hbd
