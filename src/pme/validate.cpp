#include "pme/validate.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "ewald/beenakker.hpp"
#include "linalg/blas.hpp"
#include "pme/params.hpp"

namespace hbd {

PmeParams reference_pme_params(double box, double radius, double ref_tol) {
  return decay_rule_pme_params(box, radius, ref_tol, /*rmax_in_radii=*/8.0,
                               /*order=*/10);
}

namespace {

/// Mean over columns of ‖got_c − expected_c‖₂/‖expected_c‖₂ (got and
/// expected are row-major 3n×s).
double mean_column_relative_error(const Matrix& got, const Matrix& expected) {
  const std::size_t rows = got.rows(), cols = got.cols();
  double total = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    double diff2 = 0.0, ref2 = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double d = got(r, c) - expected(r, c);
      diff2 += d * d;
      ref2 += expected(r, c) * expected(r, c);
    }
    total += ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0;
  }
  return total / static_cast<double>(cols);
}

Matrix gaussian_forces(std::size_t n, std::size_t samples,
                       std::uint64_t seed) {
  Matrix f(3 * n, std::max<std::size_t>(samples, 1));
  Xoshiro256 rng(seed);
  fill_gaussian(rng, {f.data(), f.rows() * f.cols()});
  return f;
}

}  // namespace

double measure_pme_error(std::span<const Vec3> pos, double box, double radius,
                         const PmeParams& params, std::size_t samples,
                         std::uint64_t seed) {
  PmeOperator pme(pos, box, radius, params);
  PmeOperator ref(pos, box, radius, reference_pme_params(box, radius));
  return measure_pme_error_operators(pme, ref, samples, seed);
}

double measure_pme_error_direct(std::span<const Vec3> pos, double box,
                                double radius, const PmeParams& params,
                                double direct_tol, std::size_t samples,
                                std::uint64_t seed) {
  const std::size_t n = pos.size();
  const Matrix f = gaussian_forces(n, samples, seed);
  Matrix u(f.rows(), f.cols()), u_ref(f.rows(), f.cols());

  PmeOperator pme(pos, box, radius, params);
  pme.apply_block(f, u);
  const EwaldParams ep = ewald_params_for_tolerance(box, radius, direct_tol);
  std::vector<double> fc(3 * n), uc(3 * n);
  for (std::size_t c = 0; c < f.cols(); ++c) {
    for (std::size_t r = 0; r < f.rows(); ++r) fc[r] = f(r, c);
    ewald_mobility_apply(pos, box, radius, ep, fc, uc);
    for (std::size_t r = 0; r < f.rows(); ++r) u_ref(r, c) = uc[r];
  }
  return mean_column_relative_error(u, u_ref);
}

double measure_pme_error_operators(PmeOperator& pme, PmeOperator& reference,
                                   std::size_t samples, std::uint64_t seed) {
  const std::size_t n = pme.particles();
  const Matrix f = gaussian_forces(n, samples, seed);
  Matrix u(f.rows(), f.cols()), u_ref(f.rows(), f.cols());
  pme.apply_block(f, u);
  reference.apply_block(f, u_ref);
  return mean_column_relative_error(u, u_ref);
}

}  // namespace hbd
