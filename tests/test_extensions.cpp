// Tests for the extension modules: Chebyshev (Fixman) sampler, spectral
// bound estimation, checkpointing, trajectory output, PME error
// measurement, and the ξ-split-invariance property of the full PME operator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "core/brownian.hpp"
#include "core/chebyshev.hpp"
#include "core/checkpoint.hpp"
#include "core/krylov.hpp"
#include "core/system.hpp"
#include "core/trajectory.hpp"
#include "ewald/rpy.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matfun.hpp"
#include "pme/params.hpp"
#include "pme/validate.hpp"

namespace hbd {
namespace {

Matrix small_mobility(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const ParticleSystem sys = random_suspension(n, 18.0, 1.0, 2.05, rng);
  return rpy_mobility_dense(sys.positions, 1.0);
}

/// Y = M X through the explicit matrix (`m` must outlive the callable).
BlockApply dense_apply(const Matrix& m) {
  return [&m](const Matrix& x, Matrix& y) {
    gemm(false, false, 1.0, m, x, 0.0, y);
  };
}

// ---- Spectral bounds --------------------------------------------------------

TEST(SpectralBounds, EnclosesTrueSpectrum) {
  const Matrix m = small_mobility(25, 5);
  const BlockApply mob = dense_apply(m);
  const SpectralBounds b = estimate_spectral_bounds(mob, m.rows(), 25);
  const EigenSym eig = eigen_sym(m);
  EXPECT_LE(b.min, eig.values.front() + 1e-10);
  EXPECT_GE(b.max, eig.values.back() - 1e-10);
  EXPECT_GT(b.min, 0.0);
}

TEST(SpectralBounds, IdentityOperator) {
  Matrix eye(30, 30);
  for (std::size_t i = 0; i < 30; ++i) eye(i, i) = 1.0;
  const BlockApply mob = dense_apply(eye);
  const SpectralBounds b = estimate_spectral_bounds(mob, eye.rows(), 10);
  EXPECT_LE(b.min, 1.0);
  EXPECT_GE(b.max, 1.0);
  EXPECT_LT(b.max, 1.5);
}

// ---- Chebyshev sampler ------------------------------------------------------

TEST(Chebyshev, MatchesDenseSqrtm) {
  const std::size_t n = 20;
  const Matrix m = small_mobility(n, 15);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(16);
  const Matrix z = gaussian_block(rng, 3 * n, 3);

  const SpectralBounds b = estimate_spectral_bounds(mob, 3 * n, 30);
  ChebyshevConfig cfg;
  cfg.tolerance = 1e-8;
  ChebyshevStats stats;
  const Matrix x = chebyshev_sqrt_apply(mob, z, b, cfg, &stats);
  EXPECT_GT(stats.terms, 2);

  const Matrix s = sqrtm_spd(m);
  Matrix expected(3 * n, 3);
  gemm(false, false, 1.0, s, z, 0.0, expected);
  double max_err = 0.0;
  for (std::size_t i = 0; i < 3 * n; ++i)
    for (std::size_t c = 0; c < 3; ++c)
      max_err = std::max(max_err, std::abs(x(i, c) - expected(i, c)));
  EXPECT_LT(max_err, 1e-5);
}

TEST(Chebyshev, LooserToleranceFewerTerms) {
  const std::size_t n = 15;
  const Matrix m = small_mobility(n, 25);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(26);
  const Matrix z = gaussian_block(rng, 3 * n, 2);
  const SpectralBounds b = estimate_spectral_bounds(mob, 3 * n, 20);

  ChebyshevStats tight, loose;
  ChebyshevConfig cfg;
  cfg.tolerance = 1e-9;
  chebyshev_sqrt_apply(mob, z, b, cfg, &tight);
  cfg.tolerance = 1e-2;
  chebyshev_sqrt_apply(mob, z, b, cfg, &loose);
  EXPECT_LT(loose.terms, tight.terms);
}

TEST(Chebyshev, AgreesWithKrylov) {
  const std::size_t n = 18;
  const Matrix m = small_mobility(n, 35);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(36);
  const Matrix z = gaussian_block(rng, 3 * n, 4);

  KrylovConfig kcfg;
  kcfg.tolerance = 1e-9;
  const Matrix xk = krylov_sqrt_apply(mob, z, kcfg);

  const SpectralBounds b = estimate_spectral_bounds(mob, 3 * n, 30);
  ChebyshevConfig ccfg;
  ccfg.tolerance = 1e-9;
  const Matrix xc = chebyshev_sqrt_apply(mob, z, b, ccfg);

  for (std::size_t i = 0; i < 3 * n; ++i)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_NEAR(xk(i, c), xc(i, c), 1e-5);
}

TEST(Chebyshev, RejectsInvalidBounds) {
  Matrix eye(6, 6);
  for (std::size_t i = 0; i < 6; ++i) eye(i, i) = 1.0;
  const BlockApply mob = dense_apply(eye);
  Xoshiro256 rng(41);
  const Matrix z = gaussian_block(rng, 6, 1);
  EXPECT_THROW(chebyshev_sqrt_apply(mob, z, {0.0, 1.0}), Error);
  EXPECT_THROW(chebyshev_sqrt_apply(mob, z, {2.0, 1.0}), Error);
}

// ---- Checkpointing ----------------------------------------------------------

TEST(Checkpoint, RoundTrip) {
  Xoshiro256 rng(51);
  Checkpoint cp;
  cp.system = random_suspension(40, 12.0, 1.0, 2.0, rng);
  cp.steps_taken = 12345;
  cp.seed = 987;

  const std::string path = "/tmp/hbd_test_checkpoint.bin";
  save_checkpoint(path, cp);
  const Checkpoint back = load_checkpoint(path);
  EXPECT_EQ(back.steps_taken, cp.steps_taken);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_DOUBLE_EQ(back.system.box, cp.system.box);
  EXPECT_DOUBLE_EQ(back.system.radius, cp.system.radius);
  ASSERT_EQ(back.system.size(), cp.system.size());
  for (std::size_t i = 0; i < cp.system.size(); ++i) {
    EXPECT_EQ(back.system.positions[i].x, cp.system.positions[i].x);
    EXPECT_EQ(back.system.positions[i].y, cp.system.positions[i].y);
    EXPECT_EQ(back.system.positions[i].z, cp.system.positions[i].z);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsGarbage) {
  const std::string path = "/tmp/hbd_test_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint(path), Error);
  std::filesystem::remove(path);
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/x.ckpt"), Error);
}

// ---- Trajectory output ------------------------------------------------------

TEST(Trajectory, WritesValidXyz) {
  const std::string path = "/tmp/hbd_test_traj.xyz";
  {
    XyzTrajectoryWriter w(path);
    std::vector<Vec3> pos{{1, 2, 3}, {4, 5, 6}};
    w.write_frame(pos, "frame0");
    w.write_frame(pos, "frame1");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "2");
  std::getline(in, line);
  EXPECT_EQ(line, "frame0");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 2), "P ");
  int lines = 3;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 8);  // 2 frames × (2 header + 2 atoms)
  std::filesystem::remove(path);
}

// ---- PME error measurement & split invariance --------------------------------

TEST(Validate, ReferenceAgreesWithDirectEwald) {
  Xoshiro256 rng(61);
  const ParticleSystem sys = suspension_at_volume_fraction(40, 0.2, 1.0, rng);
  const auto wrapped = sys.wrapped_positions();
  const PmeParams pp = choose_pme_params(sys.box, 1.0, 1e-2);
  const double e_ref = measure_pme_error(wrapped, sys.box, 1.0, pp);
  const double e_dir =
      measure_pme_error_direct(wrapped, sys.box, 1.0, pp, 1e-12);
  // Both measurements see the same truncation error of `pp`.
  EXPECT_NEAR(e_ref, e_dir, 0.15 * e_dir);
}

TEST(Validate, TighterParamsSmallerError) {
  Xoshiro256 rng(71);
  const ParticleSystem sys = suspension_at_volume_fraction(50, 0.2, 1.0, rng);
  const auto wrapped = sys.wrapped_positions();
  const double e_loose = measure_pme_error(
      wrapped, sys.box, 1.0, choose_pme_params(sys.box, 1.0, 1e-2));
  const double e_tight = measure_pme_error(
      wrapped, sys.box, 1.0,
      choose_pme_params(sys.box, 1.0, 1e-5, 6.0, 8));
  EXPECT_LT(e_tight, e_loose);
}

class PmeSplitInvariance : public ::testing::TestWithParam<double> {};

TEST_P(PmeSplitInvariance, ResultIndependentOfXi) {
  // Property: the PME mobility product must not depend on how the work is
  // split between real and reciprocal space (different ξ with cutoffs
  // converged for each) — only on the truncation level.
  const double xi_scale = GetParam();
  Xoshiro256 rng(81);
  // Box large enough that the rmax ≤ L/2 cap never binds across the ξ sweep
  // (otherwise the real-space sum is under-converged for small ξ).
  const ParticleSystem sys = suspension_at_volume_fraction(60, 0.1, 1.0, rng);
  const auto wrapped = sys.wrapped_positions();

  PmeParams base = choose_pme_params(sys.box, 1.0, 1e-4, 5.0, 8);
  PmeParams varied = base;
  varied.xi = base.xi * xi_scale;
  // Re-derive cutoffs for the scaled ξ at the same truncation level.
  const double s = std::sqrt(std::log(10.0 / 1e-4));
  varied.rmax = std::min(s / varied.xi, 0.499 * sys.box);
  ASSERT_LT(s / varied.xi, 0.5 * sys.box) << "test box too small";
  varied.mesh = nice_fft_size(static_cast<std::size_t>(
      std::ceil(2.0 * varied.xi * s * 1.3 * sys.box / M_PI)));

  PmeOperator a(wrapped, sys.box, 1.0, base);
  PmeOperator b(wrapped, sys.box, 1.0, varied);
  std::vector<double> f(3 * sys.size()), ua(f.size()), ub(f.size());
  Xoshiro256 rng2(82);
  fill_gaussian(rng2, f);
  a.apply(f, ua);
  b.apply(f, ub);
  std::vector<double> diff(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) diff[i] = ua[i] - ub[i];
  // Each operator carries ~1e-3 of B-spline interpolation error of its
  // own; their mutual difference is bounded by the sum of the two.
  EXPECT_LT(nrm2(diff) / nrm2(ua), 4e-3) << "xi scale " << xi_scale;
}

INSTANTIATE_TEST_SUITE_P(XiScales, PmeSplitInvariance,
                         ::testing::Values(0.8, 1.2, 1.5));

}  // namespace
}  // namespace hbd
