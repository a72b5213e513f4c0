// Parameterized property sweeps across module boundaries: cell-list
// correctness over geometry regimes, Krylov block widths, Ewald tolerance
// ladder, Hasimoto box-size ladder, GEMM shape sweep, Cholesky size sweep.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "common/cell_list.hpp"
#include "common/rng.hpp"
#include "core/brownian.hpp"
#include "core/krylov.hpp"
#include "core/system.hpp"
#include "ewald/beenakker.hpp"
#include "ewald/rpy.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matfun.hpp"

namespace hbd {
namespace {

// ---- Cell list geometry sweep -------------------------------------------------

struct CellCase {
  std::size_t n;
  double box;
  double cutoff;
};

class CellListSweep : public ::testing::TestWithParam<CellCase> {};

TEST_P(CellListSweep, MatchesBruteForce) {
  const auto [n, box, cutoff] = GetParam();
  Xoshiro256 rng(n + static_cast<std::size_t>(box));
  std::vector<Vec3> pos(n);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  CellList cl(pos, box, cutoff);
  std::set<std::pair<std::size_t, std::size_t>> found, expected;
  cl.for_each_pair([&](std::size_t i, std::size_t j, const Vec3&, double) {
    EXPECT_TRUE(found.insert({i, j}).second) << "duplicate " << i << "," << j;
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (norm(minimum_image(pos[i], pos[j], box)) <= cutoff)
        expected.insert({i, j});
  EXPECT_EQ(found, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CellListSweep,
    ::testing::Values(CellCase{20, 5.0, 2.4},    // ncell = 2 → fallback
                      CellCase{50, 9.0, 3.0},    // ncell = 3, wrap-sensitive
                      CellCase{80, 12.0, 2.9},   // ncell = 4
                      CellCase{120, 20.0, 3.0},  // many cells
                      CellCase{10, 30.0, 14.9},  // cutoff near box/2
                      CellCase{5, 8.0, 4.0},     // sparse, cutoff = box/2
                      CellCase{64, 10.0, 1.1})); // small cutoff

// ---- Krylov block-width sweep ---------------------------------------------------

class KrylovWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KrylovWidths, MatchesDenseSqrtm) {
  const std::size_t width = GetParam();
  const std::size_t n = 14;
  Xoshiro256 rng(n);
  const ParticleSystem sys = random_suspension(n, 16.0, 1.0, 2.05, rng);
  const Matrix m = rpy_mobility_dense(sys.positions, 1.0);
  Xoshiro256 zrng(width);
  const Matrix z = gaussian_block(zrng, 3 * n, width);
  KrylovConfig cfg;
  cfg.tolerance = 1e-9;
  const Matrix x = krylov_sqrt_apply(
      [&m](const Matrix& b, Matrix& mb) {
        gemm(false, false, 1.0, m, b, 0.0, mb);
      },
      z, cfg);
  const Matrix s = sqrtm_spd(m);
  Matrix expected(3 * n, width);
  gemm(false, false, 1.0, s, z, 0.0, expected);
  for (std::size_t i = 0; i < 3 * n; ++i)
    for (std::size_t c = 0; c < width; ++c)
      ASSERT_NEAR(x(i, c), expected(i, c), 1e-6) << i << "," << c;
}

INSTANTIATE_TEST_SUITE_P(Widths, KrylovWidths,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---- Ewald tolerance ladder -----------------------------------------------------

class EwaldToleranceLadder : public ::testing::TestWithParam<double> {};

TEST_P(EwaldToleranceLadder, LooserCutoffsStillWithinBudget) {
  // For a tolerance t, the dense Ewald matrix built with
  // ewald_params_for_tolerance(t) must match the tight reference within a
  // modest multiple of t.
  const double tol = GetParam();
  const double a = 1.0, box = 11.0;
  Xoshiro256 rng(7);
  const ParticleSystem sys = random_suspension(8, box, a, 2.1, rng);
  const EwaldParams tight = ewald_params_for_tolerance(box, a, 1e-13);
  const EwaldParams loose = ewald_params_for_tolerance(box, a, tol);
  const Matrix mt = ewald_mobility_dense(sys.positions, box, a, tight);
  const Matrix ml = ewald_mobility_dense(sys.positions, box, a, loose);
  double max_diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < mt.rows() * mt.cols(); ++i) {
    max_diff = std::max(max_diff, std::abs(mt.data()[i] - ml.data()[i]));
    scale = std::max(scale, std::abs(mt.data()[i]));
  }
  EXPECT_LT(max_diff / scale, 50.0 * tol) << "tol=" << tol;
}

INSTANTIATE_TEST_SUITE_P(Tolerances, EwaldToleranceLadder,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10));

// ---- Hasimoto box-size ladder -----------------------------------------------------

class HasimotoLadder : public ::testing::TestWithParam<double> {};

TEST_P(HasimotoLadder, FiniteSizeExpansionHolds) {
  const double box = GetParam();
  const EwaldParams p = ewald_params_for_tolerance(box, 1.0, 1e-12);
  // A lone particle's 3×3 matrix is its periodic self block.
  const std::vector<Vec3> one{{0.0, 0.0, 0.0}};
  const Matrix t = ewald_mobility_dense(one, box, 1.0, p);
  const double x = 1.0 / box;
  const double expected = 1.0 - 2.837297 * x +
                          4.0 * M_PI / 3.0 * x * x * x -
                          27.4 * std::pow(x, 6);
  EXPECT_NEAR(t(0, 0), expected, 5e-4) << "L=" << box;
}

INSTANTIATE_TEST_SUITE_P(Boxes, HasimotoLadder,
                         ::testing::Values(8.0, 12.0, 16.0, 24.0, 32.0));

// ---- GEMM shape sweep ---------------------------------------------------------------

struct GemmShape {
  std::size_t m, k, n;
};

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Xoshiro256 rng(m * 100 + k * 10 + n);
  Matrix a(m, k), b(k, n), c(m, n);
  fill_gaussian(rng, {a.data(), m * k});
  fill_gaussian(rng, {b.data(), k * n});
  gemm(false, false, 1.0, a, b, 0.0, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(p, j);
      ASSERT_NEAR(c(i, j), s, 1e-11 * static_cast<double>(k + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{1, 64, 1},
                                           GemmShape{64, 1, 64},
                                           GemmShape{7, 65, 3},
                                           GemmShape{65, 7, 65},
                                           GemmShape{128, 64, 2},
                                           GemmShape{3, 200, 5}));

// ---- Cholesky size ladder --------------------------------------------------------

class CholeskyLadder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyLadder, FactorReconstructs) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n);
  Matrix b(n, n);
  fill_gaussian(rng, {b.data(), n * n});
  Matrix a(n, n);
  gemm(false, true, 1.0, b, b, 0.0, a);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  const Matrix s = cholesky(a);
  Matrix rec(n, n);
  gemm(false, true, 1.0, s, s, 0.0, rec);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n * n; ++i)
    max_diff = std::max(max_diff, std::abs(a.data()[i] - rec.data()[i]));
  EXPECT_LT(max_diff, 1e-8 * static_cast<double>(n));
}

// Sizes straddle the blocked algorithm's panel width (96).
INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyLadder,
                         ::testing::Values(1, 2, 95, 96, 97, 192, 250));

// ---- RNG statistical sweep -----------------------------------------------------------

class RngSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeeds, GaussianMomentsStable) {
  Xoshiro256 rng(GetParam());
  const int n = 60000;
  double s1 = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    s1 += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s1 / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeeds,
                         ::testing::Values(1u, 42u, 31415u, 0xDEADBEEFu));

}  // namespace
}  // namespace hbd
