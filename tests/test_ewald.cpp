// Tests for the RPY tensor and Beenakker's Ewald summation.  The two
// stringent checks are (a) invariance of the summed mobility under the
// splitting parameter ξ — any error in the real-space, reciprocal-space or
// self formulas breaks it — and (b) the known Hasimoto finite-size expansion
// of the periodic single-particle mobility.  The ξ checks run on a
// brute-force per-pair oracle; the structure-factor assembly is then held to
// that oracle entry by entry.
#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "ewald/beenakker.hpp"
#include "ewald/rpy.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"

namespace hbd {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box,
                                   std::uint64_t seed, double min_sep,
                                   double radius) {
  std::vector<Vec3> pos;
  Xoshiro256 rng(seed);
  std::size_t attempts = 0;
  while (pos.size() < n) {
    // Rejection sampling only works well below the RSA jamming limit;
    // guard against pathological parameters.
    if (++attempts > 1000 * n)
      throw Error("random_positions: rejection sampling stalled");
    const Vec3 cand{box * rng.next_double(), box * rng.next_double(),
                    box * rng.next_double()};
    bool ok = true;
    for (const Vec3& p : pos) {
      Vec3 d = cand - p;
      for (int c = 0; c < 3; ++c) d[c] -= box * std::round(d[c] / box);
      if (norm(d) < min_sep * radius) {
        ok = false;
        break;
      }
    }
    if (ok) pos.push_back(cand);
  }
  return pos;
}

/// Brute-force periodic pair tensor M_ij: every real-space image within
/// rcut and every reciprocal wave vector, re-evaluated from scratch for the
/// one displacement (any representative; the result is lattice-periodic).
/// Self + overlap terms as in the assembly.  The oracle for
/// ewald_mobility_dense.
std::array<double, 9> brute_force_pair_tensor(const Vec3& rij_in,
                                              bool self_pair, double box,
                                              double a, const EwaldParams& p) {
  std::array<double, 9> out{};
  Vec3 rij = rij_in;
  for (int d = 0; d < 3; ++d) rij[d] -= box * std::round(rij[d] / box);

  const int lmax = static_cast<int>(std::ceil(p.rcut / box + 0.5));
  for (int lx = -lmax; lx <= lmax; ++lx)
    for (int ly = -lmax; ly <= lmax; ++ly)
      for (int lz = -lmax; lz <= lmax; ++lz) {
        const Vec3 rl{rij.x + box * lx, rij.y + box * ly, rij.z + box * lz};
        const double r = norm(rl);
        if (r > p.rcut) continue;
        if (self_pair && r == 0.0) continue;  // l = 0 skipped for i == j
        std::array<double, 9> b;
        pair_tensor(rl, beenakker_real(r, a, p.xi), b);
        for (int t = 0; t < 9; ++t) out[t] += b[t];
      }

  const double two_pi_over_l = 2.0 * std::numbers::pi / box;
  const double inv_v = 1.0 / (box * box * box);
  for (int hx = -p.kmax; hx <= p.kmax; ++hx)
    for (int hy = -p.kmax; hy <= p.kmax; ++hy)
      for (int hz = -p.kmax; hz <= p.kmax; ++hz) {
        if (hx == 0 && hy == 0 && hz == 0) continue;
        const Vec3 k{two_pi_over_l * hx, two_pi_over_l * hy,
                     two_pi_over_l * hz};
        const double k2 = norm2(k);
        const double c =
            beenakker_recip(k2, a, p.xi) * inv_v * std::cos(dot(k, rij));
        for (int r = 0; r < 3; ++r)
          for (int col = 0; col < 3; ++col)
            out[3 * r + col] +=
                c * ((r == col ? 1.0 : 0.0) - k[r] * k[col] / k2);
      }

  if (self_pair) {
    const double s0 = beenakker_self(a, p.xi);
    out[0] += s0;
    out[4] += s0;
    out[8] += s0;
  } else {
    const double r = norm(rij);
    if (r < 2.0 * a) {
      std::array<double, 9> b;
      pair_tensor(rij, rpy_overlap_correction(r, a), b);
      for (int t = 0; t < 9; ++t) out[t] += b[t];
    }
  }
  return out;
}

/// Self block of a lone particle from the production assembly.
std::array<double, 9> assembled_self_block(double box, double a,
                                           const EwaldParams& p) {
  const std::vector<Vec3> one{{0.0, 0.0, 0.0}};
  const Matrix m = ewald_mobility_dense(one, box, a, p);
  std::array<double, 9> t;
  std::copy(m.data(), m.data() + 9, t.begin());
  return t;
}

TEST(Rpy, PairCoeffsFarField) {
  // At large separation the leading term is the Oseen-like 3a/4r.
  const double a = 1.0, r = 100.0;
  const PairCoeffs c = rpy_pair(r, a);
  EXPECT_NEAR(c.f, 0.75 * a / r, 1e-5);
  EXPECT_NEAR(c.g, 0.75 * a / r, 1e-5);
}

TEST(Rpy, OverlapBranchContinuousAtContact) {
  const double a = 1.3;
  const PairCoeffs below = rpy_pair(2.0 * a * (1.0 - 1e-12), a);
  const PairCoeffs above = rpy_pair(2.0 * a * (1.0 + 1e-12), a);
  EXPECT_NEAR(below.f, above.f, 1e-9);
  EXPECT_NEAR(below.g, above.g, 1e-9);
}

TEST(Rpy, OverlapLimitAtZeroDistanceIsSelfMobility) {
  // r → 0 of the overlap form gives the single-particle mobility (f → 1).
  const PairCoeffs c = rpy_pair(1e-12, 1.0);
  EXPECT_NEAR(c.f, 1.0, 1e-10);
  EXPECT_NEAR(c.g, 0.0, 1e-10);
}

TEST(Rpy, DenseMatrixSymmetricPositiveDefinite) {
  const double a = 1.0, box = 30.0;
  const auto pos = random_positions(20, box, 11, 2.1, a);
  const Matrix m = rpy_mobility_dense(pos, a);
  EXPECT_LT(m.asymmetry(), 1e-14);
  EXPECT_NO_THROW(cholesky(m));  // SPD
}

TEST(Rpy, MobilityPositiveDefiniteEvenWithOverlaps) {
  // Overlapping particles (no minimum separation) must still give SPD via
  // the Rotne–Prager overlap correction.
  const double a = 1.0, box = 6.0;
  const auto pos = random_positions(15, box, 13, 0.0, a);
  const Matrix m = rpy_mobility_dense(pos, a);
  EXPECT_NO_THROW(cholesky(m));
}

TEST(Rpy, PairTensorMatchesDefinition) {
  const Vec3 rij{1.0, 2.0, -2.0};  // |r| = 3
  const PairCoeffs c = rpy_pair(3.0, 1.0);
  std::array<double, 9> b;
  pair_tensor(rij, c, b);
  const Vec3 rhat = normalized(rij);
  for (int r = 0; r < 3; ++r)
    for (int col = 0; col < 3; ++col)
      EXPECT_NEAR(b[3 * r + col],
                  c.f * (r == col ? 1.0 : 0.0) + c.g * rhat[r] * rhat[col],
                  1e-14);
}

// ---- Beenakker Ewald -------------------------------------------------------

TEST(Beenakker, RealSpaceDecays) {
  const double a = 1.0, xi = 0.5;
  const PairCoeffs far = beenakker_real(20.0, a, xi);
  EXPECT_LT(std::abs(far.f), 1e-12);
  EXPECT_LT(std::abs(far.g), 1e-12);
}

TEST(Beenakker, RecipDecays) {
  const double a = 1.0, xi = 0.5;
  EXPECT_LT(beenakker_recip(400.0, a, xi), 1e-10);
}

TEST(Beenakker, XiLimitRealSpaceIsFreeRpy) {
  // As ξ → 0 the real-space term alone becomes the free-space RPY tensor.
  const double a = 1.0, xi = 1e-6;
  for (double r : {2.5, 4.0, 10.0}) {
    const PairCoeffs be = beenakker_real(r, a, xi);
    const PairCoeffs free = rpy_pair(r, a);
    EXPECT_NEAR(be.f, free.f, 1e-5) << "r=" << r;
    EXPECT_NEAR(be.g, free.g, 1e-5) << "r=" << r;
  }
}

TEST(Beenakker, SelfTermXiZeroLimit) {
  EXPECT_NEAR(beenakker_self(1.0, 1e-12), 1.0, 1e-10);
}

class EwaldXiIndependence : public ::testing::TestWithParam<double> {};

TEST_P(EwaldXiIndependence, PairTensorIndependentOfXi) {
  const double a = 1.0, box = 12.0;
  const double xi_scale = GetParam();
  const double tol = 1e-10;

  EwaldParams base = ewald_params_for_tolerance(box, a, tol);
  EwaldParams varied = base;
  varied.xi *= xi_scale;
  // Re-derive cutoffs for the varied ξ to keep both half-sums converged.
  const double s = std::sqrt(-std::log(tol)) + 1.0;
  varied.rcut = s / varied.xi;
  varied.kmax = static_cast<int>(
      std::ceil(2.0 * varied.xi * s * box / (2.0 * M_PI)));

  const Vec3 rij{3.1, -1.7, 4.9};
  auto t0 = brute_force_pair_tensor(rij, false, box, a, base);
  auto t1 = brute_force_pair_tensor(rij, false, box, a, varied);
  for (int t = 0; t < 9; ++t) EXPECT_NEAR(t0[t], t1[t], 1e-8) << "entry " << t;

  // Self pair too (exercises the self-term formula).
  t0 = brute_force_pair_tensor({0, 0, 0}, true, box, a, base);
  t1 = brute_force_pair_tensor({0, 0, 0}, true, box, a, varied);
  for (int t = 0; t < 9; ++t) EXPECT_NEAR(t0[t], t1[t], 1e-8) << "self " << t;
}

INSTANTIATE_TEST_SUITE_P(XiScales, EwaldXiIndependence,
                         ::testing::Values(0.6, 0.8, 1.25, 1.6, 2.0));

TEST(Ewald, HasimotoFiniteSizeExpansion) {
  // Periodic self-mobility of an isolated particle:
  //   μ/μ0 = 1 − 2.837297 (a/L) + (4π/3)(a/L)³ − 27.4 (a/L)⁶ + …
  const double a = 1.0;
  for (double box : {20.0, 40.0}) {
    const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-12);
    const std::array<double, 9> t = assembled_self_block(box, a, p);
    const double x = a / box;
    const double expected =
        1.0 - 2.837297 * x + 4.0 * M_PI / 3.0 * x * x * x -
        27.4 * std::pow(x, 6);
    EXPECT_NEAR(t[0], expected, 2e-5) << "L=" << box;
    EXPECT_NEAR(t[4], expected, 2e-5);
    EXPECT_NEAR(t[8], expected, 2e-5);
    // Off-diagonals vanish by cubic symmetry.
    EXPECT_NEAR(t[1], 0.0, 1e-10);
    EXPECT_NEAR(t[2], 0.0, 1e-10);
    EXPECT_NEAR(t[5], 0.0, 1e-10);
  }
}

TEST(Ewald, PairTensorPeriodicInBox) {
  const double a = 1.0, box = 10.0;
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-8);
  const Vec3 rij{2.0, -3.0, 1.5};
  const Vec3 shifted{2.0 + box, -3.0 - 2 * box, 1.5 + box};
  const auto t0 = brute_force_pair_tensor(rij, false, box, a, p);
  const auto t1 = brute_force_pair_tensor(shifted, false, box, a, p);
  for (int t = 0; t < 9; ++t) EXPECT_NEAR(t0[t], t1[t], 1e-12);
}

TEST(Ewald, DenseMatrixSymmetricSpd) {
  const double a = 1.0, box = 14.0;
  const auto pos = random_positions(12, box, 29, 2.1, a);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-8);
  const Matrix m = ewald_mobility_dense(pos, box, a, p);
  EXPECT_LT(m.asymmetry(), 1e-10);
  EXPECT_NO_THROW(cholesky(m));
}

TEST(Ewald, ApplyMatchesDense) {
  const double a = 1.0, box = 14.0;
  const auto pos = random_positions(10, box, 31, 2.1, a);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-8);
  const Matrix m = ewald_mobility_dense(pos, box, a, p);

  std::vector<double> x(3 * pos.size()), y_dense(3 * pos.size(), 0.0),
      y_apply(3 * pos.size(), 0.0);
  Xoshiro256 rng(32);
  fill_gaussian(rng, x);
  gemv(1.0, m, x, 0.0, y_dense);
  ewald_mobility_apply(pos, box, a, p, x, y_apply);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y_apply[i], y_dense[i], 1e-11);
}

// ---- Structure-factor assembly against the brute-force oracle ---------------

/// n = 48 at Φ ≈ 0.2 with separations down to 1.5a, so overlap pairs
/// (r < 2a) are exercised too.
std::vector<Vec3> oracle_positions(double box) {
  return random_positions(48, box, 53, 1.5, 1.0);
}
constexpr double kOracleBox = 10.0;

class EwaldAssemblyOracle : public ::testing::TestWithParam<double> {};

TEST_P(EwaldAssemblyOracle, EveryEntryMatchesBruteForce) {
  const double a = 1.0, box = kOracleBox;
  const auto pos = oracle_positions(box);
  const EwaldParams p = ewald_params_for_tolerance(box, a, GetParam());
  const Matrix m = ewald_mobility_dense(pos, box, a, p);
  double worst = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const auto b = brute_force_pair_tensor(pos[i] - pos[j], i == j, box, a, p);
      for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
          worst = std::max(worst,
                           std::abs(m(3 * i + r, 3 * j + c) - b[3 * r + c]));
    }
  EXPECT_LT(worst, 1e-13) << "tol=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Tolerances, EwaldAssemblyOracle,
                         ::testing::Values(1e-2, 1e-6, 1e-12));

TEST(Ewald, ApplyMatchesDenseAcrossTolerances) {
  const double a = 1.0, box = kOracleBox;
  const auto pos = oracle_positions(box);
  std::vector<double> x(3 * pos.size()), y_dense(x.size()), y_apply(x.size());
  Xoshiro256 rng(59);
  fill_gaussian(rng, x);
  for (double tol : {1e-2, 1e-6, 1e-12}) {
    const EwaldParams p = ewald_params_for_tolerance(box, a, tol);
    gemv(1.0, ewald_mobility_dense(pos, box, a, p), x, 0.0, y_dense);
    ewald_mobility_apply(pos, box, a, p, x, y_apply);
    double diff2 = 0.0, ref2 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      diff2 += (y_apply[i] - y_dense[i]) * (y_apply[i] - y_dense[i]);
      ref2 += y_dense[i] * y_dense[i];
    }
    EXPECT_LT(std::sqrt(diff2 / ref2), 1e-13) << "tol=" << tol;
  }
}

TEST(Ewald, AssemblyBitwiseAcrossThreadCounts) {
  const double a = 1.0, box = kOracleBox;
  const auto pos = oracle_positions(box);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-6);
  const int saved = omp_get_max_threads();
  std::vector<Matrix> ms;
  std::vector<std::vector<double>> ys;
  std::vector<double> x(3 * pos.size());
  Xoshiro256 rng(61);
  fill_gaussian(rng, x);
  for (int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    ms.push_back(ewald_mobility_dense(pos, box, a, p));
    ys.emplace_back(x.size());
    ewald_mobility_apply(pos, box, a, p, x, ys.back());
  }
  omp_set_num_threads(saved);
  const std::size_t bytes = ms[0].rows() * ms[0].cols() * sizeof(double);
  for (std::size_t t = 1; t < ms.size(); ++t) {
    EXPECT_EQ(std::memcmp(ms[0].data(), ms[t].data(), bytes), 0) << t;
    EXPECT_EQ(std::memcmp(ys[0].data(), ys[t].data(),
                          x.size() * sizeof(double)),
              0)
        << t;
  }
}

TEST(Ewald, InPlaceAssemblyMatchesByValue) {
  // The in-place overload reuses (and if needed reshapes) the caller's
  // matrix; stale contents must not leak into the result.
  const double a = 1.0, box = kOracleBox;
  const auto pos = oracle_positions(box);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-2);
  const Matrix expected = ewald_mobility_dense(pos, box, a, p);
  Matrix reused(3 * pos.size(), 3 * pos.size());
  reused.fill(7.0);
  Matrix reshaped(5, 3);
  ewald_mobility_dense(pos, box, a, p, reused);
  ewald_mobility_dense(pos, box, a, p, reshaped);
  const std::size_t bytes = expected.rows() * expected.cols() * sizeof(double);
  EXPECT_EQ(std::memcmp(expected.data(), reused.data(), bytes), 0);
  ASSERT_EQ(reshaped.rows(), expected.rows());
  ASSERT_EQ(reshaped.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(expected.data(), reshaped.data(), bytes), 0);
}

TEST(Ewald, TranslationInvariance) {
  const double a = 1.0, box = 12.0;
  auto pos = random_positions(8, box, 41, 2.1, a);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-8);
  const Matrix m0 = ewald_mobility_dense(pos, box, a, p);
  const Vec3 shift{1.234, -4.2, 0.77};
  for (Vec3& r : pos) r += shift;
  const Matrix m1 = ewald_mobility_dense(pos, box, a, p);
  double maxdiff = 0.0;
  for (std::size_t i = 0; i < m0.rows() * m0.cols(); ++i)
    maxdiff = std::max(maxdiff, std::abs(m0.data()[i] - m1.data()[i]));
  EXPECT_LT(maxdiff, 1e-10);
}

TEST(Ewald, CrowdedSystemStillSpd) {
  // Dense suspension at volume fraction 0.3 (below the RSA jamming limit);
  // the Ewald-summed RPY must stay SPD.
  const double a = 1.0;
  const std::size_t n = 30;
  const double box = std::cbrt(n * 4.0 * M_PI / (3.0 * 0.3));
  const auto pos = random_positions(n, box, 47, 2.01, a);
  const EwaldParams p = ewald_params_for_tolerance(box, a, 1e-8);
  const Matrix m = ewald_mobility_dense(pos, box, a, p);
  EXPECT_NO_THROW(cholesky(m));
}


// ---- Oseen / Stokeslet kernel ------------------------------------------------

TEST(Oseen, FreeSpaceFarField) {
  const PairCoeffs c = oseen_pair(10.0, 1.0);
  EXPECT_DOUBLE_EQ(c.f, 0.075);
  EXPECT_DOUBLE_EQ(c.g, 0.075);
}

TEST(Oseen, RealSpaceXiZeroLimitIsFreeOseen) {
  const double a = 1.0, xi = 1e-7;
  for (double r : {2.0, 5.0, 12.0}) {
    const PairCoeffs be = oseen_real(r, a, xi);
    const PairCoeffs free = oseen_pair(r, a);
    EXPECT_NEAR(be.f, free.f, 1e-6) << "r=" << r;
    EXPECT_NEAR(be.g, free.g, 1e-6) << "r=" << r;
  }
}

TEST(Oseen, IsLargeRadiusLimitOfBeenakker) {
  // The RPY split minus the Oseen split must contain only a³ terms: their
  // difference vanishes cubically as a → 0 at fixed r, ξ.
  const double r = 3.0, xi = 0.7;
  const double a1 = 1e-2, a2 = 5e-3;
  auto diff = [&](double a) {
    const PairCoeffs rpy = beenakker_real(r, a, xi);
    const PairCoeffs os = oseen_real(r, a, xi);
    return std::abs(rpy.f - os.f) + std::abs(rpy.g - os.g);
  };
  // Halving a shrinks the difference by ~8x (cubic).
  EXPECT_NEAR(diff(a1) / diff(a2), 8.0, 0.2);
  EXPECT_NEAR((beenakker_recip(2.0, a1, xi) - oseen_recip(2.0, a1, xi)) /
                  (beenakker_recip(2.0, a2, xi) - oseen_recip(2.0, a2, xi)),
              8.0, 1e-6);
  EXPECT_NEAR((beenakker_self(a1, xi) - oseen_self(a1, xi)) /
                  (beenakker_self(a2, xi) - oseen_self(a2, xi)),
              8.0, 1e-9);
}

TEST(Oseen, EwaldSumXiIndependent) {
  // Assemble the Oseen Ewald pair sum directly from the three parts at two
  // splitting parameters; the totals must agree.
  const double a = 1.0, box = 12.0;
  const Vec3 rij{3.1, -1.7, 4.9};
  auto total = [&](double xi) {
    std::array<double, 9> out{};
    const double s = std::sqrt(-std::log(1e-12)) + 1.0;
    const double rcut = s / xi;
    const int lmax = static_cast<int>(std::ceil(rcut / box + 0.5));
    for (int lx = -lmax; lx <= lmax; ++lx)
      for (int ly = -lmax; ly <= lmax; ++ly)
        for (int lz = -lmax; lz <= lmax; ++lz) {
          const Vec3 rl{rij.x + box * lx, rij.y + box * ly,
                        rij.z + box * lz};
          const double r = norm(rl);
          if (r > rcut) continue;
          std::array<double, 9> b;
          pair_tensor(rl, oseen_real(r, a, xi), b);
          for (int t = 0; t < 9; ++t) out[t] += b[t];
        }
    const int kmax = static_cast<int>(
        std::ceil(2.0 * xi * s * box / (2.0 * M_PI)));
    const double two_pi_over_l = 2.0 * M_PI / box;
    const double inv_v = 1.0 / (box * box * box);
    for (int hx = -kmax; hx <= kmax; ++hx)
      for (int hy = -kmax; hy <= kmax; ++hy)
        for (int hz = -kmax; hz <= kmax; ++hz) {
          if (hx == 0 && hy == 0 && hz == 0) continue;
          const Vec3 k{two_pi_over_l * hx, two_pi_over_l * hy,
                       two_pi_over_l * hz};
          const double k2 = norm2(k);
          const double c =
              oseen_recip(k2, a, xi) * inv_v * std::cos(dot(k, rij));
          const double ik2 = 1.0 / k2;
          out[0] += c * (1.0 - k.x * k.x * ik2);
          out[1] += c * (-k.x * k.y * ik2);
          out[2] += c * (-k.x * k.z * ik2);
          out[3] += c * (-k.y * k.x * ik2);
          out[4] += c * (1.0 - k.y * k.y * ik2);
          out[5] += c * (-k.y * k.z * ik2);
          out[6] += c * (-k.z * k.x * ik2);
          out[7] += c * (-k.z * k.y * ik2);
          out[8] += c * (1.0 - k.z * k.z * ik2);
        }
    return out;
  };
  const auto t1 = total(0.3);
  const auto t2 = total(0.55);
  for (int t = 0; t < 9; ++t) EXPECT_NEAR(t1[t], t2[t], 1e-8) << t;
}

}  // namespace
}  // namespace hbd
