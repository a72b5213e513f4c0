// Tests for the core BD machinery: system initializers, forces, cell lists,
// the block Krylov sampler against dense references, and end-to-end BD
// integration checks (free diffusion, dense vs matrix-free agreement).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "common/cell_list.hpp"
#include "core/brownian.hpp"
#include "core/diffusion.hpp"
#include "core/forces.hpp"
#include "core/krylov.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "ewald/rpy.hpp"
#include "linalg/blas.hpp"
#include "linalg/matfun.hpp"
#include "pme/params.hpp"

namespace hbd {
namespace {

// ---- System initializers ----------------------------------------------------

TEST(System, RandomSuspensionRespectsMinSeparation) {
  Xoshiro256 rng(1);
  const ParticleSystem sys = random_suspension(50, 20.0, 1.0, 2.0, rng);
  EXPECT_EQ(sys.size(), 50u);
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      EXPECT_GE(norm(minimum_image(sys.positions[i], sys.positions[j], 20.0)),
                2.0 - 1e-12);
}

TEST(System, LatticeSuspensionNoOverlapAtHighDensity) {
  Xoshiro256 rng(2);
  const ParticleSystem sys = suspension_at_volume_fraction(125, 0.4, 1.0, rng);
  EXPECT_NEAR(sys.volume_fraction(), 0.4, 1e-12);
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      EXPECT_GT(
          norm(minimum_image(sys.positions[i], sys.positions[j], sys.box)),
          1.0);  // no deep overlap
}

TEST(System, WrappedPositionsInBox) {
  ParticleSystem sys;
  sys.box = 5.0;
  sys.positions = {{-1.0, 7.3, 12.1}, {2.0, 3.0, 4.0}};
  for (const Vec3& p : sys.wrapped_positions())
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(p[d], 0.0);
      EXPECT_LT(p[d], 5.0);
    }
}

// ---- Cell list ----------------------------------------------------------------

TEST(CellList, FindsExactlyTheCutoffPairs) {
  Xoshiro256 rng(3);
  const ParticleSystem sys = random_suspension(60, 15.0, 1.0, 0.5, rng);
  const double cutoff = 3.3;
  CellList cl(sys.positions, sys.box, cutoff);
  std::set<std::pair<std::size_t, std::size_t>> found;
  cl.for_each_pair([&](std::size_t i, std::size_t j, const Vec3&, double) {
    auto [it, inserted] = found.insert({i, j});
    EXPECT_TRUE(inserted) << "duplicate pair " << i << "," << j;
  });
  std::set<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      if (norm(minimum_image(sys.positions[i], sys.positions[j], sys.box)) <=
          cutoff)
        expected.insert({i, j});
  EXPECT_EQ(found, expected);
}

TEST(CellList, NeighborSweepSeesBothSides) {
  Xoshiro256 rng(4);
  const ParticleSystem sys = random_suspension(40, 12.0, 1.0, 0.5, rng);
  CellList cl(sys.positions, sys.box, 3.0);
  std::vector<int> degree_pairwise(sys.size(), 0), degree_sweep(sys.size(), 0);
  cl.for_each_pair([&](std::size_t i, std::size_t j, const Vec3&, double) {
    ++degree_pairwise[i];
    ++degree_pairwise[j];
  });
  std::mutex m;
  cl.for_each_neighbor_of_all(
      [&](std::size_t i, std::size_t, const Vec3&, double) {
        std::lock_guard<std::mutex> lock(m);
        ++degree_sweep[i];
      });
  EXPECT_EQ(degree_pairwise, degree_sweep);
}

// ---- Forces -------------------------------------------------------------------

TEST(Forces, RepulsionPushesApartAndConservesMomentum) {
  ParticleSystem sys;
  sys.box = 20.0;
  sys.radius = 1.0;
  sys.positions = {{5.0, 5.0, 5.0}, {6.5, 5.0, 5.0}};  // overlap: r = 1.5 < 2
  RepulsiveHarmonic rep(1.0);
  std::vector<double> f(6, 0.0);
  rep.add_forces(sys.positions, sys.box, f);
  // Particle 0 pushed in −x, particle 1 in +x, magnitude 125·(2−1.5).
  EXPECT_NEAR(f[0], -125.0 * 0.5, 1e-12);
  EXPECT_NEAR(f[3], +125.0 * 0.5, 1e-12);
  EXPECT_NEAR(f[0] + f[3], 0.0, 1e-12);
  EXPECT_NEAR(f[1], 0.0, 1e-12);
  EXPECT_NEAR(f[4], 0.0, 1e-12);
}

TEST(Forces, NoRepulsionBeyondContact) {
  ParticleSystem sys;
  sys.box = 20.0;
  sys.positions = {{5.0, 5.0, 5.0}, {7.5, 5.0, 5.0}};  // r = 2.5 > 2a
  RepulsiveHarmonic rep(1.0);
  std::vector<double> f(6, 0.0);
  rep.add_forces(sys.positions, sys.box, f);
  for (double v : f) EXPECT_EQ(v, 0.0);
}

TEST(Forces, RepulsionActsAcrossPeriodicBoundary) {
  ParticleSystem sys;
  sys.box = 10.0;
  sys.positions = {{0.3, 5.0, 5.0}, {9.2, 5.0, 5.0}};  // image distance 1.1
  RepulsiveHarmonic rep(1.0);
  std::vector<double> f(6, 0.0);
  rep.add_forces(sys.positions, sys.box, f);
  EXPECT_GT(f[0], 0.0);  // pushed in +x, away through the boundary? sign:
  // r01 = r0 − r1 minimum image = 0.3 − 9.2 + 10 = 1.1 > 0 → f0 along +x.
  EXPECT_NEAR(f[0], 125.0 * (2.0 - 1.1) * 1.0, 1e-9);
  EXPECT_NEAR(f[3], -f[0], 1e-9);
}

TEST(Forces, HarmonicBondRestoring) {
  std::vector<HarmonicBonds::Bond> bonds{{0, 1, 2.0, 10.0}};
  HarmonicBonds hb(bonds);
  std::vector<Vec3> pos{{0, 0, 0}, {3.0, 0, 0}};  // stretched by 1
  std::vector<double> f(6, 0.0);
  hb.add_forces(pos, 100.0, f);
  EXPECT_NEAR(f[0], 10.0, 1e-12);   // pulled toward +x? r01 = −3x̂ →
  EXPECT_NEAR(f[3], -10.0, 1e-12);  // particle 1 pulled toward 0
}

TEST(Forces, CompositeSums) {
  auto uniform = std::make_shared<UniformForce>(Vec3{0, 0, -1.0});
  CompositeForce comp;
  comp.add(uniform);
  comp.add(uniform);
  std::vector<Vec3> pos{{1, 1, 1}};
  std::vector<double> f(3, 0.0);
  comp.add_forces(pos, 10.0, f);
  EXPECT_NEAR(f[2], -2.0, 1e-15);
}

// ---- Krylov sampler -----------------------------------------------------------

Matrix rpy_mobility_for_test(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const ParticleSystem sys = random_suspension(n, 18.0, 1.0, 2.05, rng);
  return rpy_mobility_dense(sys.positions, 1.0);
}

/// Y = M X through the explicit matrix: the block apply the square roots
/// take (`m` must outlive the callable).
BlockApply dense_apply(const Matrix& m) {
  return [&m](const Matrix& x, Matrix& y) {
    gemm(false, false, 1.0, m, x, 0.0, y);
  };
}

TEST(Krylov, MatchesDenseSqrtmTightTolerance) {
  const std::size_t n = 20;
  const Matrix m = rpy_mobility_for_test(n, 11);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(12);
  const Matrix z = gaussian_block(rng, 3 * n, 4);

  KrylovConfig cfg;
  cfg.tolerance = 1e-10;
  KrylovStats stats;
  const Matrix x = krylov_sqrt_apply(mob, z, cfg, &stats);
  EXPECT_TRUE(stats.converged);

  const Matrix s = sqrtm_spd(m);
  Matrix expected(3 * n, 4);
  gemm(false, false, 1.0, s, z, 0.0, expected);
  for (std::size_t i = 0; i < 3 * n; ++i)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_NEAR(x(i, c), expected(i, c), 1e-7) << i << "," << c;
}

TEST(Krylov, LooseToleranceFewerIterations) {
  const std::size_t n = 30;
  const Matrix m = rpy_mobility_for_test(n, 21);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(22);
  const Matrix z = gaussian_block(rng, 3 * n, 8);

  KrylovConfig tight;
  tight.tolerance = 1e-8;
  KrylovStats st_tight;
  krylov_sqrt_apply(mob, z, tight, &st_tight);

  KrylovConfig loose;
  loose.tolerance = 1e-2;
  KrylovStats st_loose;
  krylov_sqrt_apply(mob, z, loose, &st_loose);

  EXPECT_TRUE(st_tight.converged);
  EXPECT_TRUE(st_loose.converged);
  EXPECT_LE(st_loose.iterations, st_tight.iterations);
}

TEST(Krylov, SingleVectorWorks) {
  const std::size_t n = 15;
  const Matrix m = rpy_mobility_for_test(n, 31);
  const BlockApply mob = dense_apply(m);
  Xoshiro256 rng(32);
  const Matrix z = gaussian_block(rng, 3 * n, 1);
  KrylovConfig cfg;
  cfg.tolerance = 1e-9;
  const Matrix x = krylov_sqrt_apply(mob, z, cfg);
  // Check ⟨x, x⟩ = ⟨z, M z⟩ (property of the square root).
  std::vector<double> zv(3 * n), mz(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) zv[i] = z(i, 0);
  gemv(1.0, m, zv, 0.0, mz);
  double xx = 0.0;
  for (std::size_t i = 0; i < 3 * n; ++i) xx += x(i, 0) * x(i, 0);
  EXPECT_NEAR(xx, dot(zv, mz), 1e-6 * std::abs(xx));
}

TEST(Krylov, IdentityOperatorConvergesImmediately) {
  const std::size_t d = 30;
  Matrix eye(d, d);
  for (std::size_t i = 0; i < d; ++i) eye(i, i) = 1.0;
  const BlockApply mob = dense_apply(eye);
  Xoshiro256 rng(41);
  const Matrix z = gaussian_block(rng, d, 3);
  KrylovConfig cfg;
  cfg.tolerance = 1e-8;
  KrylovStats stats;
  const Matrix x = krylov_sqrt_apply(mob, z, cfg, &stats);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(x(i, c), z(i, c), 1e-10);
  EXPECT_LE(stats.iterations, 3);
}

TEST(BrownianSampler, CovarianceMatchesMobility) {
  // Statistical check: sample many blocks from the Cholesky sampler and
  // compare the empirical covariance of a low-dimensional projection.
  const std::size_t n = 6;
  const Matrix m = rpy_mobility_for_test(n, 51);
  CholeskyBrownianSampler sampler(m);
  Xoshiro256 rng(52);
  const double two_kbt_dt = 0.02;
  const int samples = 4000;
  Matrix cov(3 * n, 3 * n);
  for (int it = 0; it < samples; ++it) {
    const Matrix z = gaussian_block(rng, 3 * n, 1);
    const Matrix d = sampler.sample_block(z, two_kbt_dt);
    for (std::size_t i = 0; i < 3 * n; ++i)
      for (std::size_t j = 0; j < 3 * n; ++j)
        cov(i, j) += d(i, 0) * d(j, 0);
  }
  scal(1.0 / samples, {cov.data(), cov.rows() * cov.cols()});
  // Compare against 2 kBT Δt · M with a statistical tolerance.
  double max_err = 0.0;
  for (std::size_t i = 0; i < 3 * n; ++i)
    for (std::size_t j = 0; j < 3 * n; ++j)
      max_err = std::max(max_err,
                         std::abs(cov(i, j) - two_kbt_dt * m(i, j)));
  EXPECT_LT(max_err, 6.0 * two_kbt_dt / std::sqrt(samples));
}

TEST(BrownianSampler, KrylovAndCholeskyAgreeInDistribution) {
  // With the same Z and a tight tolerance, Krylov M^{1/2}Z and Cholesky S·Z
  // differ (different square roots) but ⟨column, column⟩ statistics match:
  // ‖X‖² has expectation tr(M)·2kBTΔt for both.
  const std::size_t n = 12;
  const Matrix m = rpy_mobility_for_test(n, 61);
  const BlockApply mob = dense_apply(m);
  CholeskyBrownianSampler chol(m);
  KrylovConfig cfg;
  cfg.tolerance = 1e-10;
  Xoshiro256 rng(62);
  double sum_c = 0.0, sum_k = 0.0;
  const int reps = 200;
  for (int it = 0; it < reps; ++it) {
    const Matrix z = gaussian_block(rng, 3 * n, 1);
    const Matrix dc = chol.sample_block(z, 1.0);
    const Matrix dk = krylov_sqrt_apply(mob, z, cfg);
    for (std::size_t i = 0; i < 3 * n; ++i) {
      sum_c += dc(i, 0) * dc(i, 0);
      sum_k += dk(i, 0) * dk(i, 0);
    }
  }
  EXPECT_NEAR(sum_k / sum_c, 1.0, 0.05);
}

// ---- MSD / diffusion -----------------------------------------------------------

TEST(Msd, LinearMotionGivesQuadraticMsd) {
  MsdRecorder rec;
  for (int t = 0; t < 5; ++t)
    rec.record({{static_cast<double>(t), 0.0, 0.0}});
  EXPECT_NEAR(rec.msd(1), 1.0, 1e-12);
  EXPECT_NEAR(rec.msd(2), 4.0, 1e-12);
  EXPECT_NEAR(rec.msd(3), 9.0, 1e-12);
}

TEST(Msd, TheoryCurveDecreasesWithDensity) {
  EXPECT_NEAR(short_time_self_diffusion(0.0), 1.0, 1e-15);
  EXPECT_GT(short_time_self_diffusion(0.1), short_time_self_diffusion(0.2));
  EXPECT_GT(short_time_self_diffusion(0.3), short_time_self_diffusion(0.4));
}

// ---- BD integration -------------------------------------------------------------

TEST(BdIntegration, FreeDiffusionMatchesEinstein) {
  // A dilute unforced suspension must diffuse with D ≈ D0·(periodic
  // finite-size correction).  Run matrix-free BD and check the MSD slope.
  Xoshiro256 rng(71);
  ParticleSystem sys = suspension_at_volume_fraction(30, 0.01, 1.0, rng);
  const double box = sys.box;
  BdConfig cfg;
  cfg.dt = 5e-4;
  cfg.lambda_rpy = 8;
  cfg.seed = 72;
  const PmeParams pme = choose_pme_params(box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, cfg, pme, 1e-3);

  MsdRecorder rec;
  rec.record(sim.system().positions);
  const int snapshots = 60;
  for (int s = 0; s < snapshots; ++s) {
    sim.step(4);
    rec.record(sim.system().positions);
  }
  const double d_measured = rec.diffusion_coefficient(5, 4 * cfg.dt);
  // Finite-size (Hasimoto) correction at this φ ≈ 1 − 2.837·a/L.
  const double d_expected = 1.0 - 2.837297 / box;
  EXPECT_NEAR(d_measured, d_expected, 0.12);
}

TEST(BdIntegration, DenseAndMatrixFreeStatisticallyConsistent) {
  // Same system, same seeds: the dense tier (Algorithm 1) and the PME tier
  // (Algorithm 2) draw from (numerically different but statistically
  // identical) N(0, 2kBTΔtM).  Compare ⟨MSD⟩ over a short run within a
  // generous statistical band.
  auto make_system = [] {
    Xoshiro256 rng(81);
    return suspension_at_volume_fraction(24, 0.1, 1.0, rng);
  };
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  BdConfig cfg;
  cfg.dt = 2e-4;
  cfg.lambda_rpy = 4;
  cfg.seed = 82;

  const PmeParams pme = choose_pme_params(make_system().box, 1.0, 1e-4);
  MatrixFreeBdSimulation dense(make_system(), forces, cfg, pme, 1e-4);
  dense.set_tier(MobilityTier::dense);
  MatrixFreeBdSimulation mf(make_system(), forces, cfg, pme, 1e-4);

  MsdRecorder rd, rm;
  rd.record(dense.system().positions);
  rm.record(mf.system().positions);
  for (int s = 0; s < 40; ++s) {
    dense.step(2);
    mf.step(2);
    rd.record(dense.system().positions);
    rm.record(mf.system().positions);
  }
  const double dd = rd.diffusion_coefficient(4, 2 * cfg.dt);
  const double dm = rm.diffusion_coefficient(4, 2 * cfg.dt);
  EXPECT_NEAR(dm / dd, 1.0, 0.15);
}

TEST(BdIntegration, DeterministicForFixedSeed) {
  auto make = [] {
    Xoshiro256 rng(91);
    ParticleSystem sys = suspension_at_volume_fraction(16, 0.1, 1.0, rng);
    BdConfig cfg;
    cfg.dt = 1e-4;
    cfg.lambda_rpy = 4;
    cfg.seed = 92;
    const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
    MatrixFreeBdSimulation sim(std::move(sys),
                               std::make_shared<RepulsiveHarmonic>(1.0), cfg,
                               pme, 1e-3);
    sim.step(12);
    return sim.system().positions;
  };
  const auto a = make();
  const auto b = make();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].z, b[i].z);
  }
}

TEST(BdIntegration, SedimentationDriftMatchesStokes) {
  // A single particle under constant force F drifts with v = μ0·F·(1 + P.B.
  // correction); with D0 = μ0 = 1 and the Hasimoto correction for a periodic
  // array.
  ParticleSystem sys;
  sys.box = 30.0;
  sys.radius = 1.0;
  sys.positions = {{15.0, 15.0, 15.0}};
  BdConfig cfg;
  cfg.dt = 1e-3;
  cfg.kbt = 0.0;  // switch off Brownian noise: pure drift
  cfg.lambda_rpy = 8;
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-4);
  auto gravity = std::make_shared<UniformForce>(Vec3{0, 0, -10.0});
  MatrixFreeBdSimulation sim(std::move(sys), gravity, cfg, pme, 1e-3);
  const double z0 = sim.system().positions[0].z;
  sim.step(100);
  const double v = (sim.system().positions[0].z - z0) / sim.time();
  const double expected = -10.0 * (1.0 - 2.837297 / 30.0);
  EXPECT_NEAR(v, expected, 0.02 * std::abs(expected));
}

}  // namespace
}  // namespace hbd
