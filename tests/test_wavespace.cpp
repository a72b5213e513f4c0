// Wave-space Brownian sampling (PSE split, docs/theory.md §11): the
// far-field displacement is sampled directly in reciprocal space while
// Lanczos runs only on the sparse near field.  The tests verify the exact
// covariance of the far-field sample against the deterministic reciprocal
// operator, the short near-field Lanczos, the end-to-end displacement
// statistics, thread-count determinism, and the RNG stream discipline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/brownian.hpp"
#include "core/forces.hpp"
#include "core/krylov.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "ewald/beenakker.hpp"
#include "ewald/kernel.hpp"
#include "linalg/dense_matrix.hpp"
#include "pme/influence.hpp"
#include "pme/params.hpp"
#include "pme/pme_operator.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace hbd;

namespace {

ParticleSystem small_system(std::size_t n, double phi = 0.2,
                            std::uint64_t seed = 61) {
  Xoshiro256 rng(seed);
  return suspension_at_volume_fraction(n, phi, 1.0, rng);
}

// Builds dense M_recip from basis applies of the deterministic reciprocal
// operator and T Tᵀ from basis noise vectors through the sampler; returns
// max |T Tᵀ − M_recip| / max |M_recip|.
double recip_covariance_error(const std::vector<Vec3>& pos, double box,
                              double radius, const PmeParams& params) {
  PmeOperator pme(pos, box, radius, params);
  const std::size_t dim = 3 * pos.size();

  Matrix mrecip(dim, dim);
  std::vector<double> f(dim), u(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    std::fill(f.begin(), f.end(), 0.0);
    f[j] = 1.0;
    pme.apply_recip(f, u);
    for (std::size_t i = 0; i < dim; ++i) mrecip(i, j) = u[i];
  }

  const std::size_t nd = pme.wave_noise_doubles();
  std::vector<double> noise(nd, 0.0);
  Matrix cov(dim, dim);
  Matrix d(dim, 1);
  for (std::size_t q = 0; q < nd; ++q) {
    noise[q] = 1.0;
    pme.sample_recip_block(std::span<const double>(noise), d,
                           /*accumulate=*/false);
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t j = 0; j < dim; ++j) cov(i, j) += d(i, 0) * d(j, 0);
    noise[q] = 0.0;
  }

  double max_m = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) {
      max_m = std::max(max_m, std::abs(mrecip(i, j)));
      max_diff = std::max(max_diff, std::abs(cov(i, j) - mrecip(i, j)));
    }
  EXPECT_GT(max_m, 0.0);
  return max_diff / max_m;
}

}  // namespace

// The defining property of the far-field sampler: with T the linear map
// from unit mesh noise to the interpolated displacement, T Tᵀ must equal
// M_recip exactly (the projector is its own square root and every stored
// mode carries variance m_α(k), including the explicitly symmetrized
// k3 = 0 plane).  Feeding all basis noise vectors through the sampler
// reconstructs T Tᵀ column by column — an exact structural check of the
// Hermitian pairing and DC/Nyquist handling, not a statistical one.  The
// geometry keeps every stored mode below ka = √3 so the spectrum is fully
// positive and the identity is exact (no clamped modes).
TEST(WaveSpace, SampleCovarianceEqualsRecipOperator) {
  const double box = 20.0, radius = 1.0;
  const std::size_t n = 6;
  Xoshiro256 rng(17);
  std::vector<Vec3> pos(n);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  PmeParams params;
  params.mesh = 8;
  params.order = 4;
  params.rmax = 3.0;
  params.xi = 0.5;
  params.skin = 0.0;
  // max |k| = (2π/L)·(K/2 − 1)·√3 ≈ 1.63 < √3: no clamped modes.
  const InfluenceFunction influence(params.mesh, box, radius, params.xi,
                                    params.order);
  ASSERT_EQ(influence.sample_negative_fraction(), 0.0);
  EXPECT_LE(recip_covariance_error(pos, box, radius, params), 1e-10);
}

// The same structural identity for the PSE kernel at a coarse splitting
// where Beenakker's spectrum goes deeply negative (stored modes reach
// ka ≈ 4.9 ≫ √3): the sinc²(ka) spectrum is nonnegative at every k, so
// the sampler is exact with nothing clamped — the property the wavespace
// Brownian route rests on.
TEST(WaveSpace, PseSampleCovarianceExactAtCoarseSplit) {
  const double box = 11.0, radius = 1.0;
  const std::size_t n = 6;
  Xoshiro256 rng(29);
  std::vector<Vec3> pos(n);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  PmeParams params;
  params.mesh = 12;
  params.order = 4;
  params.rmax = 5.0;
  params.xi = 0.61;
  params.skin = 0.0;
  params.kernel = EwaldKernel::pse;
  const InfluenceFunction beenakker(params.mesh, box, radius, params.xi,
                                    params.order);
  EXPECT_GT(beenakker.sample_negative_fraction(), 0.1);
  const InfluenceFunction pse(params.mesh, box, radius, params.xi,
                              params.order, true, EwaldKernel::pse);
  EXPECT_EQ(pse.sample_negative_fraction(), 0.0);
  EXPECT_LE(recip_covariance_error(pos, box, radius, params), 1e-10);
}

// The PSE split must still sum to the RPY mobility: the full PSE operator
// (wave table + corrected near field + corrected self term) against the
// direct Beenakker-Ewald reference at matched accuracy.
TEST(WaveSpace, PseKernelMatchesDenseEwald) {
  const std::size_t n = 50;
  const double a = 1.0;
  ParticleSystem system = small_system(n, 0.2, 41);
  const PmeParams params =
      choose_pme_params_wavespace(system.box, system.radius, 1e-3);
  EXPECT_EQ(params.kernel, EwaldKernel::pse);
  std::vector<Vec3> pos;
  system.wrapped_positions(pos);
  PmeOperator pme(pos, system.box, a, params);

  std::vector<double> f(3 * n), u_pme(3 * n), u_exact(3 * n);
  Xoshiro256 rng(42);
  for (auto& v : f) v = rng.next_gaussian();
  pme.apply(f, u_pme);

  const EwaldParams ep = ewald_params_for_tolerance(system.box, a, 1e-12);
  ewald_mobility_apply(pos, system.box, a, ep, f, u_exact);

  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 3 * n; ++i) {
    num += (u_pme[i] - u_exact[i]) * (u_pme[i] - u_exact[i]);
    den += u_exact[i] * u_exact[i];
  }
  EXPECT_LT(std::sqrt(num / den), 5e-3);
}

// The near field is self-term dominated, so the near-field-only Lanczos
// must converge in a handful of iterations — and never more than the full
// operator needs.
TEST(WaveSpace, NearFieldLanczosConvergesFast) {
  ParticleSystem system = small_system(200);
  const PmeParams params =
      choose_pme_params_wavespace(system.box, system.radius, 1e-3);
  std::vector<Vec3> pos;
  system.wrapped_positions(pos);
  PmeOperator pme(pos, system.box, system.radius, params);
  KrylovConfig config;
  config.tolerance = 1e-2;

  Xoshiro256 rng(5);
  const Matrix z = gaussian_block(rng, 3 * system.size(), 8);

  Xoshiro256 wave = substream(5, 1);
  KrylovStats near;
  (void)sample_wavespace_block(pme, z, 1.0, config, wave, &near);
  EXPECT_TRUE(near.converged);
  EXPECT_LE(near.iterations, 6);

  KrylovStats full;
  (void)krylov_sqrt_apply(
      [&pme](const Matrix& x, Matrix& y) { pme.apply_block(x, y); }, z,
      config, &full);
  EXPECT_TRUE(full.converged);
  EXPECT_LE(near.iterations, full.iterations);
}

// End-to-end displacement statistics: the sampled covariance of both
// methods must agree with the exact quadratic forms of the full operator.
// The wavespace arm uses the PSE chooser, whose spectrum is nonnegative at
// every k — nothing is clamped and the sample is unbiased; 800 samples put
// the estimator's relative std near 5% (wave) and 10% (krylov at 200
// samples); the tolerances leave ~4σ headroom.
TEST(WaveSpace, DisplacementStatisticsMatchOperator) {
  ParticleSystem system = small_system(100, 0.1);
  const PmeParams params =
      choose_pme_params_wavespace(system.box, system.radius, 1e-2);
  std::vector<Vec3> pos;
  system.wrapped_positions(pos);
  PmeOperator pme(pos, system.box, system.radius, params);
  EXPECT_EQ(pme.wave_clamped_fraction(), 0.0);
  KrylovConfig config;
  config.tolerance = 1e-2;

  const double err_wave = measure_sample_covariance_error(
      pme, config, BrownianMethod::wavespace, /*blocks=*/100, /*width=*/8,
      /*seed=*/11);
  EXPECT_LE(err_wave, 0.2);

  const double err_krylov = measure_sample_covariance_error(
      pme, config, BrownianMethod::krylov, /*blocks=*/25, /*width=*/8,
      /*seed=*/11);
  EXPECT_LE(err_krylov, 0.35);
}

// The wave sample must be bitwise deterministic for any thread count: the
// per-mesh noise substreams are seeded sequentially and filled in parallel,
// and the downstream batched pipeline is already order-deterministic.
TEST(WaveSpace, BitwiseDeterministicAcrossThreadCounts) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  ParticleSystem system = small_system(64);
  const PmeParams params =
      choose_pme_params(system.box, system.radius, 1e-3);
  std::vector<Vec3> pos;
  system.wrapped_positions(pos);
  KrylovConfig config;
  config.tolerance = 1e-2;
  Xoshiro256 zrng(9);
  const Matrix z = gaussian_block(zrng, 3 * system.size(), 4);

  const auto sample_with = [&](int threads) {
    omp_set_num_threads(threads);
    PmeOperator pme(pos, system.box, system.radius, params);
    Xoshiro256 wave = substream(123, 1);
    return sample_wavespace_block(pme, z, 1.0, config, wave);
  };

  const Matrix ref = sample_with(1);
  for (int threads : {2, 8}) {
    const Matrix d = sample_with(threads);
    for (std::size_t i = 0; i < ref.rows() * ref.cols(); ++i)
      ASSERT_EQ(ref.data()[i], d.data()[i]) << "threads=" << threads;
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "OpenMP not enabled";
#endif
}

// Covariance probes are step-seeded: a wavespace trajectory must be
// bitwise identical with probing on or off.
TEST(WaveSpace, ProbesDoNotPerturbTrajectory) {
  const auto run = [](bool probes) {
    ParticleSystem system = small_system(40);
    auto forces = std::make_shared<RepulsiveHarmonic>(system.radius);
    BdConfig config;
    config.dt = 1e-4;
    config.lambda_rpy = 4;
    config.seed = 7;
    const PmeParams params =
        choose_pme_params_wavespace(system.box, system.radius, 1e-3);
    MatrixFreeBdSimulation sim(std::move(system), forces, config, params);
    if (probes) {
      sim.health().set_probes_enabled(true);
      sim.health().set_probe_interval(1);
      sim.health().set_probe_samples(2);
    }
    sim.step(8);
    return sim.system().positions;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].x, on[i].x);
    EXPECT_EQ(off[i].y, on[i].y);
    EXPECT_EQ(off[i].z, on[i].z);
  }
}

// Beenakker's split is not positively split: m_α(k) < 0 for ka > √3.
// Those modes are clamped in the sqrt application, the clamped mass is
// reported, and the sampled output stays finite (no sqrt of a negative).
// The PSE chooser sidesteps all of this by switching the kernel, not by
// restricting ξ — its parameters match the deterministic chooser's.
TEST(WaveSpace, NegativeModesClampedAndReported) {
  const double box = 11.0, radius = 1.0;
  // A coarse splitting (ξa = 0.61) leaves a large clamped mass under
  // Beenakker...
  const InfluenceFunction influence(18, box, radius, 0.61, 6);
  EXPECT_GT(influence.sample_negative_fraction(), 0.1);
  // ...while the wavespace chooser's PSE kernel has none at all.
  const PmeParams ws = choose_pme_params_wavespace(20.0, radius, 1e-3);
  EXPECT_EQ(ws.brownian, BrownianMethod::wavespace);
  EXPECT_EQ(ws.kernel, EwaldKernel::pse);
  const InfluenceFunction ws_influence(ws.mesh, 20.0, radius, ws.xi,
                                       ws.order, true, ws.kernel);
  EXPECT_EQ(ws_influence.sample_negative_fraction(), 0.0);

  Xoshiro256 rng(3);
  std::vector<Vec3> pos(8);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  PmeParams params;
  params.mesh = 18;
  params.order = 6;
  params.rmax = 5.0;
  params.xi = 0.61;
  params.skin = 0.0;
  PmeOperator pme(pos, box, radius, params);
  Matrix u(3 * pos.size(), 4);
  Xoshiro256 wave = substream(3, 1);
  pme.sample_recip_block(wave, u, false);
  for (std::size_t i = 0; i < u.rows() * u.cols(); ++i)
    ASSERT_TRUE(std::isfinite(u.data()[i])) << i;
}

// RNG stream discipline: substream 0 is the plain seed stream, substream 1
// is disjoint, and both are reproducible.
TEST(WaveSpace, SubstreamDiscipline) {
  Xoshiro256 base(42);
  Xoshiro256 s0 = substream(42, 0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(base.next_u64(), s0.next_u64());
  Xoshiro256 s1a = substream(42, 1);
  Xoshiro256 s1b = substream(42, 1);
  Xoshiro256 plain(42);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t a = s1a.next_u64();
    EXPECT_EQ(a, s1b.next_u64());
    if (a != plain.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// The knobs default to the historical Krylov path on the Beenakker split,
// and a wavespace run records its method, kernel, and stream ids in the
// manifest.
TEST(WaveSpace, DefaultMethodAndManifest) {
  EXPECT_EQ(PmeParams{}.brownian, BrownianMethod::krylov);
  EXPECT_EQ(PmeParams{}.kernel, EwaldKernel::beenakker);

  ParticleSystem system = small_system(40);
  auto forces = std::make_shared<RepulsiveHarmonic>(system.radius);
  BdConfig config;
  config.lambda_rpy = 4;
  const PmeParams params =
      choose_pme_params_wavespace(system.box, system.radius, 1e-3);
  MatrixFreeBdSimulation sim(std::move(system), forces, config, params);
  sim.step(1);
  EXPECT_GT(sim.last_krylov_stats().iterations, 0);
  const std::string json = sim.manifest().to_json();
  EXPECT_NE(json.find("\"brownian_method\":\"wavespace\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ewald_kernel\":\"pse\""), std::string::npos);
  EXPECT_NE(json.find("\"rng_streams\""), std::string::npos);
}
