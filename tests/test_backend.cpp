// MobilityBackend layer (core/backend.hpp): the TEA truncated-expansion
// tier's accuracy and covariance guarantees, bitwise preservation of the
// historical krylov/wavespace/dense paths through the backend refactor,
// forced-tier overrides, TierPolicy hysteresis, the factory's kernel/method
// pairing enforcement, and the v3 checkpoint tier fields.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/backend.hpp"
#include "core/checkpoint.hpp"
#include "core/forces.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "obs/flight.hpp"
#include "pme/params.hpp"
#include "pme/validate.hpp"

using namespace hbd;

namespace {

ParticleSystem golden_system(std::size_t n) {
  Xoshiro256 rng(61);
  return suspension_at_volume_fraction(n, 0.2, 1.0, rng);
}

BdConfig golden_config() {
  BdConfig cfg;
  cfg.dt = 1e-3;
  cfg.lambda_rpy = 4;
  cfg.seed = 2014;
  return cfg;
}

std::uint64_t position_hash(const ParticleSystem& sys) {
  const double* p = &sys.positions[0].x;
  return obs::hash_doubles({p, 3 * sys.size()});
}

std::vector<Vec3> wrapped_of(const ParticleSystem& sys) {
  std::vector<Vec3> w;
  sys.wrapped_positions(w);
  return w;
}

}  // namespace

// ---- Tier naming ------------------------------------------------------------

TEST(Backend, TierNamesRoundTrip) {
  for (std::size_t t = 0; t < kMobilityTierCount; ++t) {
    const MobilityTier tier = static_cast<MobilityTier>(t);
    EXPECT_EQ(parse_mobility_tier(mobility_tier_name(tier)), tier);
  }
  EXPECT_THROW(parse_mobility_tier("cholesky"), Error);
}

// ---- TEA accuracy -----------------------------------------------------------

TEST(TeaBackend, ErrorWithinDeclaredBudget) {
  // The e_p probe statistic of the TEA apply against a high-resolution
  // periodic reference must fit the tier's declared accuracy — the same
  // online check TierPolicy uses to validate a routed TEA tier.
  ParticleSystem sys = golden_system(48);
  const std::vector<Vec3> wrapped = wrapped_of(sys);
  TeaBackend tea(sys.size(), sys.box, sys.radius);
  tea.rebuild(wrapped);
  PmeOperator ref(wrapped, sys.box, sys.radius,
                  reference_pme_params(sys.box, sys.radius));
  const double ep = measure_backend_error(tea, ref, /*samples=*/8,
                                          /*seed=*/123);
  EXPECT_GT(ep, 0.0);
  EXPECT_LT(ep, tea.declared_ep());
}

TEST(TeaBackend, BetaAndHasimotoSane) {
  ParticleSystem sys = golden_system(32);
  TeaBackend tea(sys.size(), sys.box, sys.radius);
  tea.rebuild(wrapped_of(sys));
  // Hasimoto-corrected self mobility: below 1, near 1 - 2.837297 a/L.
  const double h_expect =
      1.0 - 2.837297 / sys.box +
      4.0 * std::numbers::pi / 3.0 / (sys.box * sys.box * sys.box);
  EXPECT_NEAR(tea.hasimoto(), h_expect, 1e-12);
  // β solves the quadratic around 1/2 for small coupling ε̄.
  EXPECT_GT(tea.beta(), 0.0);
  EXPECT_LT(tea.beta(), 1.0);
  EXPECT_FALSE(tea.beta_clamped());
}

TEST(TeaBackend, SampleCovarianceDiagonalExact) {
  // Geyer–Winter's Ĉ normalization makes diag(B Bᵀ) = h exactly: applying
  // the sampler to the identity block and summing squared rows must give
  // two_kbt_dt·h per coordinate to rounding.
  ParticleSystem sys = golden_system(24);
  const std::size_t d = 3 * sys.size();
  TeaBackend tea(sys.size(), sys.box, sys.radius);
  tea.rebuild(wrapped_of(sys));
  Matrix z(d, d);
  for (std::size_t i = 0; i < d; ++i) z(i, i) = 1.0;
  const double two_kbt_dt = 2.0 * 1e-3;
  const Matrix y = tea.sample_block(z, two_kbt_dt, nullptr);
  for (std::size_t r = 0; r < d; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < d; ++c) sum += y(r, c) * y(r, c);
    EXPECT_NEAR(sum, two_kbt_dt * tea.hasimoto(), 1e-12 * two_kbt_dt)
        << "row " << r;
  }
}

TEST(TeaBackend, ApplyMatchesApplyBlock) {
  ParticleSystem sys = golden_system(16);
  const std::size_t d = 3 * sys.size();
  TeaBackend tea(sys.size(), sys.box, sys.radius);
  tea.rebuild(wrapped_of(sys));
  Xoshiro256 rng(5);
  std::vector<double> x(d), y(d);
  for (double& v : x) v = rng.next_gaussian();
  Matrix xb(d, 1), yb(d, 1);
  for (std::size_t i = 0; i < d; ++i) xb(i, 0) = x[i];
  tea.apply(x, y);
  tea.apply_block(xb, yb);
  // gemv and gemm accumulate in different orders: last-ulp agreement, not
  // bitwise identity, is the contract between the two entry points.
  for (std::size_t i = 0; i < d; ++i)
    EXPECT_NEAR(y[i], yb(i, 0), 1e-12 * std::abs(y[i]) + 1e-15);
}

// ---- Bitwise preservation of the historical paths ---------------------------
//
// Golden hashes of the default krylov, wavespace, and dense trajectories,
// with the tier machinery compiled in.  The krylov and wavespace hashes
// were re-locked when the FFT moved to Stockham butterflies, whose rounding
// order differs; their 10-step positions moved by at most 3.6e-15.  The
// dense hash was re-locked (from 0x0a676c08b11d9116) when the direct-Ewald
// assembly moved to structure factors, which sum the same terms in a
// different order; its 10-step positions moved by at most 1.8e-15.  The
// krylov hash was re-locked again (from 0x027bb287b06486be) when
// choose_pme_params became the calibrated, cost-balanced chooser: the run's
// splitting moved from (r_max 5a, ξa 0.607, K 18) to (5.25a, 0.681, 24),
// a different mobility within the old e_p, so its 10-step positions moved
// by up to 1.1e-3.

TEST(BackendGolden, KrylovTrajectoryBitwise) {
  ParticleSystem sys = golden_system(64);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0x11a2964b27bb1844ull);
}

TEST(BackendGolden, WavespaceTrajectoryBitwise) {
  ParticleSystem sys = golden_system(64);
  const PmeParams pme = choose_pme_params_wavespace(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0xc13ec1f975368fffull);
}

TEST(BackendGolden, DenseTrajectoryBitwise) {
  ParticleSystem sys = golden_system(32);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.set_tier(MobilityTier::dense);  // Algorithm 1
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0x5202d1809718d8e9ull);
}

// ---- Forced tier overrides --------------------------------------------------

TEST(BackendTier, ForcedTeaRunsWithoutPme) {
  ParticleSystem sys = golden_system(32);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  EXPECT_EQ(sim.tier(), MobilityTier::pme_krylov);
  sim.set_tier(MobilityTier::tea);
  EXPECT_EQ(sim.tier(), MobilityTier::tea);
  EXPECT_EQ(sim.tier_switches(), 1u);
  EXPECT_EQ(sim.pme(), nullptr);
  // The meshless tier never reads the PME-cutoff list, so stepping it
  // leaves the list untouched (the steric force keeps its own).
  const std::uint64_t list_updates = sim.neighbor_list().update_count();
  sim.step(6);
  EXPECT_EQ(sim.neighbor_list().update_count(), list_updates);
  for (const Vec3& p : sim.system().positions) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
    EXPECT_TRUE(std::isfinite(p.z));
  }
  // Mid-run switch back to the native tier restores the PME operator.
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.tier_switches(), 2u);
  sim.step(2);
  EXPECT_NE(sim.pme(), nullptr);
  EXPECT_EQ(sim.manifest().mobility_tier, "pme_krylov");
  EXPECT_EQ(sim.manifest().tier_switches, 2u);
}

TEST(BackendTier, ForcedDenseManifestSaysCholesky) {
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  EXPECT_EQ(sim.manifest().brownian_method, "krylov");
  sim.set_tier(MobilityTier::dense);
  sim.step(1);
  EXPECT_EQ(sim.manifest().brownian_method, "cholesky");
  EXPECT_EQ(sim.manifest().mobility_tier, "dense");
  // Back on the native tier the manifest describes the PME sampler again.
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.manifest().brownian_method, "krylov");
  EXPECT_EQ(sim.manifest().mobility_tier, "pme_krylov");
}

TEST(BackendTier, ForcedTeaManifestSaysTea) {
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  sim.set_tier(MobilityTier::tea);
  sim.step(1);
  EXPECT_EQ(sim.manifest().brownian_method, "tea");
  EXPECT_EQ(sim.manifest().mobility_tier, "tea");
  // The published copy (metrics/trace exporters, /manifest) follows.
  EXPECT_EQ(obs::run_manifest().brownian_method, "tea");
}

TEST(BackendTier, ErrorBudgetRepublishesManifest) {
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  EXPECT_EQ(obs::run_manifest().error_budget, 0.0);
  sim.set_error_budget(1e-3);
  EXPECT_DOUBLE_EQ(obs::run_manifest().error_budget, 1e-3);
}

TEST(BackendTier, ForcingNativeTierIsNoop) {
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.tier_switches(), 0u);
}

// ---- TierPolicy -------------------------------------------------------------

namespace {

std::vector<TierPolicy::Candidate> default_candidates() {
  // Costs ordered tea < wavespace < krylov < dense, accuracies the tier
  // defaults — the generic large-n landscape.
  return {
      {MobilityTier::tea, tier_default_ep(MobilityTier::tea), 1.0},
      {MobilityTier::pse_wavespace,
       tier_default_ep(MobilityTier::pse_wavespace), 5.0},
      {MobilityTier::pme_krylov, tier_default_ep(MobilityTier::pme_krylov),
       10.0},
      {MobilityTier::dense, tier_default_ep(MobilityTier::dense), 1000.0},
  };
}

}  // namespace

TEST(TierPolicy, PicksCheapestWithinBudget) {
  TierPolicy loose(ErrorBudget{1e-1});
  EXPECT_EQ(loose.choose(default_candidates()), MobilityTier::tea);
  TierPolicy mid(ErrorBudget{1e-3});
  EXPECT_EQ(mid.choose(default_candidates()), MobilityTier::pse_wavespace);
  TierPolicy tight(ErrorBudget{1e-6});
  EXPECT_EQ(tight.choose(default_candidates()), MobilityTier::dense);
}

TEST(TierPolicy, InfeasibleBudgetFallsBackToFinest) {
  TierPolicy policy(ErrorBudget{1e-9});
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::dense);
}

TEST(TierPolicy, ProbeViolationBarsAndPromotes) {
  TierPolicy policy(ErrorBudget{1e-1});
  ASSERT_EQ(policy.choose(default_candidates()), MobilityTier::tea);
  // Probed e_p blows the budget: the tier is barred permanently and the
  // next routing point promotes past it.
  EXPECT_TRUE(policy.record_probe(MobilityTier::tea, 0.2));
  EXPECT_TRUE(policy.barred(MobilityTier::tea));
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::pse_wavespace);
  // No ping-pong: the barred tier is never chosen again, however many
  // routing points pass.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(policy.choose(default_candidates()),
              MobilityTier::pse_wavespace);
  // A healthy probe of the new tier changes nothing.
  EXPECT_FALSE(policy.record_probe(MobilityTier::pse_wavespace, 1e-3));
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::pse_wavespace);
}

TEST(TierPolicy, DemotionRequiresDwell) {
  // Start on a fine tier (tight budget), then loosen conditions by offering
  // a cheaper candidate: the demotion must wait out min_dwell choices.
  TierPolicy::Config cfg;
  cfg.min_dwell = 2;
  // Budget 2e-3 leaves the mesh tiers margin under demote_margin — a
  // candidate sitting exactly at the budget is (correctly) never a demotion
  // target.
  TierPolicy policy(ErrorBudget{2e-3}, cfg);
  auto cands = default_candidates();
  ASSERT_EQ(policy.choose(cands), MobilityTier::pse_wavespace);
  // Make krylov cheaper than wavespace: a lateral/demote move.
  cands[2].cost = 0.5;
  EXPECT_EQ(policy.choose(cands), MobilityTier::pse_wavespace);  // dwell 1
  EXPECT_EQ(policy.choose(cands), MobilityTier::pme_krylov);     // dwell met
  EXPECT_EQ(policy.switches(), 1u);
}

TEST(TierPolicy, RoutedSimulationAdoptsTea) {
  // End-to-end: a loose budget routes the small-n run to the cheapest tier
  // and the probes keep validating it.
  ParticleSystem sys = golden_system(32);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.set_error_budget(1e-1);
  sim.step(8);
  EXPECT_EQ(sim.tier(), MobilityTier::tea);
  EXPECT_GE(sim.tier_switches(), 1u);
  ASSERT_NE(sim.tier_policy(), nullptr);
  EXPECT_FALSE(sim.tier_policy()->barred(MobilityTier::tea));
  EXPECT_DOUBLE_EQ(sim.manifest().error_budget, 1e-1);
  // A tight budget keeps a mesh tier (TEA's declared 5e-2 doesn't fit).
  ParticleSystem sys2 = golden_system(32);
  MatrixFreeBdSimulation sim2(std::move(sys2), forces, golden_config(), pme,
                              1e-2);
  sim2.set_error_budget(1e-3);
  sim2.step(4);
  EXPECT_NE(sim2.tier(), MobilityTier::tea);
  EXPECT_LE(tier_default_ep(sim2.tier()), 1e-3);
}

// ---- Factory pairing enforcement -------------------------------------------

TEST(BackendFactory, RejectsMismatchedKernelMethodPairs) {
  ParticleSystem sys = golden_system(16);
  auto nlist = std::make_shared<NeighborList>(sys.box, 3.0, 0.5);
  KrylovConfig krylov;
  // krylov tier with wavespace-sampling params.
  PmeParams bad = choose_pme_params_wavespace(sys.box, 1.0, 1e-3);
  EXPECT_THROW(make_mobility_backend(MobilityTier::pme_krylov, sys.size(),
                                     sys.box, sys.radius, bad, krylov, nlist),
               Error);
  // wavespace tier with the Beenakker-kernel krylov params.
  PmeParams bad2 = choose_pme_params(sys.box, 1.0, 1e-3);
  EXPECT_THROW(make_mobility_backend(MobilityTier::pse_wavespace, sys.size(),
                                     sys.box, sys.radius, bad2, krylov,
                                     nlist),
               Error);
  // Matched pairs construct fine.
  EXPECT_NO_THROW(make_mobility_backend(MobilityTier::pse_wavespace,
                                        sys.size(), sys.box, sys.radius, bad,
                                        krylov, nlist));
  EXPECT_NO_THROW(make_mobility_backend(MobilityTier::tea, sys.size(),
                                        sys.box, sys.radius, bad2, krylov,
                                        nullptr));
}

TEST(BackendFactory, ParamsForTierEnforcePairing) {
  const double box = 12.0;
  const PmeParams pk = pme_params_for_tier(MobilityTier::pme_krylov, box, 1.0,
                                           1e-3);
  EXPECT_EQ(pk.brownian, BrownianMethod::krylov);
  EXPECT_EQ(pk.kernel, EwaldKernel::beenakker);
  const PmeParams pw = pme_params_for_tier(MobilityTier::pse_wavespace, box,
                                           1.0, 1e-3);
  EXPECT_EQ(pw.brownian, BrownianMethod::wavespace);
  EXPECT_EQ(pw.kernel, EwaldKernel::pse);
  EXPECT_THROW(pme_params_for_tier(MobilityTier::tea, box, 1.0, 1e-3), Error);
}

// ---- Checkpoint v3 ----------------------------------------------------------

TEST(BackendCheckpoint, V3RoundTripsTierFields) {
  ParticleSystem sys = golden_system(12);
  obs::RunManifest m = obs::RunManifest::build_info();
  m.particles = sys.size();
  m.mobility_tier = "tea";
  m.tier_switches = 3;
  m.error_budget = 5e-2;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hbd_backend_ckpt.bin")
          .string();
  save_checkpoint(path, {sys, 42, 7, m});
  const Checkpoint cp = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(cp.manifest.mobility_tier, "tea");
  EXPECT_EQ(cp.manifest.tier_switches, 3u);
  EXPECT_DOUBLE_EQ(cp.manifest.error_budget, 5e-2);
}

TEST(BackendCheckpoint, V2CheckpointStillLoads) {
  // A pre-tier (v2) file: same layout up to the manifest's hardware tail,
  // no tier fields; loads with the default tier values.
  ParticleSystem sys = golden_system(5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hbd_backend_ckpt_v2.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write("HBDCKPT2", 8);
    auto pod = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto str = [&](const std::string& s) {
      const std::uint64_t len = s.size();
      pod(len);
      out.write(s.data(), static_cast<std::streamsize>(s.size()));
    };
    pod(sys.box);
    pod(sys.radius);
    const std::size_t steps = 9;
    const std::uint64_t seed = 17;
    pod(steps);
    pod(seed);
    const std::size_t n = sys.size();
    pod(n);
    out.write(reinterpret_cast<const char*>(sys.positions.data()),
              static_cast<std::streamsize>(n * sizeof(Vec3)));
    // v2 manifest: version..skin block, then the hardware tail and nothing
    // after it (mirrors the pre-v3 write_manifest field order).
    str("v2-test");
    str("gcc");
    str("-O2");
    str("Release");
    pod(static_cast<std::uint8_t>(1));
    pod(static_cast<std::int64_t>(1));        // omp_threads
    pod(static_cast<std::uint64_t>(17));      // seed
    pod(1e-4);                                // dt
    pod(1.0);                                 // kbt
    pod(1.0);                                 // mu0
    pod(static_cast<std::size_t>(16));        // lambda_rpy
    pod(n);                                   // particles
    pod(sys.box);
    pod(sys.radius);
    pod(static_cast<std::size_t>(32));        // mesh
    pod(static_cast<std::int64_t>(6));        // order
    pod(3.5);                                 // rmax
    pod(0.7);                                 // xi
    pod(0.4);                                 // skin
    str("westmere-ep");
    pod(160.0);
    pod(42.0);
  }
  const Checkpoint cp = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(cp.steps_taken, 9u);
  EXPECT_EQ(cp.manifest.version, "v2-test");
  EXPECT_EQ(cp.manifest.hw_name, "westmere-ep");
  // Tier fields default when absent from the file.
  EXPECT_EQ(cp.manifest.mobility_tier, "pme_krylov");
  EXPECT_EQ(cp.manifest.tier_switches, 0u);
  EXPECT_DOUBLE_EQ(cp.manifest.error_budget, 0.0);
}
