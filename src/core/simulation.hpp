// The BD driver.  MatrixFreeBdSimulation runs both of the paper's
// algorithms as fidelity tiers of one MobilityBackend (core/backend.hpp):
//
//   * Algorithm 2 (the paper's contribution, the default): PME mobility
//     operator + block Krylov Brownian displacements — the tier implied by
//     the constructor's PmeParams;
//   * Algorithm 1 (conventional): dense Ewald mobility matrix + Cholesky
//     Brownian displacements — set_tier(MobilityTier::dense).
//
// Every tier propagates r(t+Δt) = r(t) + μ0 M̃ f Δt + g with
// ⟨g gᵀ⟩ = 2 kB T μ0 M̃ Δt (Ermak–McCammon without the divergence term,
// which vanishes for RPY), and holds the mobility fixed for λ_RPY
// consecutive steps.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/neighbor_list.hpp"
#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/brownian.hpp"
#include "core/forces.hpp"
#include "core/run_observer.hpp"
#include "core/system.hpp"
#include "hybrid/scheduler.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

/// Parameters of the BD driver.  Reduced units: the defaults make the bare
/// diffusion coefficient D0 = kB T μ0 = 1.
struct BdConfig {
  double dt = 1e-4;            ///< time step
  double kbt = 1.0;            ///< thermal energy kB T
  double mu0 = 1.0;            ///< single-particle mobility 1/(6πηa)
  std::size_t lambda_rpy = 16; ///< mobility update interval (steps)
  std::uint64_t seed = 12345;  ///< RNG seed (deterministic trajectories)
};

class MatrixFreeBdSimulation {
 public:
  /// Deterministic RNG substream ids derived from BdConfig::seed (see
  /// hbd::substream): the trajectory stream (forces + near-field Brownian
  /// noise) is the seed itself, the wave-space mesh noise lives one long
  /// jump away.  Enabling BrownianMethod::wavespace therefore never
  /// perturbs the trajectory stream's draw sequence.  Recorded in the run
  /// manifest.
  static constexpr unsigned kTrajectoryStream = 0;
  static constexpr unsigned kWavespaceStream = 1;

  MatrixFreeBdSimulation(ParticleSystem system,
                         std::shared_ptr<const ForceField> forces,
                         BdConfig config, PmeParams pme_params,
                         double krylov_tol = 1e-2);
  // Not copyable or movable: the observer holds a reference to its driver.
  MatrixFreeBdSimulation(const MatrixFreeBdSimulation&) = delete;
  MatrixFreeBdSimulation& operator=(const MatrixFreeBdSimulation&) = delete;

  void step(std::size_t nsteps = 1);

  const ParticleSystem& system() const { return system_; }
  double time() const { return static_cast<double>(steps_) * config_.dt; }
  std::size_t steps_taken() const { return steps_; }
  std::size_t mobility_bytes() const;
  /// Krylov iteration count of the most recent mobility update (with
  /// BrownianMethod::wavespace these are the near-field-only Lanczos
  /// iterations of the split sampler).
  const KrylovStats& last_krylov_stats() const { return krylov_stats_; }
  /// The current PME operator (null for tiers without one, e.g. tea).
  PmeOperator* pme() { return backend_ ? backend_->pme() : nullptr; }
  const PmeOperator* pme() const { return backend_ ? backend_->pme() : nullptr; }
  /// The simulation-owned neighbor list of the real-space PME assembly
  /// (cutoff = PME rmax, padded by the PME skin).  Not revalidated while a
  /// tier without a PME operator (tea, dense) is active; the steric forces
  /// enumerate their own 2a list.
  const NeighborList& neighbor_list() const { return *nlist_; }

  // --- Fidelity tiers ------------------------------------------------------

  /// The active mobility tier (initially the tier implied by the ctor's
  /// PmeParams: wavespace → pse_wavespace, otherwise pme_krylov).
  MobilityTier tier() const { return backend_->tier(); }
  const MobilityBackend& backend() const { return *backend_; }

  /// Forces a specific tier: the backend is swapped immediately and the
  /// next step resamples the Brownian block on it.  set_tier(dense) runs the
  /// paper's Algorithm 1 (dense Ewald at tier_default_ep(dense) + Cholesky).  Disables TierPolicy
  /// routing (a forced tier is never overridden) until set_error_budget()
  /// re-enables it.  The trajectory RNG keeps drawing the same z blocks on
  /// the trajectory stream, so forcing the native tier is a no-op.
  void set_tier(MobilityTier t);

  /// Enables policy routing: before every mobility rebuild the TierPolicy
  /// picks the cheapest tier (per the westmere_ep() perf model) whose
  /// declared accuracy fits `ep`, with hysteretic demotion and permanent
  /// barring of tiers whose probed e_p violates the budget.  Turns the
  /// health probes on (they are the policy's online validation signal) and
  /// republishes the run manifest with the budget.
  void set_error_budget(double ep);
  double error_budget() const { return error_budget_; }

  /// Number of backend swaps performed so far (forced or policy-driven).
  std::uint64_t tier_switches() const { return tier_switches_; }
  /// The routing policy when set_error_budget() enabled one.
  const TierPolicy* tier_policy() const {
    return policy_ ? &*policy_ : nullptr;
  }

  // --- Telemetry: numerical health (layer 4) -------------------------------

  /// Online accuracy/convergence monitor: e_p probe history, per-update
  /// Krylov convergence records, and structured warnings.  Probing is
  /// enabled by HBD_HEALTH=<path> (report written at destruction) or
  /// programmatically via health().set_probes_enabled(true); probes run
  /// every health().probe_interval() mobility rebuilds against a lazily
  /// built high-resolution reference operator and never touch the
  /// trajectory RNG, so trajectories are bitwise identical with probing on
  /// or off.
  obs::HealthMonitor& health() { return health_; }
  const obs::HealthMonitor& health() const { return health_; }

  /// Run-provenance manifest of this simulation (build info + BdConfig +
  /// PmeParams + system size + active tier; brownian_method is "cholesky"
  /// while the dense tier is active and "tea" while the tea tier is) —
  /// embedded in the health report and suitable for checkpoints.
  obs::RunManifest manifest() const;

  // --- Telemetry: drift audit, stream, flight recorder ---------------------

  /// The run's observer (core/run_observer.hpp): the drift audit, the
  /// stream writer and flight recorder (wired from HBD_STREAM / HBD_FLIGHT
  /// or attached programmatically), and failure injection.  None of it
  /// ever perturbs the trajectory.
  RunObserver& observer() { return observer_; }
  const RunObserver& observer() const { return observer_; }

  /// Restores a flight-recorder anchor: positions (3n unwrapped), both RNG
  /// stream states, and the step counter.  The next step() rebuilds the
  /// mobility and re-samples the identical Brownian block, so stepping from
  /// here reproduces the crashed run hash-for-hash (core/replay.cpp).
  void restore_flight(std::span<const double> positions,
                      const Xoshiro256::State& rng_trajectory,
                      const Xoshiro256::State& rng_wavespace,
                      std::uint64_t step);

  /// The generic reconstruction section written into flight bundles
  /// (bitwise-critical doubles hex-encoded; see obs/flight.hpp).
  obs::ReplayConfig replay_config() const;

 private:
  void step_once();
  void rebuild();
  /// TierPolicy hook at the top of rebuild(): scores all four tiers with
  /// the westmere_ep() perf model and swaps the backend when the policy
  /// picks a different one.  No-op without a policy or with a forced tier.
  void route_tier();
  /// Replaces the active backend with a freshly built one for `t`,
  /// regenerating PME params/neighbor list when the tier needs them.
  void swap_backend(MobilityTier t);
  /// Runs one amortized e_p probe of the live backend against the lazily
  /// constructed high-resolution reference (telemetry builds only); feeds
  /// the TierPolicy's online validation when routing is enabled.
  void probe_backend_error();
  /// Runs one step-seeded covariance probe of the split Brownian sampler
  /// (⟨(xᵀD)²⟩ vs xᵀ M̃ x; wavespace runs, telemetry builds only).
  void probe_covariance();
  /// NaN/Inf guards on forces and positions after one propagation step;
  /// compiled out with -DHBD_TELEMETRY=OFF.
  void guard_step();
  /// What the observer's rebuild/step hooks read beyond the public
  /// interface.
  RunObserver::DriverState observed_state() const {
    return {rng_, wave_rng_, forces_scratch_};
  }

  ParticleSystem system_;
  std::shared_ptr<const ForceField> forces_;
  BdConfig config_;
  PmeParams pme_params_;
  KrylovConfig krylov_config_;
  Xoshiro256 rng_;       // trajectory stream (kTrajectoryStream)
  Xoshiro256 wave_rng_;  // wave-space mesh noise (kWavespaceStream)

  std::shared_ptr<NeighborList> nlist_;
  /// The active mobility backend (owns the PME operator for PME tiers).
  std::unique_ptr<MobilityBackend> backend_;
  /// Tier implied by the ctor's PmeParams, whose exact params are kept in
  /// native_params_ so returning to it restores the caller's configuration
  /// bit for bit.
  MobilityTier native_tier_ = MobilityTier::pme_krylov;
  PmeParams native_params_;
  /// Error-budget routing state (set_error_budget); forced_tier_ pins the
  /// backend against policy overrides (set_tier).
  std::optional<TierPolicy> policy_;
  /// Splittings route_tier prices the wavespace and krylov tiers at
  /// (first, second), chosen on its first call.
  std::optional<std::pair<PmeParams, PmeParams>> routed_splits_;
  bool forced_tier_ = false;
  std::uint64_t tier_switches_ = 0;
  double error_budget_ = 0.0;
  /// High-resolution reference operator for the e_p probes (lazily built on
  /// the first probe, then refreshed in place — never constructed when
  /// probing is disabled).
  std::optional<PmeOperator> ref_pme_;
  obs::HealthMonitor health_;
  KrylovStats krylov_stats_;
  Matrix displacements_;
  std::size_t block_cursor_ = 0;
  std::size_t steps_ = 0;

  // Per-step scratch (wrapped positions, forces, velocities), allocated once.
  std::vector<Vec3> wrapped_;
  std::vector<double> forces_scratch_;
  std::vector<double> velocity_scratch_;

  /// Declared last: destroyed first, while everything it reads (the health
  /// monitor and the manifest's sources) is still alive.  Inert until the
  /// constructor's closing on_start().
  RunObserver observer_{*this};
};

}  // namespace hbd
