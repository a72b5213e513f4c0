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

#include <map>
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
#include "core/system.hpp"
#include "hybrid/scheduler.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/hwcounters.hpp"
#include "obs/stream.hpp"
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
  /// Writes the health report to HBD_HEALTH (when set) before teardown.
  ~MatrixFreeBdSimulation();

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
  /// picks the cheapest tier (per the recalibrated perf model) whose
  /// declared accuracy fits `ep`, with hysteretic demotion and permanent
  /// barring of tiers whose probed e_p violates the budget.  Turns the
  /// health probes on (they are the policy's online validation signal).
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
  /// while the dense tier is active) — embedded in the health report and
  /// suitable for checkpoints.
  obs::RunManifest manifest() const;

  /// Writes the layer-7 roofline/drift evidence bundle ("hbd.roofline.v1":
  /// manifest + effective perf mode + per-phase timer/model/counter records
  /// + recalibration).  Closes the open audit window first.  Also written
  /// at destruction when HBD_ROOFLINE=<path> is set.  False when telemetry
  /// is compiled out or the file cannot be written.
  bool write_roofline_json(const std::string& path);

  // --- Telemetry: model-vs-measured drift audit (Eq. 10–11) ----------------

  /// Per-phase measured-vs-modeled accounting, one window per mobility
  /// rebuild: predictions come from model_hardware() applied to the window's
  /// actual apply counts, measurements from the operator's phase timers.
  const obs::DriftAudit& drift_audit() const { return drift_; }

  /// Base hardware parameters for the drift predictions (default:
  /// westmere_ep(), the paper's reference host).
  const HardwareParams& model_hardware() const { return model_hw_; }
  void set_model_hardware(HardwareParams hw) { model_hw_ = std::move(hw); }

  /// When enabled, effective_hardware() folds the audit's measured
  /// recalibration scales into the base parameters (default off: the audit
  /// only reports).
  void set_auto_recalibrate(bool on) { recalibrate_ = on; }
  bool auto_recalibrate() const { return recalibrate_; }

  /// model_hardware() corrected by the measured drift medians when
  /// auto-recalibration is on; the base parameters otherwise.
  HardwareParams effective_hardware() const;

  /// Modeled per-step BD cost from this run's measured state: the
  /// effective (possibly recalibrated) hardware, the Verlet list's measured
  /// mean rebuild interval instead of the static 256-step default, and the
  /// last observed Krylov iteration count.
  BdStepModel model_step(const std::vector<Device>& accelerators = {},
                         double ep_target = 1e-3) const;

  // --- Telemetry: live streaming + flight recorder (layers 5–6) ------------

  /// The constructor wires both from the environment (HBD_STREAM,
  /// HBD_FLIGHT, HBD_FLIGHT_INJECT); these attach/replace them
  /// programmatically (tests, the replay tool).  Neither ever perturbs the
  /// trajectory: records are derived from state the step produced anyway.
  void enable_stream(obs::StreamWriter::Options opts);
  void enable_flight(obs::FlightRecorder::Options opts);
  obs::StreamWriter* stream() { return stream_.get(); }
  obs::FlightRecorder* flight() { return flight_.get(); }

  /// Deterministic failure injection: the step with this index throws a
  /// synthetic NumericalException (phase "inject") at its top, before any
  /// state mutates — the flight bundle then reproduces it under replay.
  void set_inject_step(std::uint64_t step) { inject_step_ = step; }

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
  /// Post-step observation hook: pushes the stream record and the flight
  /// record, and accounts its own cost into the obs.overhead_frac gauge.
  /// Only does work when a stream or flight recorder is attached.
  void observe_step(double wall_seconds);
  /// Captures the replay anchor (positions + RNG states) into the flight
  /// recorder; called at the top of every rebuild, before sampling.
  void snapshot_flight();
  void rebuild();
  /// TierPolicy hook at the top of rebuild(): scores all four tiers with
  /// the recalibrated perf model and swaps the backend when the policy
  /// picks a different one.  No-op without a policy or with a forced tier.
  void route_tier();
  /// Replaces the active backend with a freshly built one for `t`,
  /// regenerating PME params/neighbor list when the tier needs them.
  void swap_backend(MobilityTier t);
  /// Records one drift-audit window covering all operator applies since the
  /// previous call (the λ propagation applies + the Krylov block applies).
  void audit_drift();
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

  // Drift-audit state: base model hardware plus the timer/counter readings
  // at the previous audit window boundary.
  obs::DriftAudit drift_;
  HardwareParams model_hw_ = westmere_ep();
  bool recalibrate_ = false;
  PmeOperator::ApplyCounts counts_seen_;
  std::map<std::string, double> phase_seen_;
  /// Hardware-counter phase totals at the previous audit window boundary
  /// (layer 7); empty unless HBD_PERF counted in hardware mode.
  std::map<std::string, obs::PerfSample> perf_seen_;
  /// PerfCounters::overhead_seconds() already folded into obs_seconds_.
  double perf_overhead_seen_ = 0.0;
  /// Latest pooled roofline summaries for the stream records (-1 = none).
  double last_roof_bytes_ratio_ = -1.0;
  double last_roof_gbs_ = -1.0;
  /// HBD_ROOFLINE export path (written at destruction when non-empty).
  std::string roofline_path_;

  // Live streaming + flight recorder (telemetry layers 5–6).  unique_ptr
  // members keep the driver movable; both are null unless requested.
  std::unique_ptr<obs::StreamWriter> stream_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::uint64_t inject_step_ = ~std::uint64_t{0};
  /// Cumulative phase-timer readings at the last observe_step() — the
  /// per-step phase deltas of the stream records.
  std::map<std::string, double> stream_phase_seen_;
  double obs_seconds_ = 0.0;   ///< time spent in observe_step()
  double step_seconds_ = 0.0;  ///< total stepped wall time (incl. obs)

  // Per-step scratch (wrapped positions, forces, velocities), allocated once.
  std::vector<Vec3> wrapped_;
  std::vector<double> forces_scratch_;
  std::vector<double> velocity_scratch_;
};

}  // namespace hbd
