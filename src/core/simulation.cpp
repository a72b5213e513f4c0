#include "core/simulation.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/blas.hpp"
#include "obs/telemetry.hpp"
#include "pme/params.hpp"
#include "pme/validate.hpp"

namespace hbd {

namespace {

/// One propagation step: r += μ0·(M̃ f)·Δt + d, with d the pre-sampled
/// Brownian displacement.  `neighbors` is the simulation-owned list of the
/// PME operator; it is revalidated only while the backend has a mesh — the
/// meshless tiers never read it, and the force fields keep their own lists.
/// The wrapped/force/velocity buffers are caller-owned scratch so
/// steady-state stepping allocates nothing.
void propagate(ParticleSystem& system,
               const std::shared_ptr<const ForceField>& forces,
               const BdConfig& config, MobilityBackend& mobility,
               const Matrix& displacements, std::size_t column,
               NeighborList& neighbors, std::vector<Vec3>& wrapped,
               std::vector<double>& f, std::vector<double>& u) {
  HBD_TRACE_SCOPE("bd.propagate");
  const std::size_t n = system.size();
  {
    HBD_TRACE_SCOPE("bd.wrap");
    system.wrapped_positions(wrapped);
  }
  f.assign(3 * n, 0.0);
  u.assign(3 * n, 0.0);
  if (mobility.pme() != nullptr) {
    HBD_TRACE_SCOPE("bd.neighbor");
    neighbors.update(wrapped);
  }
  if (forces) {
    HBD_TRACE_SCOPE("bd.forces");
    forces->add_forces(wrapped, system.box, f);
  }
  {
    HBD_TRACE_SCOPE("bd.apply");
    mobility.apply(f, u);
  }
  HBD_TRACE_SCOPE("bd.integrate");
  const double h = config.mu0 * config.dt;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    system.positions[i].x += h * u[3 * i] + displacements(3 * i, column);
    system.positions[i].y +=
        h * u[3 * i + 1] + displacements(3 * i + 1, column);
    system.positions[i].z +=
        h * u[3 * i + 2] + displacements(3 * i + 2, column);
  }
}

}  // namespace

MatrixFreeBdSimulation::MatrixFreeBdSimulation(
    ParticleSystem system, std::shared_ptr<const ForceField> forces,
    BdConfig config, PmeParams pme_params, double krylov_tol)
    : system_(std::move(system)),
      forces_(std::move(forces)),
      config_(config),
      pme_params_(pme_params),
      rng_(config.seed),
      wave_rng_(substream(config.seed, kWavespaceStream)),
      nlist_(std::make_shared<NeighborList>(system_.box, pme_params.rmax,
                                            pme_params.skin)) {
  HBD_CHECK(config_.lambda_rpy >= 1);
  krylov_config_.tolerance = krylov_tol;
  // The simulation owns the list the operator shares, so the near-field
  // rebuild knobs are applied here rather than by PmeOperator.
  if (pme_params_.partial_rebuilds) nlist_->set_partial_rebuilds(true);
  if (pme_params_.auto_skin && pme_params_.skin > 0.0)
    nlist_->enable_auto_skin(pme_params_.auto_skin_interval);
  // The tier implied by the caller's params is the native tier; the factory
  // enforces the kernel/method pairing (wavespace requires the PSE kernel).
  native_tier_ = pme_params_.brownian == BrownianMethod::wavespace
                     ? MobilityTier::pse_wavespace
                     : MobilityTier::pme_krylov;
  native_params_ = pme_params_;
  backend_ = make_mobility_backend(native_tier_, system_.size(), system_.box,
                                   system_.radius, pme_params_, krylov_config_,
                                   nlist_);
  // FP32-store runs are gated by the e_p accuracy probes (ISSUE: storage
  // rounding must stay visible), so probing defaults on for them even when
  // no HBD_HEALTH export path was requested.
  if constexpr (obs::kEnabled) {
    if (pme_params_.precision == Precision::fp32)
      health_.set_probes_enabled(true);
  }
  // Last: publishes the manifest, then opens the env-wired stream and
  // flight outputs, so the stream header carries this run's manifest.
  observer_.on_start();
}

obs::RunManifest MatrixFreeBdSimulation::manifest() const {
  obs::RunManifest m = obs::RunManifest::build_info();
  m.seed = config_.seed;
  m.dt = config_.dt;
  m.kbt = config_.kbt;
  m.mu0 = config_.mu0;
  m.lambda_rpy = config_.lambda_rpy;
  m.particles = system_.size();
  m.box = system_.box;
  m.radius = system_.radius;
  m.mesh = pme_params_.mesh;
  m.order = pme_params_.order;
  m.rmax = pme_params_.rmax;
  m.xi = pme_params_.xi;
  // The live skin: under auto-tuning the list's value drifts away from the
  // configured seed skin.
  m.skin = nlist_ ? nlist_->skin() : pme_params_.skin;
  m.skin_auto = pme_params_.auto_skin;
  m.precision = precision_name(pme_params_.precision);
  const MobilityTier active = backend_ ? tier() : native_tier_;
  // The meshless tiers sample without the PME splitting; pme_params_ keeps
  // describing the one the run returns to.
  if (active == MobilityTier::dense)
    m.brownian_method = "cholesky";
  else if (active == MobilityTier::tea)
    m.brownian_method = "tea";
  else
    m.brownian_method = brownian_method_name(pme_params_.brownian);
  m.ewald_kernel = ewald_kernel_name(pme_params_.kernel);
  m.mobility_tier = mobility_tier_name(active);
  m.tier_switches = tier_switches_;
  m.error_budget = error_budget_;
  m.rng_stream_trajectory = kTrajectoryStream;
  m.rng_stream_wavespace = kWavespaceStream;
  const HardwareParams hw = westmere_ep();  // the drift audit's model host
  m.hw_name = hw.name;
  m.hw_gflops = hw.peak_dp_gflops;
  m.hw_bw_gbs = hw.stream_bw_gbs;
  return m;
}

void MatrixFreeBdSimulation::rebuild() {
  HBD_TRACE_SCOPE("bd.rebuild");
  // Closes the previous audit window before this rebuild's applies land in
  // the operator's phase timers, and anchors the flight recorder before the
  // Brownian block is sampled.
  observer_.on_rebuild(observed_state());
  // Tier routing happens at rebuild boundaries only — mid-block the active
  // backend keeps serving its sampled displacements.
  route_tier();
  system_.wrapped_positions(wrapped_);
  // First rebuild constructs the backend's operator state; subsequent
  // mobility updates refresh it in place (for PME tiers: reusing the FFT
  // plans, influence table, and the BCSR pattern).
  backend_->rebuild(wrapped_);
  if (config_.kbt == 0.0) {
    // Athermal (pure drift) run: no Brownian displacements to sample.
    displacements_ = Matrix(3 * system_.size(), config_.lambda_rpy);
    krylov_stats_ = {};
  } else {
    HBD_TRACE_SCOPE("bd.sample");
    // The near-field/trajectory noise block is drawn from rng_ first for
    // every tier — the trajectory stream's draw sequence is independent of
    // the sampling method (only the wavespace backend draws mesh noise, and
    // only from the disjoint wave_rng_ substream passed alongside).
    const Matrix z =
        gaussian_block(rng_, 3 * system_.size(), config_.lambda_rpy);
    const double two_kbt_dt = 2.0 * config_.kbt * config_.mu0 * config_.dt;
    displacements_ = backend_->sample_block(z, two_kbt_dt, &wave_rng_);
    krylov_stats_ = backend_->last_stats();
    if constexpr (obs::kEnabled) {
      health_.record_krylov(steps_, krylov_stats_.iterations,
                            krylov_stats_.relative_change,
                            krylov_stats_.converged);
      HBD_COUNTER_ADD("krylov.updates", 1);
      HBD_COUNTER_ADD("krylov.iterations.total", krylov_stats_.iterations);
      obs::guard_finite(
          {displacements_.data(),
           displacements_.rows() * displacements_.cols()},
          "displacements", static_cast<long>(steps_),
          &krylov_stats_.relative_changes);
    }
  }
  if constexpr (obs::kEnabled) {
    if (health_.probe_due()) {
      probe_backend_error();
      if (backend_->tier() == MobilityTier::pse_wavespace) probe_covariance();
    }
  }
  block_cursor_ = 0;
  HBD_COUNTER_ADD("bd.rebuilds", 1);
  HBD_GAUGE_SET("bd.mobility_bytes", mobility_bytes());
  HBD_GAUGE_SET("bd.tier", static_cast<double>(static_cast<int>(tier())));
}

void MatrixFreeBdSimulation::route_tier() {
  if (!policy_ || forced_tier_) return;
  const std::size_t n = system_.size();
  const Device host{
      PmePerfModel(westmere_ep(),
                   static_cast<double>(value_bytes(pme_params_.precision))),
      /*is_host=*/true};
  const int iters = std::max(krylov_stats_.iterations, 1);
  const double ri = effective_rebuild_interval(*nlist_);
  const double rf = effective_rebuild_fraction(*nlist_);
  const bool sym = pme_params_.storage == NearFieldStorage::symmetric;
  // The splittings the PME tiers are priced at depend only on the box, the
  // spline order and the tier's declared accuracy, all fixed for the run:
  // choose them on the first routing, not on every mobility update.
  const double ep_ws = tier_default_ep(MobilityTier::pse_wavespace);
  const double ep_kr = tier_default_ep(MobilityTier::pme_krylov);
  if (!routed_splits_)
    routed_splits_ = {
        choose_pme_params_wavespace(system_.box, 1.0, ep_ws,
                                    pme_params_.order),
        choose_pme_params(system_.box, 1.0, ep_kr, std::nullopt,
                          pme_params_.order)};
  // Candidate costs come from the perf model on the paper's host; declared
  // accuracies are the tier defaults.
  const TierPolicy::Candidate cands[kMobilityTierCount] = {
      {MobilityTier::tea, tier_default_ep(MobilityTier::tea),
       model_tea_step(host, n, config_.lambda_rpy)},
      {MobilityTier::pse_wavespace, ep_ws,
       model_bd_step(host, {}, n, system_.box, routed_splits_->first, ep_ws,
                     config_.lambda_rpy, iters, ri, sym, rf, iters)
           .cpu_only},
      {MobilityTier::pme_krylov, ep_kr,
       model_bd_step(host, {}, n, system_.box, routed_splits_->second, ep_kr,
                     config_.lambda_rpy, iters, ri, sym, rf)
           .cpu_only},
      {MobilityTier::dense, tier_default_ep(MobilityTier::dense),
       model_dense_step(host, n, config_.lambda_rpy)},
  };
  const MobilityTier chosen = policy_->choose(cands);
  if (chosen != tier()) swap_backend(chosen);
}

void MatrixFreeBdSimulation::swap_backend(MobilityTier t) {
  std::unique_ptr<MobilityBackend> next;
  if (t == MobilityTier::pme_krylov || t == MobilityTier::pse_wavespace) {
    // Returning to the native tier restores the caller's exact params;
    // other PME tiers get parameters regenerated for their declared target
    // (the factory enforces the kernel/method pairing).
    const PmeParams p =
        t == native_tier_
            ? native_params_
            : pme_params_for_tier(t, system_.box, system_.radius,
                                  tier_default_ep(t), native_params_.order,
                                  native_params_.precision);
    pme_params_ = p;
    // The real-space operator enumerates this list, so it must match the
    // new cutoff; the near-field rebuild knobs are re-applied.
    nlist_ = std::make_shared<NeighborList>(system_.box, p.rmax, p.skin);
    if (p.partial_rebuilds) nlist_->set_partial_rebuilds(true);
    if (p.auto_skin && p.skin > 0.0)
      nlist_->enable_auto_skin(p.auto_skin_interval);
    next = make_mobility_backend(t, system_.size(), system_.box,
                                 system_.radius, pme_params_, krylov_config_,
                                 nlist_);
  } else {
    // tea/dense need no PME operator and no list: propagate stops
    // revalidating it until a PME tier returns (the forces keep their own).
    next = make_mobility_backend(t, system_.size(), system_.box,
                                 system_.radius, pme_params_, krylov_config_,
                                 nullptr);
  }
  // `next` now holds the outgoing backend, alive until the observer has
  // closed its audit window.
  backend_.swap(next);
  ++tier_switches_;
  HBD_COUNTER_ADD("bd.tier_switches", 1);
  HBD_GAUGE_SET("bd.tier", static_cast<double>(static_cast<int>(t)));
  observer_.on_swap(next->pme());
}

void MatrixFreeBdSimulation::set_tier(MobilityTier t) {
  forced_tier_ = true;
  if (backend_ && tier() == t) return;
  swap_backend(t);
  // Invalidate the current displacement block: the next step() rebuilds and
  // resamples on the new tier.
  block_cursor_ = 0;
}

void MatrixFreeBdSimulation::set_error_budget(double ep) {
  HBD_CHECK_MSG(ep > 0.0, "error budget must be positive, got " << ep);
  error_budget_ = ep;
  policy_.emplace(ErrorBudget{ep});
  forced_tier_ = false;
  // The health probes are the policy's online validation signal.
  if constexpr (obs::kEnabled) health_.set_probes_enabled(true);
  observer_.publish_manifest();
}

void MatrixFreeBdSimulation::probe_backend_error() {
  HBD_TRACE_SCOPE("health.ep_probe");
  // The reference shares positions with the live backend (wrapped_ was
  // refreshed at the top of rebuild()) but nothing else: its truncation
  // error is driven orders of magnitude below the backend under test.
  if (!ref_pme_)
    ref_pme_.emplace(wrapped_, system_.box, system_.radius,
                     reference_pme_params(system_.box, system_.radius));
  else
    ref_pme_->update(wrapped_);
  // Probe RNG is derived from the step index, not drawn from the trajectory
  // RNG — probing on/off cannot perturb the trajectory.
  const double ep = measure_backend_error(
      *backend_, *ref_pme_, health_.probe_samples(),
      /*seed=*/0x9E3779B97F4A7C15ull ^ steps_);
  health_.record_ep(steps_, ep);
  // Online tier validation: a probed violation permanently bars the tier;
  // the policy promotes away from it at the next routing point.
  if (policy_ && policy_->record_probe(tier(), ep))
    HBD_COUNTER_ADD("bd.tier_violations", 1);
}

void MatrixFreeBdSimulation::probe_covariance() {
  HBD_TRACE_SCOPE("health.cov_probe");
  // Step-seeded like the e_p probe — the probe never draws from the
  // trajectory or wave streams, so trajectories are bitwise identical with
  // probing on or off.  8×16 = 128 samples put the estimator's own
  // relative std near 12%; the default tolerance (0.5) leaves headroom.
  const double err = measure_sample_covariance_error(
      *pme(), krylov_config_, BrownianMethod::wavespace,
      /*blocks=*/8, /*width=*/16,
      /*seed=*/0x8E4D1A53B7C6F902ull ^ steps_);
  health_.record_cov(steps_, err);
}

void MatrixFreeBdSimulation::guard_step() {
  obs::guard_finite(forces_scratch_, "forces", static_cast<long>(steps_));
  const double* p = &system_.positions[0].x;
  obs::guard_finite({p, 3 * system_.size()}, "positions",
                    static_cast<long>(steps_),
                    &krylov_stats_.relative_changes);
}

void MatrixFreeBdSimulation::step_once() {
  HBD_TRACE_SCOPE("bd.step");
  const Timer step_timer;
  if (block_cursor_ == 0 || block_cursor_ >= config_.lambda_rpy) rebuild();
  propagate(system_, forces_, config_, *backend_, displacements_,
            block_cursor_, *nlist_, wrapped_, forces_scratch_,
            velocity_scratch_);
  if constexpr (obs::kEnabled) guard_step();
  ++block_cursor_;
  ++steps_;
  HBD_COUNTER_ADD("bd.steps", 1);
  const double wall = step_timer.seconds();
  HBD_HISTOGRAM_OBSERVE("bd.step.seconds", wall);
  observer_.on_step(wall, observed_state());
}

void MatrixFreeBdSimulation::step(std::size_t nsteps) {
  for (std::size_t s = 0; s < nsteps; ++s) {
    if constexpr (obs::kEnabled) {
      try {
        observer_.throw_if_injected();
        step_once();
      } catch (const NumericalException& e) {
        observer_.on_failure(e);
        throw;
      }
    } else {
      step_once();
    }
  }
}

obs::ReplayConfig MatrixFreeBdSimulation::replay_config() const {
  obs::ReplayConfig cfg;
  auto str = [&](const char* k, std::string v) {
    cfg.strings.emplace_back(k, std::move(v));
  };
  auto num = [&](const char* k, double v) {
    cfg.numbers.emplace_back(k, v);
  };
  // Bitwise-critical doubles go through hex_double — decimal text would
  // round; small integers are safe as JSON numbers.
  str("driver", "matrix_free");
  str("dt", obs::hex_double(config_.dt));
  str("kbt", obs::hex_double(config_.kbt));
  str("mu0", obs::hex_double(config_.mu0));
  str("box", obs::hex_double(system_.box));
  str("radius", obs::hex_double(system_.radius));
  str("rmax", obs::hex_double(pme_params_.rmax));
  str("xi", obs::hex_double(pme_params_.xi));
  // The *live* skin: under auto-tuning the replay must freeze it, since the
  // cell decomposition (and so force summation order) depends on it.
  str("skin", obs::hex_double(nlist_ ? nlist_->skin() : pme_params_.skin));
  str("krylov_tol", obs::hex_double(krylov_config_.tolerance));
  str("seed", obs::hex_u64(config_.seed));
  str("precision", precision_name(pme_params_.precision));
  str("brownian", brownian_method_name(pme_params_.brownian));
  str("kernel", ewald_kernel_name(pme_params_.kernel));
  str("tier", mobility_tier_name(backend_ ? tier() : native_tier_));
  str("storage", pme_params_.storage == NearFieldStorage::symmetric
                     ? "symmetric"
                     : "full");
  str("interp",
      pme_params_.interp == InterpKind::lagrange ? "lagrange" : "bspline");
  num("n", static_cast<double>(system_.size()));
  num("mesh", static_cast<double>(pme_params_.mesh));
  num("order", pme_params_.order);
  num("lambda_rpy", static_cast<double>(config_.lambda_rpy));
  num("precompute_interp", pme_params_.precompute_interp ? 1.0 : 0.0);
  num("partial_rebuilds", pme_params_.partial_rebuilds ? 1.0 : 0.0);
  // Force-field reconstruction (replay refuses unknown types).
  const ForceField* ff = forces_.get();
  str("force", ff ? ff->name() : "none");
  if (const auto* rh = dynamic_cast<const RepulsiveHarmonic*>(ff)) {
    str("force_radius", obs::hex_double(rh->radius()));
    str("force_k", obs::hex_double(rh->spring_k()));
  } else if (const auto* uf = dynamic_cast<const UniformForce*>(ff)) {
    const Vec3 f = uf->force();
    str("force_x", obs::hex_double(f.x));
    str("force_y", obs::hex_double(f.y));
    str("force_z", obs::hex_double(f.z));
  }
  return cfg;
}

void MatrixFreeBdSimulation::restore_flight(
    std::span<const double> positions, const Xoshiro256::State& rng_trajectory,
    const Xoshiro256::State& rng_wavespace, std::uint64_t step) {
  HBD_CHECK(positions.size() == 3 * system_.size());
  for (std::size_t i = 0; i < system_.size(); ++i) {
    system_.positions[i].x = positions[3 * i];
    system_.positions[i].y = positions[3 * i + 1];
    system_.positions[i].z = positions[3 * i + 2];
  }
  rng_.set_state(rng_trajectory);
  wave_rng_.set_state(rng_wavespace);
  steps_ = step;
  // Force the next step() to rebuild: the anchor was captured at the top of
  // a rebuild, so stepping from here re-samples the identical block.
  block_cursor_ = 0;
}

std::size_t MatrixFreeBdSimulation::mobility_bytes() const {
  return backend_ ? backend_->bytes() : 0;
}

}  // namespace hbd
