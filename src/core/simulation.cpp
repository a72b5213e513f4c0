#include "core/simulation.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "linalg/blas.hpp"
#include "obs/hwcounters.hpp"
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
  // Publish this run's provenance to the process-wide manifest embedded by
  // the metrics/trace/bench exporters (last constructed driver wins).
  obs::run_manifest() = manifest();
  // Live telemetry (layers 5–6): stream writer, flight recorder, and the
  // deterministic failure injection knob, all env-gated and all null in
  // -DHBD_TELEMETRY=OFF builds (from_env returns nullptr there).
  stream_ = obs::StreamWriter::from_env();
  flight_ = obs::FlightRecorder::from_env();
  if (flight_) flight_->arm_signal_handler();
  if constexpr (obs::kEnabled) {
    if (const char* inj = std::getenv("HBD_FLIGHT_INJECT")) {
      const long long v = std::atoll(inj);
      if (v >= 0) inject_step_ = static_cast<std::uint64_t>(v);
    }
    // Layer 7: the drift audit's roofline records normalize against the
    // model's hardware roofs; HBD_ROOFLINE=<path> dumps the full
    // timer/model/counter evidence at destruction.
    drift_.set_roofs(model_hw_.stream_bw_gbs, model_hw_.peak_dp_gflops);
    if (const char* path = std::getenv("HBD_ROOFLINE"))
      roofline_path_ = path;
  }
}

void MatrixFreeBdSimulation::enable_stream(obs::StreamWriter::Options opts) {
  stream_ = std::make_unique<obs::StreamWriter>(std::move(opts));
}

void MatrixFreeBdSimulation::enable_flight(obs::FlightRecorder::Options opts) {
  flight_ = std::make_unique<obs::FlightRecorder>(std::move(opts));
}

MatrixFreeBdSimulation::~MatrixFreeBdSimulation() {
  if constexpr (obs::kEnabled) {
    if (!health_.export_path().empty())
      health_.write_json(health_.export_path(), manifest());
    if (!roofline_path_.empty()) write_roofline_json(roofline_path_);
  }
}

bool MatrixFreeBdSimulation::write_roofline_json(const std::string& path) {
  if constexpr (!obs::kEnabled) {
    (void)path;
    return false;
  }
  // Close the open audit window so the export covers every apply so far.
  if (pme()) audit_drift();
  std::ofstream out(path);
  if (!out) return false;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "hbd.roofline.v1");
  w.key("manifest");
  manifest().write_json(w);
  const obs::PerfCounters& perf = obs::PerfCounters::global();
  w.key("perf");
  w.begin_object();
  w.field("mode", obs::perf_mode_name(perf.mode()));
  w.field("fallback", perf.fallback_reason());
  w.field("line_bytes", obs::PerfCounters::line_bytes());
  w.key("events");
  w.begin_array();
  for (const std::string& ev : perf.events()) w.value(ev);
  w.end_array();
  w.end_object();
  drift_.write_json_fields(w);
  w.end_object();
  out << "\n";
  return out.good();
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
  // 1.0 until the operator exists (every row colored / no hybrid split).
  const PmeOperator* op = pme();
  m.colored_fraction = op ? op->realspace().colored_fraction() : 1.0;
  const MobilityTier active = backend_ ? tier() : native_tier_;
  // The dense tier factors its mobility; pme_params_ keeps describing the
  // PME splitting the run returns to.
  m.brownian_method = active == MobilityTier::dense
                          ? "cholesky"
                          : brownian_method_name(pme_params_.brownian);
  m.ewald_kernel = ewald_kernel_name(pme_params_.kernel);
  m.mobility_tier = mobility_tier_name(active);
  m.tier_switches = tier_switches_;
  m.error_budget = error_budget_;
  m.rng_stream_trajectory = kTrajectoryStream;
  m.rng_stream_wavespace = kWavespaceStream;
  m.hw_name = model_hw_.name;
  m.hw_gflops = model_hw_.peak_dp_gflops;
  m.hw_bw_gbs = model_hw_.stream_bw_gbs;
  return m;
}

void MatrixFreeBdSimulation::rebuild() {
  HBD_TRACE_SCOPE("bd.rebuild");
  // Close the previous audit window before this rebuild's applies land in
  // the operator's phase timers.
  if (pme()) audit_drift();
  // Replay anchor: captured before the Brownian block is sampled, so a
  // restored run re-draws the identical displacements (obs/flight.hpp).
  if constexpr (obs::kEnabled) {
    if (flight_) snapshot_flight();
  }
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
      PmePerfModel(effective_hardware(),
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
  // Candidate costs come from the recalibrated perf model (the drift audit
  // folds measured per-phase scales into effective_hardware when
  // auto-recalibration is on); declared accuracies are the tier defaults.
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
    backend_ = make_mobility_backend(t, system_.size(), system_.box,
                                     system_.radius, pme_params_,
                                     krylov_config_, nlist_);
  } else {
    // tea/dense need no PME operator and no list: propagate stops
    // revalidating it until a PME tier returns (the forces keep their own).
    backend_ = make_mobility_backend(t, system_.size(), system_.box,
                                     system_.radius, pme_params_,
                                     krylov_config_, nullptr);
  }
  // The old operator's cumulative timers/counters died with it — reset the
  // audit/stream baselines so the next windows don't see negative deltas.
  counts_seen_ = {};
  phase_seen_.clear();
  stream_phase_seen_.clear();
  ++tier_switches_;
  HBD_COUNTER_ADD("bd.tier_switches", 1);
  HBD_GAUGE_SET("bd.tier", static_cast<double>(static_cast<int>(t)));
  if constexpr (obs::kEnabled) obs::run_manifest() = manifest();
}

void MatrixFreeBdSimulation::set_tier(MobilityTier t) {
  forced_tier_ = true;
  if (backend_ && tier() == t) return;
  if (pme()) audit_drift();
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
  [[maybe_unused]] const Timer step_timer;
  if constexpr (obs::kEnabled) {
    // Deterministic failure injection (HBD_FLIGHT_INJECT): thrown before
    // any state mutates, so the flight bundle's replay hits the identical
    // point with the identical state.
    if (steps_ == inject_step_) {
      NumericalContext ctx;
      ctx.phase = "inject";
      ctx.step = static_cast<long>(steps_);
      throw NumericalException("injected failure (HBD_FLIGHT_INJECT)", ctx);
    }
  }
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
  if constexpr (obs::kEnabled) observe_step(wall);
}

void MatrixFreeBdSimulation::step(std::size_t nsteps) {
  for (std::size_t s = 0; s < nsteps; ++s) {
    if constexpr (obs::kEnabled) {
      try {
        step_once();
      } catch (const NumericalException& e) {
        // Post-mortem: attach the failure context to the flight recorder
        // and dump the bundle before the exception unwinds the run away.
        if (flight_) {
          const NumericalContext& ctx = e.context();
          obs::FlightFailure failure;
          failure.phase = ctx.phase;
          failure.what = e.what();
          failure.step = ctx.step < 0 ? steps_
                                      : static_cast<std::uint64_t>(ctx.step);
          failure.index = ctx.index;
          failure.value = ctx.value;
          failure.residuals = ctx.residuals;
          flight_->set_failure(std::move(failure));
          flight_->dump();
        }
        throw;
      }
    } else {
      step_once();
    }
  }
}

void MatrixFreeBdSimulation::observe_step(double wall_seconds) {
  obs::PerfCounters& perf = obs::PerfCounters::global();
  const bool counting = perf.counting();
  if (!stream_ && !flight_ && !counting) return;
  const Timer obs_timer;
  const bool rebuilt = block_cursor_ == 1;  // rebuild() ran on this step
  const std::size_t n = system_.size();
  const double* pos = &system_.positions[0].x;

  if (stream_) {
    obs::StreamRecord rec;
    rec.step = steps_ - 1;
    rec.wall_seconds = wall_seconds;
    // Per-step phase seconds: deltas of the operator's cumulative timers
    // (PME tiers only — tea/dense have no phase pipeline).
    if (PmeOperator* op = pme()) {
      const auto totals = op->timers().totals();
      for (std::size_t p = 0; p < obs::kStreamPhases; ++p) {
        const std::string key(obs::kStreamPhaseNames[p]);
        const auto it = totals.find(key);
        const double total = it == totals.end() ? 0.0 : it->second;
        rec.phase_seconds[p] = total - stream_phase_seen_[key];
        stream_phase_seen_[key] = total;
      }
    }
    rec.krylov_iters =
        rebuilt ? static_cast<double>(krylov_stats_.iterations) : 0.0;
    const double ep = health_.ep_last();
    rec.e_p = ep > 0.0 ? ep : -1.0;
    rec.rebuild_fraction =
        rebuilt ? effective_rebuild_fraction(*nlist_) : -1.0;
    rec.rebuilt = rebuilt;
    rec.rng_draws = rng_.draws();
    // Roofline summaries exist only on rebuild steps with hardware
    // counters live; -1 keeps counters-off stream output unchanged.
    if (rebuilt) {
      rec.roof_bytes_ratio = last_roof_bytes_ratio_;
      rec.roof_gbs = last_roof_gbs_;
    }
    rec.tier = static_cast<double>(static_cast<int>(tier()));
    stream_->push(rec);
  }

  if (flight_) {
    obs::FlightRecord rec;
    rec.step = steps_ - 1;
    rec.pos_hash = obs::hash_doubles({pos, 3 * n});
    rec.force_hash = obs::hash_doubles(forces_scratch_);
    rec.wall_seconds = wall_seconds;
    rec.krylov_iters =
        rebuilt ? static_cast<double>(krylov_stats_.iterations) : 0.0;
    rec.krylov_residual = krylov_stats_.relative_change;
    rec.rng_draws_traj = rng_.draws();
    rec.rng_draws_wave = wave_rng_.draws();
    rec.rebuilt = rebuilt;
    flight_->record(rec);
  }

  // Self-accounting for the <2% budget: everything this hook spent,
  // including the hashes above, relative to total stepped time.  The perf
  // scopes' self-measured read cost accrued inside the step's wall time;
  // folding its delta into obs_seconds_ keeps counter overhead under the
  // same obs.overhead_frac gate.
  if (counting) {
    const double perf_total = perf.overhead_seconds();
    obs_seconds_ += perf_total - perf_overhead_seen_;
    perf_overhead_seen_ = perf_total;
  }
  const double spent = obs_timer.seconds();
  obs_seconds_ += spent;
  step_seconds_ += wall_seconds + spent;
  if (step_seconds_ > 0.0)
    HBD_GAUGE_SET("obs.overhead_frac", obs_seconds_ / step_seconds_);
}

void MatrixFreeBdSimulation::snapshot_flight() {
  obs::FlightSnapshot snap;
  snap.step = steps_;
  snap.skin = nlist_->skin();
  snap.rng_traj = rng_.state();
  snap.rng_wave = wave_rng_.state();
  const double* pos = &system_.positions[0].x;
  snap.positions.assign(pos, pos + 3 * system_.size());
  flight_->snapshot(std::move(snap));
  flight_->set_replay(replay_config());
  // Refresh the process-wide manifest so the bundle's copy carries the
  // live skin / colored-fraction values at anchor time.
  obs::run_manifest() = manifest();
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
  num("sym_degree_threshold",
      static_cast<double>(pme_params_.sym_degree_threshold));
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

void MatrixFreeBdSimulation::audit_drift() {
  // Without telemetry the phase timers observe nothing — no measurements to
  // audit against.
  if constexpr (!obs::kEnabled) return;
  PmeOperator* op = pme();
  if (!op) return;  // tea/dense tiers have no phase pipeline to audit
  const std::size_t n = system_.size();
  const auto totals = op->timers().totals();
  const PmeOperator::ApplyCounts counts = op->apply_counts();
  const std::uint64_t d_single = counts.single - counts_seen_.single;
  const std::uint64_t d_block = counts.block - counts_seen_.block;
  const std::uint64_t d_cols =
      counts.block_columns - counts_seen_.block_columns;
  const std::uint64_t d_wave = counts.wave - counts_seen_.wave;
  const std::uint64_t d_wcols =
      counts.wave_columns - counts_seen_.wave_columns;
  counts_seen_ = counts;
  if (d_single + d_block + d_wave == 0) return;

  // Predictions from the base model over the window's actual work: d_single
  // single sweeps plus d_block batched applies of the mean observed width,
  // with the neighbor count measured from the near-field matrix itself.
  const PmePerfModel model(
      model_hw_, static_cast<double>(value_bytes(pme_params_.precision)));
  const std::size_t mesh = op->params().mesh;
  const int order = op->params().order;
  const std::size_t width =
      d_block > 0 ? static_cast<std::size_t>(d_cols / d_block) : 0;
  const double nbr =
      static_cast<double>(op->realspace().logical_nnz_blocks() - n) /
      static_cast<double>(n);
  const bool sym =
      op->realspace().storage() == NearFieldStorage::symmetric;
  const double ns = static_cast<double>(d_single);
  const double nb = static_cast<double>(d_block);

  const struct {
    const char* phase;
    double modeled;
    obs::PhaseScaling scaling;
  } rows[] = {
      {"spreading",
       ns * model.t_spreading(mesh, order, n) +
           nb * model.t_spreading_block(mesh, order, n, width),
       obs::PhaseScaling::bandwidth},
      {"fft", ns * model.t_fft(mesh) + nb * model.t_fft_block(mesh, width),
       obs::PhaseScaling::fft},
      {"influence",
       ns * model.t_influence(mesh) + nb * model.t_influence_block(mesh, width),
       obs::PhaseScaling::bandwidth},
      {"ifft", ns * model.t_ifft(mesh) + nb * model.t_ifft_block(mesh, width),
       obs::PhaseScaling::ifft},
      {"interpolation",
       ns * model.t_interpolation(order, n) +
           nb * model.t_interpolation_block(order, n, width),
       obs::PhaseScaling::bandwidth},
      {"realspace",
       ns * model.t_realspace(n, nbr, sym) +
           nb * model.t_realspace_block(n, nbr, width, sym),
       obs::PhaseScaling::bandwidth},
  };
  // Layer 7: hardware-counter evidence for the same windows.  Modeled
  // bytes invert the bandwidth model exactly (t = bytes / stream_bw), so
  // bytes_ratio isolates *traffic* drift from *rate* drift; flop counts
  // are the model's operation accounting (theory.md §12):
  //   spread/interp   6 p³ n per column (one FMA per weight per component)
  //   fft/ifft        3 · 2.5 K³ log2(K³) per column
  //   influence       9 K³ per column (3 complex scalings, half spectrum)
  //   realspace       18 flops per logical 3×3 block per column
  obs::PerfCounters& perf = obs::PerfCounters::global();
  const bool count_bytes = perf.mode() == obs::PerfMode::hardware;
  const double cols = ns + nb * static_cast<double>(width);
  const double k3 = static_cast<double>(mesh) * static_cast<double>(mesh) *
                    static_cast<double>(mesh);
  const double log2k3 = std::log2(std::max(2.0, k3));
  const double p3 = static_cast<double>(order) * static_cast<double>(order) *
                    static_cast<double>(order);
  const double fft_flops = cols * 3.0 * 2.5 * k3 * log2k3;
  const double interp_flops = cols * 6.0 * p3 * static_cast<double>(n);
  const double nnz =
      static_cast<double>(op->realspace().logical_nnz_blocks());
  auto phase_flops = [&](std::string_view phase) {
    if (phase == "spreading" || phase == "interpolation")
      return interp_flops;
    if (phase == "fft" || phase == "ifft") return fft_flops;
    if (phase == "influence") return cols * 9.0 * k3;
    if (phase == "realspace") return cols * 18.0 * nnz;
    return 0.0;
  };
  double window_bytes = 0.0, window_seconds = 0.0;
  obs::PerfSample window_delta;
  auto roofline_row = [&](const char* phase, double measured, double modeled,
                          obs::PhaseScaling scaling) {
    if (!count_bytes) return;
    const obs::PerfSample cum = perf.phase_totals(phase);
    const obs::PerfSample delta = cum - perf_seen_[phase];
    perf_seen_[phase] = cum;
    window_delta += delta;
    const double bytes = delta.llc_misses * obs::PerfCounters::line_bytes();
    // Bandwidth phases have an exact byte model; FFT phases are modeled as
    // compute-bound, so they contribute rates but no bytes_ratio.
    const double modeled_bytes =
        scaling == obs::PhaseScaling::bandwidth
            ? modeled * model_hw_.stream_bw_gbs * 1e9
            : 0.0;
    if (scaling == obs::PhaseScaling::bandwidth && measured > 0.0) {
      window_bytes += bytes;
      window_seconds += measured;
    }
    drift_.record_roofline(phase, scaling, measured, bytes, modeled_bytes,
                           phase_flops(phase));
  };
  for (const auto& row : rows) {
    const auto it = totals.find(row.phase);
    const double total = it == totals.end() ? 0.0 : it->second;
    const double measured = total - phase_seen_[row.phase];
    phase_seen_[row.phase] = total;
    drift_.record(row.phase, measured, row.modeled, row.scaling);
    roofline_row(row.phase, measured, row.modeled, row.scaling);
  }
  // Wave-space sampling runs under its own phase so the deterministic
  // pipeline's per-phase accounting above stays clean; it is iFFT-dominated,
  // so its drift feeds the ifft recalibration bucket.
  if (d_wave > 0) {
    const std::size_t wwidth = static_cast<std::size_t>(d_wcols / d_wave);
    const auto it = totals.find("wave_sample");
    const double total = it == totals.end() ? 0.0 : it->second;
    const double measured = total - phase_seen_["wave_sample"];
    phase_seen_["wave_sample"] = total;
    const double modeled_wave =
        static_cast<double>(d_wave) *
        model.t_wave_sample(mesh, order, n, wwidth);
    drift_.record("wave_sample", measured, modeled_wave,
                  obs::PhaseScaling::ifft);
    roofline_row("wave_sample", measured, modeled_wave,
                 obs::PhaseScaling::ifft);
  }

  // Window roofline summaries into the registry (gauges/counters appear
  // only when hardware counting is live, so counters-off metrics dumps are
  // unchanged) and into the stream records of the steps ahead.
  if (count_bytes) {
    auto& reg = obs::Registry::global();
    reg.counter("perf.cycles")
        .add(static_cast<std::int64_t>(window_delta.cycles));
    reg.counter("perf.instructions")
        .add(static_cast<std::int64_t>(window_delta.instructions));
    reg.counter("perf.llc_misses")
        .add(static_cast<std::int64_t>(window_delta.llc_misses));
    reg.counter("perf.llc_references")
        .add(static_cast<std::int64_t>(window_delta.llc_references));
    for (const obs::RooflineRecord& rec : drift_.roofline()) {
      const std::string prefix = "roofline." + rec.name + ".";
      reg.gauge(prefix + "gbs").set(rec.gbs);
      reg.gauge(prefix + "gfs").set(rec.gfs);
      reg.gauge(prefix + "frac_bw_roof").set(rec.frac_bw_roof);
      if (rec.bytes_ratio_median > 0.0)
        reg.gauge(prefix + "bytes_ratio").set(rec.bytes_ratio_median);
    }
    last_roof_bytes_ratio_ = drift_.recalibration().bytes_ratio;
    if (window_seconds > 0.0)
      last_roof_gbs_ = window_bytes / window_seconds * 1e-9;
  }
}

HardwareParams MatrixFreeBdSimulation::effective_hardware() const {
  if (!recalibrate_) return model_hw_;
  const obs::DriftAudit::Recalibration r = drift_.recalibration();
  return recalibrated(model_hw_, r.bandwidth_scale, r.fft_scale,
                      r.ifft_scale);
}

BdStepModel MatrixFreeBdSimulation::model_step(
    const std::vector<Device>& accelerators, double ep_target) const {
  const Device host{
      PmePerfModel(effective_hardware(),
                   static_cast<double>(value_bytes(pme_params_.precision))),
      /*is_host=*/true};
  const int iters = std::max(krylov_stats_.iterations, 1);
  // With the wavespace sampler, krylov_stats_ holds the near-field-only
  // Lanczos iterations; model_bd_step swaps the λ-block Krylov term for
  // one wave sample + those cheap near-field sweeps.
  return model_bd_step(host, accelerators, system_.size(), system_.box,
                       pme_params_.order, ep_target, config_.lambda_rpy,
                       iters, effective_rebuild_interval(*nlist_),
                       pme_params_.storage == NearFieldStorage::symmetric,
                       effective_rebuild_fraction(*nlist_),
                       pme_params_.brownian == BrownianMethod::wavespace,
                       iters);
}

std::size_t MatrixFreeBdSimulation::mobility_bytes() const {
  return backend_ ? backend_->bytes() : 0;
}

}  // namespace hbd
