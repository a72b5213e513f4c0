#include "core/run_observer.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/simulation.hpp"
#include "hybrid/perf_model.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

namespace {

PmeOperator::ApplyCounts operator-(const PmeOperator::ApplyCounts& a,
                                   const PmeOperator::ApplyCounts& b) {
  return {a.single - b.single, a.block - b.block,
          a.block_columns - b.block_columns, a.wave - b.wave,
          a.wave_columns - b.wave_columns};
}

PmeOperator::ApplyCounts& operator+=(PmeOperator::ApplyCounts& a,
                                     const PmeOperator::ApplyCounts& b) {
  a.single += b.single;
  a.block += b.block;
  a.block_columns += b.block_columns;
  a.wave += b.wave;
  a.wave_columns += b.wave_columns;
  return a;
}

}  // namespace

RunObserver::~RunObserver() {
  if constexpr (obs::kEnabled) {
    if (!started_) return;
    const obs::HealthMonitor& health = sim_.health();
    if (!health.export_path().empty())
      health.write_json(health.export_path(), sim_.manifest());
  }
}

void RunObserver::on_start() {
  started_ = true;
  // Publish this run's provenance to the process-wide manifest embedded by
  // the metrics/trace/bench exporters (last constructed driver wins) before
  // the stream writer copies it into its header.
  publish_manifest();
  // from_env returns nullptr in -DHBD_TELEMETRY=OFF builds.
  stream_ = obs::StreamWriter::from_env();
  flight_ = obs::FlightRecorder::from_env();
  if (flight_) flight_->arm_signal_handler();
  if constexpr (obs::kEnabled) {
    if (const char* inj = std::getenv("HBD_FLIGHT_INJECT")) {
      const long long v = std::atoll(inj);
      if (v >= 0) inject_step_ = static_cast<std::uint64_t>(v);
    }
  }
}

void RunObserver::enable_stream(obs::StreamWriter::Options opts) {
  stream_ = std::make_unique<obs::StreamWriter>(std::move(opts));
}

void RunObserver::enable_flight(obs::FlightRecorder::Options opts) {
  flight_ = std::make_unique<obs::FlightRecorder>(std::move(opts));
}

void RunObserver::publish_manifest() const {
  obs::run_manifest() = sim_.manifest();
}

void RunObserver::throw_if_injected() const {
  const std::uint64_t step = sim_.steps_taken();
  if (step != inject_step_) return;
  NumericalContext ctx;
  ctx.phase = "inject";
  ctx.step = static_cast<long>(step);
  throw NumericalException("injected failure (HBD_FLIGHT_INJECT)", ctx);
}

RunObserver::PhaseReading RunObserver::advance(const PmeOperator& op) {
  const auto totals = op.timers().totals();
  PhaseReading delta;
  for (std::size_t p = 0; p < obs::kStreamPhases; ++p) {
    const auto it = totals.find(std::string(obs::kStreamPhaseNames[p]));
    const double now = it == totals.end() ? 0.0 : it->second;
    delta.seconds[p] = now - baseline_.seconds[p];
    baseline_.seconds[p] = now;
    window_.seconds[p] += delta.seconds[p];
  }
  delta.counts = op.apply_counts() - baseline_.counts;
  baseline_.counts = op.apply_counts();
  window_.counts += delta.counts;
  return delta;
}

void RunObserver::audit(const PmeOperator& op) {
  advance(op);
  const PhaseReading w = std::exchange(window_, PhaseReading{});
  const PmeOperator::ApplyCounts& c = w.counts;
  if (c.single + c.block + c.wave == 0) return;

  // Predictions from the paper's reference host over the window's actual
  // work: c.single single sweeps plus c.block batched applies of the mean
  // observed width, with the neighbor count measured from the near-field
  // matrix itself.
  const std::size_t n = sim_.system().size();
  const PmePerfModel model(
      westmere_ep(), static_cast<double>(value_bytes(op.params().precision)));
  const std::size_t mesh = op.params().mesh;
  const int order = op.params().order;
  const std::size_t width =
      c.block > 0 ? static_cast<std::size_t>(c.block_columns / c.block) : 0;
  const double nbr =
      static_cast<double>(op.realspace().logical_nnz_blocks() - n) /
      static_cast<double>(n);
  const bool sym = op.realspace().storage() == NearFieldStorage::symmetric;
  const double ns = static_cast<double>(c.single);
  const double nb = static_cast<double>(c.block);

  // Indexed like obs::kStreamPhaseNames; wave_sample follows below.
  const double modeled[] = {
      ns * model.t_spreading(mesh, order, n) +
          nb * model.t_spreading_block(mesh, order, n, width),
      ns * model.t_fft(mesh) + nb * model.t_fft_block(mesh, width),
      ns * model.t_influence(mesh) + nb * model.t_influence_block(mesh, width),
      ns * model.t_ifft(mesh) + nb * model.t_ifft_block(mesh, width),
      ns * model.t_interpolation(order, n) +
          nb * model.t_interpolation_block(order, n, width),
      ns * model.t_realspace(n, nbr, sym) +
          nb * model.t_realspace_block(n, nbr, width, sym),
  };
  for (std::size_t p = 0; p < std::size(modeled); ++p)
    drift_.record(obs::kStreamPhaseNames[p], w.seconds[p], modeled[p]);
  // Wave-space sampling runs under its own phase so the deterministic
  // pipeline's per-phase accounting above stays clean.
  if (c.wave > 0) {
    const std::size_t p = std::size(modeled);  // "wave_sample"
    const std::size_t wwidth =
        static_cast<std::size_t>(c.wave_columns / c.wave);
    drift_.record(obs::kStreamPhaseNames[p], w.seconds[p],
                  static_cast<double>(c.wave) *
                      model.t_wave_sample(mesh, order, n, wwidth));
  }
}

void RunObserver::on_rebuild(const DriverState& state) {
  rebuilt_ = true;
  // Without telemetry the phase timers observe nothing: no measurements to
  // audit against.
  if constexpr (!obs::kEnabled) return;
  // tea/dense tiers have no phase pipeline to audit.
  if (const PmeOperator* op = sim_.pme()) audit(*op);
  if (!flight_) return;
  // Replay anchor: captured before the Brownian block is sampled, so a
  // restored run re-draws the identical displacements (obs/flight.hpp).
  const ParticleSystem& system = sim_.system();
  obs::FlightSnapshot snap;
  snap.step = sim_.steps_taken();
  snap.skin = sim_.neighbor_list().skin();
  snap.rng_traj = state.rng_trajectory.state();
  snap.rng_wave = state.rng_wavespace.state();
  const double* pos = &system.positions[0].x;
  snap.positions.assign(pos, pos + 3 * system.size());
  flight_->snapshot(std::move(snap));
  flight_->set_replay(sim_.replay_config());
  // The bundle's manifest copy carries the live skin at anchor time.
  publish_manifest();
}

void RunObserver::on_step(double wall_seconds, const DriverState& state) {
  // Consumed here whether or not anything records the step.
  const bool rebuilt = std::exchange(rebuilt_, false);
  if constexpr (!obs::kEnabled) return;
  if (!stream_ && !flight_) return;
  const Timer obs_timer;
  const MatrixFreeBdSimulation& s = sim_;
  const std::uint64_t step = s.steps_taken() - 1;
  const KrylovStats& krylov = s.last_krylov_stats();
  const double krylov_iters =
      rebuilt ? static_cast<double>(krylov.iterations) : 0.0;

  if (stream_) {
    obs::StreamRecord rec;
    rec.step = step;
    rec.wall_seconds = wall_seconds;
    // Per-step phase seconds (PME tiers only — tea/dense have no phase
    // pipeline).
    if (const PmeOperator* op = s.pme()) {
      const PhaseReading d = advance(*op);
      std::copy(d.seconds.begin(), d.seconds.end(), rec.phase_seconds);
    }
    rec.krylov_iters = krylov_iters;
    const double ep = s.health().ep_last();
    rec.e_p = ep > 0.0 ? ep : -1.0;
    rec.rebuild_fraction =
        rebuilt ? effective_rebuild_fraction(s.neighbor_list()) : -1.0;
    rec.rebuilt = rebuilt;
    rec.rng_draws = state.rng_trajectory.draws();
    rec.tier = static_cast<double>(static_cast<int>(s.tier()));
    stream_->push(rec);
  }

  if (flight_) {
    const std::vector<Vec3>& pos = s.system().positions;
    obs::FlightRecord rec;
    rec.step = step;
    rec.pos_hash = obs::hash_doubles({&pos[0].x, 3 * pos.size()});
    rec.force_hash = obs::hash_doubles(state.forces);
    rec.wall_seconds = wall_seconds;
    rec.krylov_iters = krylov_iters;
    rec.krylov_residual = krylov.relative_change;
    rec.rng_draws_traj = state.rng_trajectory.draws();
    rec.rng_draws_wave = state.rng_wavespace.draws();
    rec.rebuilt = rebuilt;
    flight_->record(rec);
  }

  // Self-accounting for the <2% budget: everything this hook spent,
  // including the hashes above, relative to total stepped time.
  const double spent = obs_timer.seconds();
  obs_seconds_ += spent;
  step_seconds_ += wall_seconds + spent;
  if (step_seconds_ > 0.0)
    HBD_GAUGE_SET("obs.overhead_frac", obs_seconds_ / step_seconds_);
}

void RunObserver::on_swap(const PmeOperator* outgoing) {
  if constexpr (obs::kEnabled) {
    if (outgoing) audit(*outgoing);
  }
  // The new operator's cumulative timers and counts start at zero.
  baseline_ = {};
  window_ = {};
  publish_manifest();
}

void RunObserver::on_failure(const NumericalException& e) {
  // Post-mortem: attach the failure context to the flight recorder and dump
  // the bundle before the exception unwinds the run away.
  if (!flight_) return;
  const NumericalContext& ctx = e.context();
  obs::FlightFailure failure;
  failure.phase = ctx.phase;
  failure.what = e.what();
  failure.step =
      ctx.step < 0 ? sim_.steps_taken() : static_cast<std::uint64_t>(ctx.step);
  failure.index = ctx.index;
  failure.value = ctx.value;
  failure.residuals = ctx.residuals;
  flight_->set_failure(std::move(failure));
  flight_->dump();
}

}  // namespace hbd
