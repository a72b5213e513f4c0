// Observation-only bookkeeping of one BD run, kept out of the stepper.
//
// MatrixFreeBdSimulation owns one RunObserver.  The observer reads the
// driver only through its public interface; what a hook needs beyond that
// (the RNG streams, the step's forces) the driver hands it as arguments.
// The driver calls it at these points:
//
//   on_start()         last statement of the driver's constructor:
//                      publishes the run manifest, then wires the stream
//                      writer, flight recorder and failure injection from
//                      the environment, so the stream header carries this
//                      run's manifest;
//   on_rebuild(state)  top of every mobility rebuild, before routing and
//                      sampling: closes the drift-audit window (Eq. 10
//                      predictions against the PME operator's phase
//                      timers) and captures the flight recorder's replay
//                      anchor;
//   on_step(wall, state)
//                      after every completed step: the stream record, the
//                      flight record, and the obs.overhead_frac gauge that
//                      accounts for both;
//   on_swap(outgoing)  after a backend swap: closes the outgoing operator's
//                      audit window, resets the phase baseline (the new
//                      operator's timers start at zero) and republishes the
//                      run manifest;
//   on_failure(e)      a NumericalException escaping a step: attaches its
//                      context to the flight recorder and dumps the bundle;
//
// plus throw_if_injected() before each step (HBD_FLIGHT_INJECT) and
// publish_manifest() from set_error_budget.  The health report (HBD_HEALTH)
// is written at destruction, once on_start() has run.  Nothing here feeds
// back into the trajectory: every record is derived from state the step
// produced anyway, so a run is bitwise identical with its outputs on or
// off.  It reads PmeOperator timers and apply counts, which is why it lives
// in core rather than obs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "obs/drift.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/stream.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

class MatrixFreeBdSimulation;

class RunObserver {
 public:
  /// Driver state the hooks read that the driver's public interface does
  /// not expose.
  struct DriverState {
    const Xoshiro256& rng_trajectory;
    const Xoshiro256& rng_wavespace;
    std::span<const double> forces;  ///< the last step's forces (3n)
  };

  /// Inert until on_start().  `sim` must outlive the observer (the driver
  /// holds it as its last member).
  explicit RunObserver(const MatrixFreeBdSimulation& sim) : sim_(sim) {}
  /// Writes the health report to HBD_HEALTH when set and on_start() ran
  /// (a driver whose constructor threw writes nothing).
  ~RunObserver();
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  // --- Hooks (the driver's only telemetry entry points) --------------------

  /// Publishes the manifest, then wires the stream writer, flight recorder
  /// and failure injection from the environment (HBD_STREAM, HBD_FLIGHT,
  /// HBD_FLIGHT_INJECT); all stay off in -DHBD_TELEMETRY=OFF builds.
  void on_start();
  void on_rebuild(const DriverState& state);
  void on_step(double wall_seconds, const DriverState& state);
  /// `outgoing` is the replaced backend's PME operator (null for tea/dense).
  void on_swap(const PmeOperator* outgoing);
  void on_failure(const NumericalException& e);

  /// Throws a synthetic NumericalException (phase "inject") when the next
  /// step is the injection step; the driver calls it before the step
  /// mutates any state, so the flight bundle's replay reaches the identical
  /// point with the identical state.
  void throw_if_injected() const;

  /// Copies the driver's manifest into obs::run_manifest(), the copy the
  /// metrics/trace exporters and the /manifest endpoint embed.
  void publish_manifest() const;

  // --- Attach / query ------------------------------------------------------

  /// Attach or replace the stream writer / flight recorder (tests, the
  /// replay tool); on_start() already wired them from the environment.
  void enable_stream(obs::StreamWriter::Options opts);
  void enable_flight(obs::FlightRecorder::Options opts);
  obs::StreamWriter* stream() { return stream_.get(); }
  obs::FlightRecorder* flight() { return flight_.get(); }
  void set_inject_step(std::uint64_t step) { inject_step_ = step; }

  /// Per-phase measured-vs-modeled accounting, one window per mobility
  /// rebuild of a PME tier: predictions from westmere_ep() applied to the
  /// window's actual apply counts, measurements from the phase timers.
  const obs::DriftAudit& drift_audit() const { return drift_; }

 private:
  /// Operator readings: per-phase timer seconds, indexed like
  /// obs::kStreamPhaseNames, and the apply counts.
  struct PhaseReading {
    std::array<double, obs::kStreamPhases> seconds{};
    PmeOperator::ApplyCounts counts;
  };
  /// Moves baseline_ to `op`'s cumulative readings and returns the delta,
  /// which also accumulates into window_.
  PhaseReading advance(const PmeOperator& op);
  /// Records window_ (closed at `op`'s current readings) as one drift-audit
  /// window per phase, then empties it.
  void audit(const PmeOperator& op);

  const MatrixFreeBdSimulation& sim_;
  obs::DriftAudit drift_;
  /// The live operator's cumulative readings at the last advance(); reset
  /// only by on_swap().
  PhaseReading baseline_;
  /// Deltas since the last audit window closed.
  PhaseReading window_;
  std::unique_ptr<obs::StreamWriter> stream_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::uint64_t inject_step_ = ~std::uint64_t{0};
  bool started_ = false;  ///< on_start() ran: the driver is fully built
  bool rebuilt_ = false;  ///< on_rebuild() ran since the last on_step()
  double obs_seconds_ = 0.0;   ///< time spent in on_step()
  double step_seconds_ = 0.0;  ///< total stepped wall time (incl. obs)
};

}  // namespace hbd
