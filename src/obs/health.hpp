// Numerical-health observability (telemetry layer 4).
//
// The first three layers answer "where did the time go"; this one answers
// "is the answer still right".  Three pillars (docs/observability.md):
//
//   * run provenance — RunManifest captures the build (git describe,
//     compiler, flags), the process (OMP threads), and the run (BdConfig,
//     PmeParams, system size) so every JSON export and checkpoint is
//     self-describing.  The process-wide run_manifest() is embedded by the
//     metrics/trace/bench exporters.
//   * accuracy probes — HealthMonitor keeps a bounded time series of the
//     PME relative error e_p (paper Sec. V-B), measured on live operators
//     against a high-resolution reference every few mobility rebuilds, and
//     raises a structured HealthEvent when e_p exceeds the tolerance.
//   * failure context — NumericalException replaces bare throws on NaN/Inf
//     or SPD loss: it carries the BD step, the phase, the offending entry,
//     and the last Krylov relative-change series (Eq. 9), so a crashed
//     10-hour run leaves a post-mortem instead of a stack trace.
//
// Like the rest of src/obs, everything observes nothing under
// -DHBD_TELEMETRY=OFF: guard_finite() compiles to a no-op, probes are
// never scheduled, and trajectories are bitwise identical either way.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

/// Structured context of a numerical failure: where in the run (step),
/// where in the algorithm (phase), which entry went bad, and what the
/// solver's convergence history looked like on the way down.
struct NumericalContext {
  std::string phase;  ///< "forces", "positions", "displacements",
                      ///< "krylov.sqrt", "krylov.spd", "chebyshev.sqrt", …
  long step = -1;     ///< BD step index (-1 when thrown below the driver)
  long index = -1;    ///< offending flat entry (particle = index / 3)
  double value = 0.0; ///< the offending value (NaN/Inf, or the lost pivot)
  std::vector<double> residuals;  ///< last per-iteration relative changes
};

/// Thrown instead of a bare hbd::Error when a numerical invariant breaks;
/// what() summarizes the context, context() holds it structurally.
class NumericalException : public Error {
 public:
  NumericalException(const std::string& message, NumericalContext ctx);
  const NumericalContext& context() const { return ctx_; }
  NumericalContext& context() { return ctx_; }

 private:
  NumericalContext ctx_;
};

namespace obs {

/// Index of the first non-finite element of `v` (-1 if all finite).
long first_nonfinite(std::span<const double> v);

/// Cold path of guard_finite: throws NumericalException for v[index].
[[noreturn]] void throw_nonfinite(const char* phase, long step, long index,
                                  double value,
                                  const std::vector<double>* residuals);

/// Throws NumericalException when `v` contains a NaN or Inf, tagging it
/// with the BD step and phase (and optionally the last solver residual
/// series).  Compiles out entirely with -DHBD_TELEMETRY=OFF.
inline void guard_finite(std::span<const double> v, const char* phase,
                         long step,
                         const std::vector<double>* residuals = nullptr) {
  if constexpr (kEnabled) {
    const long i = first_nonfinite(v);
    if (i >= 0) throw_nonfinite(phase, step, i, v[i], residuals);
  } else {
    (void)v;
    (void)phase;
    (void)step;
    (void)residuals;
  }
}

// ---- Run provenance ---------------------------------------------------------

/// Everything needed to reproduce (or audit) the run that produced an
/// artifact.  Build fields come from the CMake-generated hbd_version.hpp;
/// run fields are filled by the BD drivers at construction.
struct RunManifest {
  // Build-time provenance.
  std::string version;     ///< git describe --always --dirty --tags
  std::string compiler;    ///< compiler id + version
  std::string flags;       ///< CXX flags of the configured build type
  std::string build_type;  ///< CMake build type
  bool telemetry = kEnabled;

  // Process state.
  int omp_threads = 0;

  // Run configuration (zero until a driver fills them).
  std::uint64_t seed = 0;
  double dt = 0.0, kbt = 0.0, mu0 = 0.0;
  std::uint64_t lambda_rpy = 0;
  std::uint64_t particles = 0;
  double box = 0.0, radius = 0.0;

  // PME operator parameters.
  std::uint64_t mesh = 0;
  int order = 0;
  double rmax = 0.0, xi = 0.0, skin = 0.0;
  /// Skin auto-tuning active: `skin` is the live (tuned) value at manifest
  /// time, not the configured seed value.
  bool skin_auto = false;
  /// Storage precision of the near-field values / interpolation weights
  /// ("fp64" or "fp32"; accumulation is FP64 either way).
  std::string precision = "fp64";
  /// Brownian sampling route: "krylov" (full-operator block Lanczos),
  /// "wavespace" (PSE split sampler), "tea" (truncated expansion) or
  /// "cholesky" (dense tier).
  std::string brownian_method = "krylov";
  /// Ewald split of the PME operator: "beenakker" (default) or the
  /// positively-split "pse" kernel the wavespace sampler requires.
  std::string ewald_kernel = "beenakker";
  /// Active mobility fidelity tier (core/backend.hpp): "tea",
  /// "pse_wavespace", "pme_krylov", or "dense".
  std::string mobility_tier = "pme_krylov";
  /// Backend swaps performed so far (forced or TierPolicy-driven).
  std::uint64_t tier_switches = 0;
  /// TierPolicy e_p budget; 0 when routing is disabled.
  double error_budget = 0.0;
  /// RNG substream ids (long jumps from `seed`, see hbd::substream): the
  /// trajectory stream drives forces + near-field noise, the wavespace
  /// stream the mesh noise of the split sampler.
  int rng_stream_trajectory = 0;
  int rng_stream_wavespace = 1;

  // Performance-model hardware baseline (HardwareParams headline rates).
  std::string hw_name;
  double hw_gflops = 0.0, hw_bw_gbs = 0.0;

  /// Build fields and the OMP thread count filled in; run fields zero.
  static RunManifest build_info();

  /// Writes the manifest object (the caller has already emitted the key).
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
};

/// Process-wide manifest embedded by the JSON exporters (metrics snapshot,
/// Chrome trace, bench reports).  Starts as build_info(); drivers overwrite
/// the run fields at construction (last constructed wins).
RunManifest& run_manifest();

// ---- Health monitor ---------------------------------------------------------

/// One e_p probe of the live operator against the reference.
struct EpProbe {
  std::uint64_t step = 0;
  double ep = 0.0;
};

/// One covariance probe of the Brownian sampler (⟨(xᵀD)²⟩ vs xᵀ M̃ x).
struct CovProbe {
  std::uint64_t step = 0;
  double error = 0.0;
};

/// Convergence record of one mobility update's Brownian sampling.
struct KrylovUpdate {
  std::uint64_t step = 0;
  int iterations = 0;
  double relative_change = 0.0;
  bool converged = false;
};

/// A structured warning/error raised by a probe or guard.
struct HealthEvent {
  enum class Severity { info, warning, error };
  Severity severity = Severity::info;
  std::uint64_t step = 0;
  std::string phase;
  std::string message;
  double value = 0.0;
  double threshold = 0.0;
};

/// Aggregated numerical-health state of one simulation: bounded e_p and
/// Krylov histories, warning events, and a JSON report embedding the run
/// manifest.  Owned by MatrixFreeBdSimulation; all methods are thread-safe
/// and become no-ops with -DHBD_TELEMETRY=OFF.
class HealthMonitor {
 public:
  /// Reads the environment: HBD_HEALTH=<path> (report written there at the
  /// end of the owning simulation; also enables probing),
  /// HBD_HEALTH_EP_TOL, HBD_HEALTH_PROBE_INTERVAL (mobility rebuilds
  /// between probes), HBD_HEALTH_SAMPLES (force vectors per probe).
  HealthMonitor();

  bool probes_enabled() const { return probes_enabled_; }
  void set_probes_enabled(bool on) { probes_enabled_ = on; }
  std::size_t probe_interval() const { return probe_interval_; }
  void set_probe_interval(std::size_t rebuilds);
  std::size_t probe_samples() const { return probe_samples_; }
  void set_probe_samples(std::size_t samples);
  double ep_tolerance() const { return ep_tolerance_; }
  void set_ep_tolerance(double tol) { ep_tolerance_ = tol; }
  /// Covariance-probe tolerance (HBD_HEALTH_COV_TOL; generous by default —
  /// the probe is a sampling estimator with ~12% relative std at the
  /// driver's 128 samples, so the bound catches sampler bugs, not noise).
  double cov_tolerance() const { return cov_tolerance_; }
  void set_cov_tolerance(double tol) { cov_tolerance_ = tol; }
  const std::string& export_path() const { return export_path_; }
  void set_export_path(std::string path) { export_path_ = std::move(path); }

  /// Called once per mobility rebuild by the owning driver; true when this
  /// rebuild should run an e_p probe (the first rebuild, then every
  /// probe_interval()-th).  Always false when probing is disabled.
  bool probe_due();

  /// Appends one e_p sample; raises a warning HealthEvent (and sets the
  /// "health.ep" gauge) when it exceeds ep_tolerance().
  void record_ep(std::uint64_t step, double ep);

  /// Appends one sampled-covariance error; raises a warning HealthEvent
  /// (and sets the "health.cov" gauge) when it exceeds cov_tolerance().
  void record_cov(std::uint64_t step, double error);

  /// Appends one mobility update's Krylov convergence record.
  void record_krylov(std::uint64_t step, int iterations,
                     double relative_change, bool converged);

  void record_event(HealthEvent event);

  // Aggregates (cheap, lock-protected).
  std::uint64_t krylov_updates() const;
  std::uint64_t krylov_iterations_total() const;
  int krylov_iterations_max() const;
  std::uint64_t krylov_nonconverged() const;
  double ep_last() const;
  double ep_max() const;
  double cov_last() const;
  double cov_max() const;
  std::size_t warnings() const;

  std::vector<EpProbe> ep_history() const;
  std::vector<CovProbe> cov_history() const;
  std::vector<KrylovUpdate> krylov_history() const;
  std::vector<HealthEvent> events() const;

  /// Human-readable end-of-run summary (examples/quickstart).
  std::string summary() const;

  /// Health report: { "manifest": …, "ep": …, "krylov": …, "events": … }.
  void write_json(std::ostream& out, const RunManifest& manifest) const;
  bool write_json(const std::string& path, const RunManifest& manifest) const;

  void clear();

 private:
  static constexpr std::size_t kMaxSeries = 4096;  // bounded histories

  mutable std::mutex mu_;
  bool probes_enabled_ = false;
  std::size_t probe_interval_ = 8;
  std::size_t probe_samples_ = 4;
  double ep_tolerance_ = 5e-3;
  std::string export_path_;

  double cov_tolerance_ = 0.5;

  std::uint64_t rebuilds_seen_ = 0;
  std::vector<EpProbe> ep_;
  std::vector<CovProbe> cov_;
  std::vector<KrylovUpdate> krylov_;
  std::vector<HealthEvent> events_;
  std::uint64_t krylov_updates_ = 0;
  std::uint64_t krylov_iterations_total_ = 0;
  int krylov_iterations_max_ = 0;
  std::uint64_t krylov_nonconverged_ = 0;
  double ep_last_ = 0.0;
  double ep_max_ = 0.0;
  double cov_last_ = 0.0;
  double cov_max_ = 0.0;
  std::size_t warnings_ = 0;
};

}  // namespace obs
}  // namespace hbd
