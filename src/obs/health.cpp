#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "hbd_version.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hbd {

namespace {

std::string describe(const std::string& message, const NumericalContext& c) {
  std::ostringstream os;
  os << message << " [phase=" << c.phase;
  if (c.step >= 0) os << ", step=" << c.step;
  if (c.index >= 0)
    os << ", entry=" << c.index << " (particle " << c.index / 3 << ")";
  os << ", value=" << c.value;
  if (!c.residuals.empty())
    os << ", " << c.residuals.size() << " residuals, last="
       << c.residuals.back();
  os << "]";
  return os.str();
}

}  // namespace

NumericalException::NumericalException(const std::string& message,
                                       NumericalContext ctx)
    : Error(describe(message, ctx)), ctx_(std::move(ctx)) {}

namespace obs {

long first_nonfinite(std::span<const double> v) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i])) return static_cast<long>(i);
  return -1;
}

void throw_nonfinite(const char* phase, long step, long index, double value,
                     const std::vector<double>* residuals) {
  NumericalContext ctx;
  ctx.phase = phase;
  ctx.step = step;
  ctx.index = index;
  ctx.value = value;
  if (residuals != nullptr) ctx.residuals = *residuals;
  throw NumericalException("non-finite value detected", std::move(ctx));
}

// ---- RunManifest ------------------------------------------------------------

RunManifest RunManifest::build_info() {
  RunManifest m;
  m.version = HBD_VERSION_GIT;
  m.compiler = HBD_BUILD_COMPILER;
  m.flags = HBD_BUILD_FLAGS;
  m.build_type = HBD_BUILD_TYPE;
#ifdef _OPENMP
  m.omp_threads = omp_get_max_threads();
#else
  m.omp_threads = 1;
#endif
  return m;
}

void RunManifest::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("version", version);
  w.field("compiler", compiler);
  w.field("flags", flags);
  w.field("build_type", build_type);
  w.key("telemetry");
  w.value(telemetry);
  w.field("omp_threads", static_cast<double>(omp_threads));
  w.field("seed", static_cast<double>(seed));
  w.field("dt", dt);
  w.field("kbt", kbt);
  w.field("mu0", mu0);
  w.field("lambda_rpy", static_cast<double>(lambda_rpy));
  w.field("particles", static_cast<double>(particles));
  w.field("box", box);
  w.field("radius", radius);
  w.key("pme");
  w.begin_object();
  w.field("mesh", static_cast<double>(mesh));
  w.field("order", static_cast<double>(order));
  w.field("rmax", rmax);
  w.field("xi", xi);
  w.field("skin", skin);
  w.key("skin_auto");
  w.value(skin_auto);
  w.field("precision", precision);
  w.field("brownian_method", brownian_method);
  w.field("ewald_kernel", ewald_kernel);
  w.end_object();
  w.key("rng_streams");
  w.begin_object();
  w.field("trajectory", static_cast<double>(rng_stream_trajectory));
  w.field("wavespace", static_cast<double>(rng_stream_wavespace));
  w.end_object();
  w.key("tier");
  w.begin_object();
  w.field("mobility_tier", mobility_tier);
  w.field("switches", static_cast<double>(tier_switches));
  w.field("error_budget", error_budget);
  w.end_object();
  w.key("hardware");
  w.begin_object();
  w.field("name", hw_name);
  w.field("peak_dp_gflops", hw_gflops);
  w.field("stream_bw_gbs", hw_bw_gbs);
  w.end_object();
  w.end_object();
}

std::string RunManifest::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  write_json(w);
  return os.str();
}

RunManifest& run_manifest() {
  static RunManifest manifest = RunManifest::build_info();
  return manifest;
}

// ---- HealthMonitor ----------------------------------------------------------

namespace {

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return end == s ? fallback : v;
}

}  // namespace

HealthMonitor::HealthMonitor() {
  const char* path = std::getenv("HBD_HEALTH");
  if (path != nullptr && *path != '\0') {
    export_path_ = path;
    probes_enabled_ = true;
  }
  ep_tolerance_ = env_double("HBD_HEALTH_EP_TOL", ep_tolerance_);
  cov_tolerance_ = env_double("HBD_HEALTH_COV_TOL", cov_tolerance_);
  set_probe_interval(static_cast<std::size_t>(env_double(
      "HBD_HEALTH_PROBE_INTERVAL",
      static_cast<double>(probe_interval_))));
  set_probe_samples(static_cast<std::size_t>(
      env_double("HBD_HEALTH_SAMPLES", static_cast<double>(probe_samples_))));
}

void HealthMonitor::set_probe_interval(std::size_t rebuilds) {
  probe_interval_ = std::max<std::size_t>(1, rebuilds);
}

void HealthMonitor::set_probe_samples(std::size_t samples) {
  probe_samples_ = std::max<std::size_t>(1, samples);
}

bool HealthMonitor::probe_due() {
  if constexpr (!kEnabled) return false;
  if (!probes_enabled_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seen = rebuilds_seen_++;
  return seen % probe_interval_ == 0;
}

void HealthMonitor::record_ep(std::uint64_t step, double ep) {
  if constexpr (!kEnabled) return;
  HBD_GAUGE_SET("health.ep", ep);
  HBD_HISTOGRAM_OBSERVE("health.ep_probe", ep);
  bool warn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ep_.size() < kMaxSeries) ep_.push_back({step, ep});
    ep_last_ = ep;
    ep_max_ = std::max(ep_max_, ep);
    warn = ep > ep_tolerance_;
  }
  if (warn) {
    HealthEvent e;
    e.severity = HealthEvent::Severity::warning;
    e.step = step;
    e.phase = "pme.ep";
    e.message = "PME relative error exceeds tolerance";
    e.value = ep;
    e.threshold = ep_tolerance_;
    record_event(std::move(e));
  }
}

void HealthMonitor::record_cov(std::uint64_t step, double error) {
  if constexpr (!kEnabled) return;
  HBD_GAUGE_SET("health.cov", error);
  HBD_HISTOGRAM_OBSERVE("health.cov_probe", error);
  bool warn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cov_.size() < kMaxSeries) cov_.push_back({step, error});
    cov_last_ = error;
    cov_max_ = std::max(cov_max_, error);
    warn = error > cov_tolerance_;
  }
  if (warn) {
    HealthEvent e;
    e.severity = HealthEvent::Severity::warning;
    e.step = step;
    e.phase = "brownian.cov";
    e.message = "sampled Brownian covariance error exceeds tolerance";
    e.value = error;
    e.threshold = cov_tolerance_;
    record_event(std::move(e));
  }
}

void HealthMonitor::record_krylov(std::uint64_t step, int iterations,
                                  double relative_change, bool converged) {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (krylov_.size() < kMaxSeries)
    krylov_.push_back({step, iterations, relative_change, converged});
  ++krylov_updates_;
  krylov_iterations_total_ += static_cast<std::uint64_t>(
      std::max(iterations, 0));
  krylov_iterations_max_ = std::max(krylov_iterations_max_, iterations);
  if (!converged) ++krylov_nonconverged_;
}

void HealthMonitor::record_event(HealthEvent event) {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (event.severity != HealthEvent::Severity::info) ++warnings_;
  if (events_.size() < kMaxSeries) events_.push_back(std::move(event));
}

std::uint64_t HealthMonitor::krylov_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return krylov_updates_;
}
std::uint64_t HealthMonitor::krylov_iterations_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return krylov_iterations_total_;
}
int HealthMonitor::krylov_iterations_max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return krylov_iterations_max_;
}
std::uint64_t HealthMonitor::krylov_nonconverged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return krylov_nonconverged_;
}
double HealthMonitor::ep_last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ep_last_;
}
double HealthMonitor::ep_max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ep_max_;
}
double HealthMonitor::cov_last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cov_last_;
}
double HealthMonitor::cov_max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cov_max_;
}
std::size_t HealthMonitor::warnings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warnings_;
}

std::vector<EpProbe> HealthMonitor::ep_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ep_;
}
std::vector<CovProbe> HealthMonitor::cov_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cov_;
}
std::vector<KrylovUpdate> HealthMonitor::krylov_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return krylov_;
}
std::vector<HealthEvent> HealthMonitor::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string HealthMonitor::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  char buf[160];
  if (krylov_updates_ > 0) {
    std::snprintf(buf, sizeof(buf),
                  "krylov: %llu updates, %.1f its/update (max %d), "
                  "%llu non-converged\n",
                  static_cast<unsigned long long>(krylov_updates_),
                  static_cast<double>(krylov_iterations_total_) /
                      static_cast<double>(krylov_updates_),
                  krylov_iterations_max_,
                  static_cast<unsigned long long>(krylov_nonconverged_));
    os << buf;
  }
  if (!ep_.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "e_p: %zu probes, last %.3g, max %.3g (tolerance %.3g)\n",
                  ep_.size(), ep_last_, ep_max_, ep_tolerance_);
    os << buf;
  } else {
    os << "e_p: no probes ran (set HBD_HEALTH=<path> or enable probing)\n";
  }
  if (!cov_.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "covariance: %zu probes, last %.3g, max %.3g "
                  "(tolerance %.3g)\n",
                  cov_.size(), cov_last_, cov_max_, cov_tolerance_);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "health events: %zu warning(s)\n",
                warnings_);
  os << buf;
  return os.str();
}

void HealthMonitor::write_json(std::ostream& out,
                               const RunManifest& manifest) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(out);
  w.begin_object();
  w.key("manifest");
  manifest.write_json(w);
  w.key("ep");
  w.begin_object();
  w.field("tolerance", ep_tolerance_);
  w.field("samples_per_probe", static_cast<double>(probe_samples_));
  w.field("probe_interval_rebuilds", static_cast<double>(probe_interval_));
  w.field("last", ep_last_);
  w.field("max", ep_max_);
  w.key("series");
  w.begin_array();
  for (const EpProbe& p : ep_) {
    w.begin_object();
    w.field("step", static_cast<double>(p.step));
    w.field("ep", p.ep);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("covariance");
  w.begin_object();
  w.field("tolerance", cov_tolerance_);
  w.field("last", cov_last_);
  w.field("max", cov_max_);
  w.key("series");
  w.begin_array();
  for (const CovProbe& p : cov_) {
    w.begin_object();
    w.field("step", static_cast<double>(p.step));
    w.field("error", p.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("krylov");
  w.begin_object();
  w.field("updates", static_cast<double>(krylov_updates_));
  w.field("iterations_total",
          static_cast<double>(krylov_iterations_total_));
  w.field("iterations_max", static_cast<double>(krylov_iterations_max_));
  w.field("nonconverged", static_cast<double>(krylov_nonconverged_));
  w.key("series");
  w.begin_array();
  for (const KrylovUpdate& k : krylov_) {
    w.begin_object();
    w.field("step", static_cast<double>(k.step));
    w.field("iterations", static_cast<double>(k.iterations));
    w.field("relative_change", k.relative_change);
    w.key("converged");
    w.value(k.converged);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("events");
  w.begin_array();
  for (const HealthEvent& e : events_) {
    w.begin_object();
    w.field("severity",
            e.severity == HealthEvent::Severity::error     ? "error"
            : e.severity == HealthEvent::Severity::warning ? "warning"
                                                           : "info");
    w.field("step", static_cast<double>(e.step));
    w.field("phase", e.phase);
    w.field("message", e.message);
    w.field("value", e.value);
    w.field("threshold", e.threshold);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

bool HealthMonitor::write_json(const std::string& path,
                               const RunManifest& manifest) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out, manifest);
  return out.good();
}

void HealthMonitor::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rebuilds_seen_ = 0;
  ep_.clear();
  cov_.clear();
  krylov_.clear();
  events_.clear();
  krylov_updates_ = 0;
  krylov_iterations_total_ = 0;
  krylov_iterations_max_ = 0;
  krylov_nonconverged_ = 0;
  ep_last_ = 0.0;
  ep_max_ = 0.0;
  cov_last_ = 0.0;
  cov_max_ = 0.0;
  warnings_ = 0;
}

}  // namespace obs
}  // namespace hbd
