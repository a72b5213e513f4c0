// Whole-step BD benchmark: runs one workload in this process.
//
//   step_bench <workload> <seed> <seconds> <trace 0|1> <span_dir>
//
// Untraced (trace 0) the run measures the end-to-end metrics: driver
// construction + set_tier + the first step() (setup, repeated so its median
// is steady), then one step() call per BD step over whole mobility cycles.
//
// Traced (trace 1) the run measures the per-layer metrics: it steps the
// driver and, cycle by cycle in turn, a replica of the driver's call
// sequence through the public backend, neighbor-list, force and RNG
// functions with a span around each call.  It checks the replica's final
// positions bitwise against the driver's, times the PME/FFT kernels on the
// live operator, and compares the measured step with the Eq. 10 model on
// calibrate_host().  Spans are kept in memory and written to <span_dir> at
// exit.
//
// Both modes end with the accuracy check, outside the timed region.  The
// last stdout line is one JSON object {correct, attempted, failed, metrics};
// every metric carries its value, unit and sample count.
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hydrobd.hpp"

namespace {

using hbd::MobilityTier;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  MobilityTier tier;
  std::size_t n;
  std::size_t lambda;
};

// Why each workload exists, and which layers it stresses and bypasses, is
// recorded in BENCHMARK.json and perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"krylov_n500", MobilityTier::pme_krylov, 500, 16},
    {"wavespace_n4000", MobilityTier::pse_wavespace, 4000, 4},
    {"tea_n1000", MobilityTier::tea, 1000, 16},
};

constexpr double kPhi = 0.2;
constexpr double kRadius = 1.0;
constexpr double kDt = 1e-4;
constexpr double kEpTarget = 1e-3;
// Setup is a few seconds of one-off work (plans, influence table, first
// rebuild and Brownian block); its median over three constructions is far
// steadier than one sample.
constexpr int kSetupRepeats = 3;
// Timed repetitions of each kernel in the PME/FFT decomposition.
constexpr int kKernelRepeats = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      correct = false;
      value = -1.0;
    }
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }

  void print() const {
    hbd::obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("correct");
    w.value(correct);
    w.field("attempted", static_cast<double>(attempted));
    w.field("failed", static_cast<double>(failed));
    w.key("metrics");
    w.begin_object();
    for (const Metric& m : metrics) {
      w.key(m.name);
      w.begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.field("samples", static_cast<double>(m.samples));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::cout << std::endl;
  }
};

/// The generated inputs of one workload: everything derives from the seed.
struct Inputs {
  const Workload* w;
  std::uint64_t seed;
  hbd::ParticleSystem system;
  hbd::PmeParams params;  // the driver's constructor params
  hbd::BdConfig config;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  hbd::Xoshiro256 rng(seed);
  Inputs in{&w, seed,
            hbd::suspension_at_volume_fraction(w.n, kPhi, kRadius, rng), {},
            {}};
  // TEA has no mesh: its driver is constructed on the pme_krylov parameters
  // (whose rmax and skin size the neighbor list of the steric forces) and
  // set_tier swaps the backend before the first step.
  const MobilityTier native =
      w.tier == MobilityTier::tea ? MobilityTier::pme_krylov : w.tier;
  in.params =
      hbd::pme_params_for_tier(native, in.system.box, kRadius, kEpTarget);
  in.config.dt = kDt;
  in.config.lambda_rpy = w.lambda;
  in.config.seed = seed;
  return in;
}

std::unique_ptr<hbd::MatrixFreeBdSimulation> make_driver(const Inputs& in) {
  auto sim = std::make_unique<hbd::MatrixFreeBdSimulation>(
      in.system, std::make_shared<hbd::RepulsiveHarmonic>(kRadius), in.config,
      in.params);
  sim->set_tier(in.w->tier);
  return sim;
}

bool positions_finite(const hbd::ParticleSystem& s) {
  for (const hbd::Vec3& p : s.positions)
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z))
      return false;
  return true;
}

/// One step() call, timed alone.  A throw or a non-finite position after
/// the step counts the step as failed; the finiteness scan is not timed.
bool timed_step(hbd::MatrixFreeBdSimulation& sim, Report& rep,
                double* wall) {
  ++rep.attempted;
  const auto t0 = Clock::now();
  try {
    sim.step();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step %zu threw: %s\n", sim.steps_taken(), e.what());
    ++rep.failed;
    return false;
  }
  *wall = seconds_since(t0);
  if (!positions_finite(sim.system())) {
    std::fprintf(stderr, "step %zu left a non-finite position\n",
                 sim.steps_taken());
    ++rep.failed;
    return false;
  }
  return true;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

struct Accuracy {
  double measured;
  double declared;
};

/// The accuracy check on the run's final positions: builds the tier's
/// backend there and measures its e_p against a PmeOperator on
/// reference_pme_params.  A miss of the declared e_p counts every step of
/// the run as failed: each one moved the particles with a mobility outside
/// the tier's declared accuracy.
Accuracy check_accuracy(const Inputs& in,
                        const hbd::ParticleSystem& final_state, Report& rep) {
  const std::vector<hbd::Vec3> wrapped = final_state.wrapped_positions();
  const double box = in.system.box;
  std::shared_ptr<hbd::NeighborList> nlist;
  if (in.w->tier != MobilityTier::tea)
    nlist = std::make_shared<hbd::NeighborList>(box, in.params.rmax,
                                                in.params.skin);
  auto backend = hbd::make_mobility_backend(in.w->tier, in.w->n, box, kRadius,
                                            in.params, hbd::KrylovConfig{},
                                            nlist);
  backend->rebuild(wrapped);
  hbd::PmeOperator ref(wrapped, box, kRadius,
                       hbd::reference_pme_params(box, kRadius));
  const Accuracy acc{
      hbd::measure_backend_error(*backend, ref, /*samples=*/4, in.seed),
      backend->declared_ep()};
  const bool ok = std::isfinite(acc.measured) && acc.measured <= acc.declared;
  std::printf("accuracy %s: e_p measured %.3e, declared %.3e: %s\n",
              mobility_tier_name(in.w->tier), acc.measured, acc.declared,
              ok ? "ok" : "FAILED");
  if (!std::isfinite(acc.measured)) rep.correct = false;
  if (!ok) rep.failed = rep.attempted;
  return acc;
}

// ---- Untraced run: the end-to-end metrics ----------------------------------

void run_timed(const Inputs& in, double seconds, Report& rep) {
  const std::size_t lambda = in.w->lambda;
  std::unique_ptr<hbd::MatrixFreeBdSimulation> sim;
  std::vector<double> setup;
  bool ok = true;
  for (int r = 0; r < kSetupRepeats && ok; ++r) {
    sim.reset();  // the previous driver's teardown is not timed
    const auto t0 = Clock::now();
    sim = make_driver(in);
    const double construct = seconds_since(t0);
    double first = 0.0;
    ok = timed_step(*sim, rep, &first);
    setup.push_back(construct + first);
  }
  // The rest of the first mobility cycle is warm-up.
  double wall = 0.0;
  for (std::size_t s = 1; s < lambda && ok; ++s)
    ok = timed_step(*sim, rep, &wall);

  std::vector<double> rebuild_steps, other_steps, cycles;
  double rss = 0.0;
  while (ok && (cycles.size() < 2 ||
                sum(cycles) * (1.0 + 1.0 / static_cast<double>(
                                               cycles.size())) <= seconds)) {
    double cycle = 0.0;
    for (std::size_t s = 0; s < lambda && ok; ++s) {
      ok = timed_step(*sim, rep, &wall);
      if (!ok) break;
      cycle += wall;
      (s == 0 ? rebuild_steps : other_steps).push_back(wall);
    }
    if (ok) cycles.push_back(cycle);
    // Peak memory after a fixed amount of work: the setups, the warm-up
    // cycle and two timed cycles, so two steady-state rebuilds.  Storage
    // that grows later does so after a number of steps that depends on the
    // host's speed, which would turn the figure into noise.
    if (cycles.size() == 2) rss = peak_rss_mib();
  }
  if (!ok) {
    rep.correct = false;
    return;
  }
  std::printf("cycle walls (s):");
  for (double c : cycles) std::printf(" %.4f", c);
  std::printf("\nsetup walls (s):");
  for (double s : setup) std::printf(" %.4f", s);
  std::printf("\n");
  const double steps = static_cast<double>(cycles.size() * lambda);
  rep.add("steps_per_s", steps / sum(cycles), "1/s", cycles.size());
  rep.add("rebuild_step_s_p50", median(rebuild_steps), "s",
          rebuild_steps.size());
  rep.add("step_s_p50", median(other_steps), "s", other_steps.size());
  rep.add("setup_s", median(setup), "s", setup.size());
  rep.add("peak_rss_mib", rss, "MiB", 1);
  check_accuracy(in, sim->system(), rep);
}

// ---- Traced run: the per-layer ledger ---------------------------------------

/// In-memory span recorder: name, start, end, parent and the mobility cycle
/// the span belongs to (the identifier shared by one cycle's spans).
class Ledger {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int cycle;
  };

  class Scope {
   public:
    Scope(Ledger& ledger, const char* name)
        : ledger_(ledger), id_(ledger.open(name)) {}
    ~Scope() { ledger_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    int id_;
  };

  explicit Ledger(std::size_t capacity) { spans_.reserve(capacity); }

  void set_cycle(int cycle) { cycle_ = cycle; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name` in cycles >= `from_cycle`.
  std::vector<double> durations(std::string_view name, int from_cycle) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.cycle >= from_cycle && name == s.name)
        out.push_back(s.end - s.start);
    return out;
  }

  /// Summed duration of the direct children of span `id`.
  double children(int id) const {
    double t = 0.0;
    for (const Span& s : spans_)
      if (s.parent == id) t += s.end - s.start;
    return t;
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    hbd::obs::JsonWriter w(out);
    w.begin_object();
    w.key("spans");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", s.name);
      w.field("start", s.start);
      w.field("end", s.end);
      w.field("parent", s.parent);
      w.field("cycle", s.cycle);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
    return out.good();
  }

 private:
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, current_, cycle_});
    current_ = id;
    return id;
  }
  void close(int id) {
    spans_[id].end = now();
    current_ = spans_[id].parent;
  }
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  int cycle_ = -1;
};

/// Replays MatrixFreeBdSimulation's call sequence with a span around each
/// call, one mobility cycle per run_cycle(): rebuild() (wrapped positions,
/// backend rebuild, trajectory-stream Gaussian block, sample_block on the
/// wave substream), then λ times propagate() (wrap, neighbor update, forces,
/// one mobility apply, integrate).
class Replica {
 public:
  Replica(const Inputs& in, Ledger& ledger)
      : in_(in),
        ledger_(ledger),
        system_(in.system),
        forces_(std::make_shared<hbd::RepulsiveHarmonic>(kRadius)),
        nlist_(std::make_shared<hbd::NeighborList>(
            in.system.box, in.params.rmax, in.params.skin)),
        rng_(in.config.seed),
        wave_rng_(hbd::substream(
            in.config.seed, hbd::MatrixFreeBdSimulation::kWavespaceStream)) {
    hbd::KrylovConfig krylov;
    krylov.tolerance = 1e-2;  // MatrixFreeBdSimulation's default krylov_tol
    // Like set_tier(tea), the meshless backend gets no neighbor list; the
    // list still serves the steric forces.
    backend_ = hbd::make_mobility_backend(
        in.w->tier, in.w->n, in.system.box, kRadius, in.params, krylov,
        in.w->tier == MobilityTier::tea ? nullptr : nlist_);
  }

  /// Runs mobility cycle `c`; returns the id of its "cycle" span.
  int run_cycle(int c) {
    const std::size_t n = in_.w->n, lambda = in_.w->lambda;
    const double box = in_.system.box;
    const double two_kbt_dt =
        2.0 * in_.config.kbt * in_.config.mu0 * in_.config.dt;
    const double h = in_.config.mu0 * in_.config.dt;
    ledger_.set_cycle(c);
    const int id = static_cast<int>(ledger_.spans().size());
    const std::uint64_t builds0 = nlist_->build_count();
    Ledger::Scope cycle(ledger_, "cycle");
    {
      Ledger::Scope s(ledger_, "wrap");
      system_.wrapped_positions(wrapped_);
    }
    {
      Ledger::Scope s(ledger_, "backend.rebuild");
      backend_->rebuild(wrapped_);
    }
    hbd::Matrix z;
    {
      Ledger::Scope s(ledger_, "rng.gaussian");
      z = hbd::gaussian_block(rng_, 3 * n, lambda);
    }
    const hbd::PmeOperator* op = backend_->pme();
    const std::uint64_t cols0 = op ? op->apply_counts().block_columns : 0;
    {
      Ledger::Scope s(ledger_, "backend.sample");
      disp_ = backend_->sample_block(z, two_kbt_dt, &wave_rng_);
    }
    const hbd::KrylovStats& st = backend_->last_stats();
    krylov_iterations.push_back(st.iterations);
    block_columns.push_back(static_cast<double>(
        op ? op->apply_counts().block_columns - cols0 : 0));
    converged += st.converged ? 1 : 0;

    for (std::size_t col = 0; col < lambda; ++col) {
      {
        Ledger::Scope s(ledger_, "wrap");
        system_.wrapped_positions(wrapped_);
        f_.assign(3 * n, 0.0);
        u_.assign(3 * n, 0.0);
      }
      {
        Ledger::Scope s(ledger_, "neighbor.update");
        nlist_->update(wrapped_);
      }
      {
        Ledger::Scope s(ledger_, "forces");
        forces_->add_forces(wrapped_, box, f_, nlist_.get());
      }
      {
        Ledger::Scope s(ledger_, "backend.apply");
        backend_->apply(f_, u_);
      }
      Ledger::Scope s(ledger_, "integrate");
      hbd::ParticleSystem& sys = system_;
      const hbd::Matrix& d = disp_;
      const std::vector<double>& u = u_;
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < n; ++i) {
        sys.positions[i].x += h * u[3 * i] + d(3 * i, col);
        sys.positions[i].y += h * u[3 * i + 1] + d(3 * i + 1, col);
        sys.positions[i].z += h * u[3 * i + 2] + d(3 * i + 2, col);
      }
    }
    neighbor_builds.push_back(
        static_cast<double>(nlist_->build_count() - builds0));
    return id;
  }

  const hbd::ParticleSystem& system() const { return system_; }
  hbd::MobilityBackend& backend() { return *backend_; }
  const hbd::NeighborList& neighbors() const { return *nlist_; }

  // Per-cycle observations.
  std::vector<double> krylov_iterations;
  std::vector<double> block_columns;
  std::vector<double> neighbor_builds;
  std::size_t converged = 0;

 private:
  const Inputs& in_;
  Ledger& ledger_;
  hbd::ParticleSystem system_;
  std::shared_ptr<const hbd::ForceField> forces_;
  std::shared_ptr<hbd::NeighborList> nlist_;
  std::unique_ptr<hbd::MobilityBackend> backend_;
  hbd::Xoshiro256 rng_;
  hbd::Xoshiro256 wave_rng_;
  std::vector<hbd::Vec3> wrapped_;
  std::vector<double> f_, u_;
  hbd::Matrix disp_;
};

/// Median seconds of `reps` calls of `fn`.
template <class Fn>
double time_median(Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < kKernelRepeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Times apply_recip_block at block width λ against its parts, the
/// real-space block, the single-vector apply, and the single forward FFT
/// (at the workload's thread count and at one thread).  The FFT plan and
/// influence table are built from the operator's parameters, as the
/// operator builds its own.
void time_kernels(hbd::PmeOperator& op, const Inputs& in, Report& rep) {
  const std::size_t n = in.w->n, s = in.w->lambda;
  const hbd::PmeParams& p = op.params();
  const std::size_t k = p.mesh;
  hbd::Fft3d fft(k, k, k);
  const hbd::InfluenceFunction influence(
      k, in.system.box, kRadius, p.xi, p.order,
      p.interp == hbd::InterpKind::bspline, p.kernel);
  hbd::Xoshiro256 rng = hbd::substream(in.seed, 2);
  const hbd::Matrix f = hbd::gaussian_block(rng, 3 * n, s);
  hbd::Matrix u(3 * n, s);
  hbd::aligned_vector<double> mesh(k * k * k * 3 * s);
  hbd::aligned_vector<hbd::Complex> spec(fft.complex_size() * 3 * s);
  const hbd::InterpMatrix& interp = op.interp_matrix();

  // The five parts of apply_recip_block, run in pipeline order so each
  // sees its predecessor's output; the first pass is warm-up.
  const std::function<void()> parts[] = {
      [&] { interp.spread_block(f, mesh.data()); },
      [&] { fft.forward_batch(mesh.data(), spec.data(), 3 * s); },
      [&] { influence.apply_batch(spec.data(), s); },
      [&] { fft.inverse_batch(spec.data(), mesh.data(), 3 * s); },
      [&] { interp.interpolate_block(mesh.data(), u, false); },
  };
  std::vector<double> part_t[5];
  for (int r = -1; r < kKernelRepeats; ++r)
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      parts[i]();
      if (r >= 0) part_t[i].push_back(seconds_since(t0));
    }
  const double t_spread = median(part_t[0]), t_forward = median(part_t[1]),
               t_infl = median(part_t[2]), t_inverse = median(part_t[3]),
               t_interp = median(part_t[4]);
  const double recip = time_median([&] { op.apply_recip_block(f, u); });
  const double real = time_median([&] { op.apply_real_block(f, u); });
  std::vector<double> f1(f.data(), f.data() + 3 * n), u1(3 * n);
  const double single = time_median([&] { op.apply(f1, u1); });

  hbd::aligned_vector<double> grid(k * k * k);
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = mesh[i];
  hbd::aligned_vector<hbd::Complex> grid_spec(fft.complex_size());
  auto fwd1 = [&] { fft.forward(grid.data(), grid_spec.data()); };
  fwd1();
  const double t_fwd = time_median(fwd1);
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  fwd1();
  const double t_fwd_1t = time_median(fwd1);
  omp_set_num_threads(threads);

  const double points = static_cast<double>(k * k * k);
  rep.add("pme.recip_block_s", recip, "s", kKernelRepeats);
  rep.add("pme.recip_overhead_frac",
          1.0 - (t_spread + t_forward + t_infl + t_inverse + t_interp) / recip,
          "ratio", kKernelRepeats);
  rep.add("pme.real_block_s", real, "s", kKernelRepeats);
  rep.add("pme.spread_s", t_spread, "s", kKernelRepeats);
  rep.add("pme.influence_s", t_infl, "s", kKernelRepeats);
  rep.add("pme.interp_s", t_interp, "s", kKernelRepeats);
  rep.add("pme.apply_s", single, "s", kKernelRepeats);
  rep.add("fft.forward_batch_s", t_forward, "s", kKernelRepeats);
  rep.add("fft.inverse_batch_s", t_inverse, "s", kKernelRepeats);
  rep.add("fft.forward_s", t_fwd, "s", kKernelRepeats);
  rep.add("fft.mpts_per_s", points / t_fwd / 1e6, "Mpts/s", kKernelRepeats);
  rep.add("fft.mpts_per_s_1t", points / t_fwd_1t / 1e6, "Mpts/s",
          kKernelRepeats);
  std::printf("kernels: K=%zu, block width %zu, %d threads (1-thread FFT "
              "baseline measured too)\n",
              k, s, threads);
}

/// Modeled per-step seconds of the workload's tier (Eq. 10 on this host).
double model_step(const Inputs& in, const Replica& r) {
  const hbd::Device host{
      hbd::PmePerfModel(hbd::calibrate_host(),
                        static_cast<double>(hbd::value_bytes(
                            in.params.precision))),
      /*is_host=*/true};
  const std::size_t n = in.w->n, lambda = in.w->lambda;
  if (in.w->tier == MobilityTier::tea)
    return hbd::model_tea_step(host, n, lambda);
  const int iters =
      std::max(static_cast<int>(median(r.krylov_iterations)), 1);
  const bool wavespace = in.w->tier == MobilityTier::pse_wavespace;
  return hbd::model_bd_step(
             host, {}, n, in.system.box, in.params.order, kEpTarget, lambda,
             iters, hbd::effective_rebuild_interval(r.neighbors()),
             in.params.storage == hbd::NearFieldStorage::symmetric,
             hbd::effective_rebuild_fraction(r.neighbors()), wavespace,
             wavespace ? iters : 0)
      .cpu_only;
}

/// Values of `v` from index 1 on: the cycles after the first, which
/// carries the one-off construction.
std::vector<double> after_first(const std::vector<double>& v) {
  return {v.begin() + 1, v.end()};
}

void run_traced(const Inputs& in, double seconds, Report& rep,
                const std::string& span_path) {
  const std::size_t lambda = in.w->lambda;
  auto sim = make_driver(in);
  Ledger ledger(1 << 14);
  Replica replica(in, ledger);
  // Driver and replica cycles alternate, so drift in the host's speed
  // reaches both sides of the overhead comparison alike.
  std::vector<double> driver_cycles, replica_cycles, unattributed, overhead;
  bool ok = true;
  while (ok && (driver_cycles.size() < 3 ||
                (sum(driver_cycles) + sum(replica_cycles)) *
                        (1.0 + 1.0 / static_cast<double>(
                                         driver_cycles.size())) <=
                    seconds)) {
    double cycle = 0.0, wall = 0.0;
    for (std::size_t s = 0; s < lambda && ok; ++s) {
      ok = timed_step(*sim, rep, &wall);
      cycle += wall;
    }
    if (!ok) break;
    const int id = replica.run_cycle(static_cast<int>(driver_cycles.size()));
    const Ledger::Span& span = ledger.spans()[id];
    const double replica_cycle = span.end - span.start;
    driver_cycles.push_back(cycle);
    replica_cycles.push_back(replica_cycle);
    unattributed.push_back(replica_cycle - ledger.children(id));
    overhead.push_back((cycle - replica_cycle) / cycle);
  }
  if (!ok) {
    rep.correct = false;
    return;
  }
  const std::size_t cycles = driver_cycles.size(), later = cycles - 1;

  const hbd::Vec3* dp = sim->system().positions.data();
  const hbd::Vec3* rp = replica.system().positions.data();
  const bool bitwise =
      std::memcmp(&rp->x, &dp->x, 3 * in.w->n * sizeof(double)) == 0;
  std::printf("replica: %zu cycles, final positions %s the driver's\n",
              cycles, bitwise ? "bitwise equal to" : "DIFFER from");
  if (!bitwise) rep.correct = false;
  sim.reset();

  const double replica_wall = sum(after_first(replica_cycles));
  std::printf("ledger shares of the replica cycle:");
  for (const char* span : {"backend.rebuild", "rng.gaussian", "backend.sample",
                           "wrap", "neighbor.update", "forces",
                           "backend.apply", "integrate"})
    std::printf(" %s %.1f%%", span,
                100.0 * sum(ledger.durations(span, 1)) / replica_wall);
  std::printf("\n");
  auto layer = [&](const char* span, const char* metric) {
    const std::vector<double> d = ledger.durations(span, 1);
    rep.add(metric, median(d), "s", d.size());
  };
  layer("backend.rebuild", "backend.rebuild_s");
  layer("backend.sample", "backend.sample_s");
  layer("backend.apply", "backend.apply_s");
  rep.add("backend.bytes", static_cast<double>(replica.backend().bytes()),
          "bytes", 1);
  rep.add("krylov.iterations", median(after_first(replica.krylov_iterations)),
          "count", later);
  rep.add("krylov.block_columns", median(after_first(replica.block_columns)),
          "count", later);
  rep.add("krylov.converged_frac",
          static_cast<double>(replica.converged) /
              static_cast<double>(cycles),
          "ratio", cycles);
  layer("neighbor.update", "neighbor.update_s");
  rep.add("neighbor.rebuilds",
          sum(after_first(replica.neighbor_builds)) /
              static_cast<double>(later),
          "count/cycle", later);
  layer("forces", "forces.s");
  layer("rng.gaussian", "rng.gaussian_s");
  layer("integrate", "integrate.s");
  rep.add("ledger.unattributed_frac",
          sum(after_first(unattributed)) / replica_wall, "ratio", later);
  rep.add("driver.overhead_frac", median(after_first(overhead)), "ratio",
          later);
  const double measured_step =
      median(after_first(driver_cycles)) / static_cast<double>(lambda);
  rep.add("model.step_ratio", measured_step / model_step(in, replica),
          "ratio", later);

  hbd::PmeOperator* live = replica.backend().pme();
  std::unique_ptr<hbd::PmeOperator> meshless;
  if (!live) {
    // TEA has no mesh.  Its FFT layer is timed on the operator the
    // pme_krylov tier would build here, so an FFT change shows in the layer
    // metrics while TEA's end-to-end metrics stay put.
    meshless = std::make_unique<hbd::PmeOperator>(
        replica.system().wrapped_positions(), in.system.box, kRadius,
        in.params);
    live = meshless.get();
  }
  time_kernels(*live, in, rep);

  if (!ledger.write_json(span_path))
    std::fprintf(stderr, "could not write %s\n", span_path.c_str());
  const Accuracy acc = check_accuracy(in, replica.system(), rep);
  rep.add("backend.ep", acc.measured, "ratio", 4);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr,
                 "usage: %s <workload> <seed> <seconds> <trace 0|1> "
                 "<span_dir>\n",
                 argv[0]);
    return 2;
  }
  const std::string_view name = argv[1];
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (name == cand.name) w = &cand;
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", argv[1]);
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const double seconds = std::strtod(argv[3], nullptr);
  const bool trace = std::string_view(argv[4]) == "1";

  const Inputs in = make_inputs(*w, seed);
  std::printf("workload %s: tier %s, n=%zu, lambda=%zu, box=%.4f, K=%zu, "
              "seed=%llu, %d threads\n",
              w->name, mobility_tier_name(w->tier), w->n, w->lambda,
              in.system.box, in.params.mesh,
              static_cast<unsigned long long>(seed), omp_get_max_threads());
  Report rep;
  try {
    if (trace)
      run_traced(in, seconds, rep,
                 std::string(argv[5]) + "/" + w->name + "_seed" + argv[2] +
                     ".spans.json");
    else
      run_timed(in, seconds, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  rep.print();
  return 0;
}
