// Quickstart: simulate a small Brownian suspension with hydrodynamic
// interactions using the matrix-free (PME + block Krylov) BD algorithm, and
// verify that the measured diffusion coefficient is physically sensible.
//
//   build/examples/quickstart
//
// Reduced units: particle radius a = 1, kB T = 1, single-particle mobility
// μ0 = 1, so the bare diffusion coefficient D0 = 1.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/diffusion.hpp"
#include "core/forces.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "obs/exposition.hpp"
#include "obs/telemetry.hpp"
#include "pme/params.hpp"

int main() {
  using namespace hbd;

  // 1. Create a suspension: 500 particles at 15% volume fraction.
  Xoshiro256 rng(42);
  ParticleSystem system = suspension_at_volume_fraction(500, 0.15, 1.0, rng);
  std::printf("box %.2f, volume fraction %.3f, %zu particles\n", system.box,
              system.volume_fraction(), system.size());

  // 2. Pick PME parameters for a relative mobility error of ~1e-3.
  //    HBD_WAVESPACE=1 switches to the positively-split (PSE) kernel and
  //    samples the far-field Brownian displacement directly in wave space —
  //    Lanczos then runs only on the sparse near field (docs/theory.md §11).
  //    HBD_FP32=1 switches the near-field/interpolation storage to FP32
  //    (accumulation stays FP64); HBD_FP32=0 forces FP64 even in a
  //    -DHBD_FP32_DEFAULT=ON build.  The e_p health probes gate the error.
  const char* ws = std::getenv("HBD_WAVESPACE");
  const bool wavespace = ws && ws[0] != '0';
  PmeParams pme =
      wavespace ? choose_pme_params_wavespace(system.box, system.radius, 1e-3)
                : choose_pme_params(system.box, system.radius, 1e-3);
  if (const char* fp32 = std::getenv("HBD_FP32"))
    pme.precision = fp32[0] != '0' ? Precision::fp32 : Precision::fp64;
  std::printf("PME: mesh K=%zu, spline order p=%d, rmax=%.2f, alpha=%.3f, "
              "precision=%s, kernel=%s, brownian=%s\n",
              pme.mesh, pme.order, pme.rmax, pme.xi,
              precision_name(pme.precision), ewald_kernel_name(pme.kernel),
              pme.brownian == BrownianMethod::wavespace ? "wavespace"
                                                        : "krylov");

  // 3. Steric repulsion keeps particles from overlapping.
  auto forces = std::make_shared<RepulsiveHarmonic>(system.radius);

  // 4. Configure and run the matrix-free BD simulation.
  BdConfig config;
  config.dt = 1e-4;        // time in units of a²/D0
  config.lambda_rpy = 16;  // mobility reused for 16 steps
  config.seed = 7;
  MatrixFreeBdSimulation sim(std::move(system), forces, config, pme,
                             /*krylov_tol=*/1e-2);

  // Fidelity tiers (docs/theory.md §13): HBD_TIER forces one of
  // tea | pse_wavespace | pme_krylov | dense; HBD_ERROR_BUDGET=<ep> instead
  // lets the TierPolicy route to the cheapest tier whose declared accuracy
  // fits the budget, validated online by the e_p health probes.
  if (const char* t = std::getenv("HBD_TIER"))
    sim.set_tier(parse_mobility_tier(t));
  if (const char* eb = std::getenv("HBD_ERROR_BUDGET"))
    sim.set_error_budget(std::atof(eb));
  std::printf("mobility tier: %s\n", mobility_tier_name(sim.tier()));

  // Live telemetry (docs/observability.md, layers 5–6): HBD_STREAM=<path>
  // streams one aggregated NDJSON/CSV window per HBD_STREAM_INTERVAL steps
  // while the run is in flight; HBD_EXPO_PORT=<port> serves /metrics
  // (Prometheus text), /health and /manifest on loopback so a collector can
  // scrape the stepping simulation; HBD_FLIGHT=<path> arms the crash flight
  // recorder (HBD_FLIGHT_INJECT=<step> deterministically trips it, and
  // tools/hbd_replay.py verifies the bundle replays bitwise).  The first two
  // are wired by the simulation constructor; the server lives here.
  auto expo = hbd::obs::MetricsServer::from_env();
  if (expo && expo->ok())
    std::printf("serving /metrics on 127.0.0.1:%d\n", expo->port());

  // 5. Run and measure the short-time diffusion coefficient.
  MsdRecorder msd;
  msd.record(sim.system().positions);
  const int blocks = 40;
  for (int b = 0; b < blocks; ++b) {
    sim.step(4);
    msd.record(sim.system().positions);
    if ((b + 1) % 10 == 0)
      std::printf("  t = %.4f (%zu steps), Krylov its of last update: %d\n",
                  sim.time(), sim.steps_taken(),
                  sim.last_krylov_stats().iterations);
  }
  const double d = msd.diffusion_coefficient(2, 4 * config.dt);
  // At short lag times, MSD/(6τ) measures the RPY self-mobility, which for
  // a periodic system is 1 − 2.837·a/L (Hasimoto) independent of crowding;
  // the crowding-induced slowdown develops at longer lags.
  std::printf("measured short-time D/D0 = %.3f (RPY periodic: %.3f)\n", d,
              1.0 - 2.837297 / sim.system().box);

  // 6. Telemetry (docs/observability.md): where the time went, how far the
  //    measured phase times drifted from the Eq. 10 model, and the numerical
  //    health of the run (Krylov convergence, e_p probes when enabled).
  //    Setting HBD_TRACE=<path> / HBD_METRICS=<path> additionally dumps the
  //    full Chrome trace and metrics JSON at exit; HBD_HEALTH=<path> enables
  //    online e_p probing and writes the JSON health report (manifest, e_p
  //    series, Krylov statistics) when the simulation is destroyed.
  if (obs::kEnabled) {
    RunObserver& observer = sim.observer();
    std::printf("\n-- model drift (measured vs Eq. 10) --\n%s",
                observer.drift_audit().report().c_str());
    std::printf("\n-- numerical health --\n%s",
                sim.health().summary().c_str());
    std::printf("\n-- tier --\nactive %s, %llu switches\n",
                mobility_tier_name(sim.tier()),
                static_cast<unsigned long long>(sim.tier_switches()));
    std::printf("\n-- metrics --\n%s",
                obs::Registry::global().report().c_str());
    if (const obs::StreamWriter* stream = observer.stream())
      std::printf("\n-- stream --\n%s: %llu steps pushed, %llu windows, "
                  "%llu dropped\n",
                  stream->options().path.c_str(),
                  static_cast<unsigned long long>(stream->pushed()),
                  static_cast<unsigned long long>(stream->windows_written()),
                  static_cast<unsigned long long>(stream->dropped()));
    if (const obs::FlightRecorder* flight = observer.flight())
      std::printf("\n-- flight --\n%s: %llu steps recorded (ring depth "
                  "%zu), anchor at step %llu\n",
                  flight->options().path.c_str(),
                  static_cast<unsigned long long>(flight->recorded()),
                  flight->depth(),
                  static_cast<unsigned long long>(
                      flight->last_snapshot().step));
    if (expo)
      std::printf("\n-- exposition --\n127.0.0.1:%d served %llu requests\n",
                  expo->port(),
                  static_cast<unsigned long long>(expo->requests()));
  }
  std::printf("done.\n");
  return 0;
}
