// Figure 7 reproduction: conventional Ewald BD (Algorithm 1, the driver's
// dense tier) vs matrix-free BD (Algorithm 2, its default PME tier) — (a)
// memory usage and (b) execution time per step, as a function of the
// number of particles.
//
// Paper results to reproduce: dense memory grows as (3n)² and hits the
// machine limit near n = 10,000 while the matrix-free footprint stays
// linear; the matrix-free algorithm wins above ~1000 particles and reaches
// ≥35x at n = 10,000.  The dense path is measured up to the sizes this
// single-core host can assemble in reasonable time and extended by the
// flops/bandwidth model beyond (marked "model").
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/forces.hpp"
#include "core/simulation.hpp"
#include "hybrid/calibrate.hpp"

int main() {
  using namespace hbd;
  using namespace hbd::bench;
  print_header("Figure 7 — Ewald BD vs matrix-free BD (memory, time/step)",
               "paper: ≥35x speedup and ~100x less memory at n = 10,000");

  const std::size_t dense_cap = full_mode() ? 2000 : 1000;
  const std::vector<std::size_t> sizes =
      full_mode()
          ? std::vector<std::size_t>{125, 250, 500, 1000, 2000, 5000, 10000}
          : std::vector<std::size_t>{125, 250, 500, 1000, 2000};

  const HardwareParams host = calibrate_host();
  const PmePerfModel model(host);

  BdConfig cfg;
  cfg.dt = 1e-4;
  cfg.lambda_rpy = full_mode() ? 16 : 8;
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);

  std::printf("%8s | %12s %12s | %13s %13s | %8s\n", "n", "dense MB",
              "mfree MB", "dense s/step", "mfree s/step", "speedup");
  for (std::size_t n : sizes) {
    const ParticleSystem sys = benchmark_suspension(n);
    const PmeParams pp = choose_pme_params(sys.box, sys.radius, 1e-3);

    // Matrix-free: measured.
    MatrixFreeBdSimulation mf(sys, forces, cfg, pp, 1e-2);
    mf.step(cfg.lambda_rpy);  // warm-up incl. one rebuild
    const double t_mf =
        time_once([&] { mf.step(cfg.lambda_rpy); }) / cfg.lambda_rpy;
    const double mb_mf = static_cast<double>(mf.mobility_bytes()) / 1e6;

    // Dense: measured up to the cap, modeled beyond.
    double t_dense = -1.0;
    bool dense_measured = false;
    if (n <= dense_cap) {
      MatrixFreeBdSimulation dense(sys, forces, cfg, pp, 1e-2);
      dense.set_tier(MobilityTier::dense);
      dense.step(cfg.lambda_rpy);
      t_dense =
          time_once([&] { dense.step(cfg.lambda_rpy); }) / cfg.lambda_rpy;
      dense_measured = true;
    } else {
      // Model: Cholesky + matrix build amortized over λ steps, plus one
      // dense matvec per step (bandwidth-bound on (3n)² doubles).
      const double d = 3.0 * static_cast<double>(n);
      const double matvec = d * d * 8.0 / (host.stream_bw_gbs * 1e9);
      t_dense = model.t_cholesky(n) / cfg.lambda_rpy + matvec;
    }
    const double mb_dense = PmePerfModel::bytes_dense(n) / 1e6;

    std::printf("%8zu | %12.1f %12.1f | %12.4f%s %13.4f | %7.1fx\n", n,
                mb_dense, mb_mf, t_dense, dense_measured ? " " : "*",
                t_mf, t_dense / t_mf);
  }
  std::printf("(* modeled beyond the measured dense cap of n = %zu)\n",
              dense_cap);
  return 0;
}
