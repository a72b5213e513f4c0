// Ablation studies backing the paper's design choices (DESIGN.md):
//
//   1. Block Krylov vs single-vector Krylov (paper Sec. III-B benefit (a)):
//      one block subspace for λ right-hand sides needs fewer total
//      mobility applications than λ independent single-vector runs.
//   2. Krylov vs Chebyshev/Fixman (paper's cited alternative, ref. [25]):
//      Chebyshev needs spectral-bound estimation plus typically more
//      operator applications for the same accuracy.
//   3. Multi-vector BCSR SpMM vs repeated single SpMV (paper ref. [24]):
//      the matrix streams once per block instead of once per vector.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/brownian.hpp"
#include "core/chebyshev.hpp"
#include "core/krylov.hpp"
#include "linalg/blas.hpp"
#include "pme/pme_operator.hpp"
#include "pme/realspace.hpp"
#include "pme/validate.hpp"

int main() {
  using namespace hbd;
  using namespace hbd::bench;
  print_header("Ablations — block Krylov vs alternatives; SpMM vs SpMV",
               "paper Sec. III-B and ref. [24]");

  const std::size_t n = full_mode() ? 5000 : 1000;
  const std::size_t lambda = 16;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  const PmeParams pp = choose_pme_params(sys.box, sys.radius, 1e-3);
  PmeOperator pme(wrapped, sys.box, sys.radius, pp);
  const BlockApply mob = [&pme](const Matrix& x, Matrix& y) {
    pme.apply_block(x, y);
  };

  Xoshiro256 rng(777);
  const Matrix z = gaussian_block(rng, 3 * n, lambda);

  // ---- 1. Block vs single-vector Krylov ----------------------------------
  {
    KrylovConfig cfg;
    cfg.tolerance = 1e-4;
    KrylovStats stats;
    Timer t;
    const Matrix x_block = krylov_sqrt_apply(mob, z, cfg, &stats);
    const double t_block = t.seconds();
    const int block_applies = stats.iterations;  // each applies λ columns

    int single_total = 0;
    Timer t2;
    for (std::size_t c = 0; c < lambda; ++c) {
      Matrix zc(3 * n, 1);
      for (std::size_t i = 0; i < 3 * n; ++i) zc(i, 0) = z(i, c);
      KrylovStats st;
      krylov_sqrt_apply(mob, zc, cfg, &st);
      single_total += st.iterations;
    }
    const double t_single = t2.seconds();
    std::printf("\n[1] Krylov, %zu rhs, tol %.0e\n", lambda, cfg.tolerance);
    std::printf("    block  : %3d block iterations = %4d column-applies, "
                "%.2fs\n",
                block_applies, block_applies * static_cast<int>(lambda),
                t_block);
    std::printf("    single : %4d column-applies total, %.2fs\n",
                single_total, t_single);
    std::printf("    per-column iterations: block %.1f vs single %.1f\n",
                static_cast<double>(block_applies),
                static_cast<double>(single_total) / lambda);
  }

  // ---- 2. Krylov vs Chebyshev ---------------------------------------------
  {
    KrylovConfig kcfg;
    kcfg.tolerance = 1e-3;
    KrylovStats kstats;
    const Matrix xk = krylov_sqrt_apply(mob, z, kcfg, &kstats);

    const SpectralBounds bounds = estimate_spectral_bounds(mob, 3 * n, 16);
    ChebyshevConfig ccfg;
    ccfg.tolerance = 1e-3;
    ChebyshevStats cstats;
    const Matrix xc = chebyshev_sqrt_apply(mob, z, bounds, ccfg, &cstats);

    Matrix diff = xk;
    axpy(-1.0, {xc.data(), xc.rows() * xc.cols()},
         {diff.data(), diff.rows() * diff.cols()});
    const double rel = nrm2({diff.data(), diff.rows() * diff.cols()}) /
                       nrm2({xk.data(), xk.rows() * xk.cols()});
    std::printf("\n[2] M^(1/2)Z, tol 1e-3: Krylov %d block applies vs "
                "Chebyshev %d terms (+%d bound-estimation applies); "
                "methods agree to %.1e\n",
                kstats.iterations, cstats.terms, 16, rel);
    std::printf("    spectral bounds: [%.3g, %.3g], condition %.1f\n",
                bounds.min, bounds.max, bounds.max / bounds.min);
  }

  // ---- 3. SpMM vs repeated SpMV -------------------------------------------
  {
    const Bcsr3Matrix& m = pme.realspace_matrix();
    Matrix y(3 * n, lambda);
    const double t_block = time_median3([&] { m.multiply_block(z, y); });
    std::vector<double> xc(3 * n), yc(3 * n);
    const double t_single = time_median3([&] {
      for (std::size_t c = 0; c < lambda; ++c) {
        for (std::size_t i = 0; i < 3 * n; ++i) xc[i] = z(i, c);
        m.multiply(xc, yc);
      }
    });
    std::printf("\n[3] BCSR real-space operator, %zu vectors: SpMM %.4fs vs "
                "%zu SpMV %.4fs -> %.2fx\n",
                lambda, t_block, lambda, t_single, t_single / t_block);
  }

  // ---- 4. SPME vs original-PME Lagrangian interpolation --------------------
  {
    PmeParams lag = pp;
    lag.interp = InterpKind::lagrange;
    const double e_spme = measure_pme_error(wrapped, sys.box, sys.radius, pp);
    const double e_lagr = measure_pme_error(wrapped, sys.box, sys.radius, lag);
    PmeOperator pme_lag(wrapped, sys.box, sys.radius, lag);
    std::vector<double> f(3 * n, 0.0), u(3 * n, 0.0);
    Xoshiro256 rng2(9);
    fill_gaussian(rng2, f);
    const double t_spme = time_median3([&] { pme.apply_recip(f, u); });
    const double t_lagr = time_median3([&] { pme_lag.apply_recip(f, u); });
    std::printf("\n[4] SPME vs Lagrangian PME at K=%zu p=%d: e_p %.2e vs "
                "%.2e (%.0fx more accurate); recip time %.4fs vs %.4fs\n",
                pp.mesh, pp.order, e_spme, e_lagr, e_lagr / e_spme, t_spme,
                t_lagr);
  }
  return 0;
}
