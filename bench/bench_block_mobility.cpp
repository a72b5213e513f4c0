// Block-mobility benchmark: single-RHS column-by-column reciprocal pipeline
// versus the batched multi-RHS pipeline, across block widths s ∈ {1,2,4,8}.
// This is the hot path of the block Krylov sampler (Algorithm 2, line 6):
// the batched path reads the interpolation weights P and the influence
// function once per block instead of once per column, and touches each mesh
// point as one contiguous 3s-vector instead of 3 scattered scalars.
//
// Emits machine-readable JSON (default BENCH_block_mobility.json, or the
// path given as argv[1]) so the perf trajectory is trackable across PRs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/aligned.hpp"
#include "common/neighbor_list.hpp"
#include "core/backend.hpp"
#include "linalg/dense_matrix.hpp"
#include "obs/json.hpp"
#include "pme/params.hpp"
#include "pme/pme_operator.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace hbd;
using namespace hbd::bench;

struct Result {
  std::size_t s;
  double t_columnwise;
  double t_batched;
};

// Column-by-column baseline: the pre-batching apply_block reciprocal loop
// (copy a column out, run the single-RHS pipeline, accumulate back).
double time_columnwise(PmeOperator& pme, const Matrix& f, Matrix& u) {
  const std::size_t rows = f.rows(), s = f.cols();
  aligned_vector<double> fc(rows), uc(rows);
  return time_median3([&] {
    for (std::size_t c = 0; c < s; ++c) {
      for (std::size_t i = 0; i < rows; ++i) fc[i] = f(i, c);
      pme.apply_recip({fc.data(), fc.size()}, {uc.data(), uc.size()});
      for (std::size_t i = 0; i < rows; ++i) u(i, c) += uc[i];
    }
  });
}

double time_batched(PmeOperator& pme, const Matrix& f, Matrix& u) {
  return time_median3([&] { pme.apply_recip_block(f, u); });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_block_mobility.json";
  print_header("Block mobility — columnwise vs batched reciprocal pipeline",
               "Alg. 2 line 6; batching amortizes P and the influence "
               "function across the block");

  // Keep n large relative to K³ so spreading/interpolation carry the weight
  // they have at production scale (paper Fig. 5: at fixed mesh the particle
  // phases rival the FFTs as n grows) — this is the regime the block Krylov
  // sampler runs in.
  const std::size_t n = full_mode() ? 20000 : 16000;
  const ParticleSystem sys = benchmark_suspension(n);
  // The splitting the pme_krylov tier runs at e_p = 1e-3.
  const PmeParams pp = choose_pme_params(sys.box, sys.radius, 1e-3);
  const auto wrapped = sys.wrapped_positions();
  publish_bench_manifest(sys, pp);
  PmeOperator pme(wrapped, sys.box, sys.radius, pp);

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif

  std::printf("n = %zu, K = %zu, p = %d, threads = %d\n\n", n, pp.mesh,
              pp.order, threads);
  std::printf("%4s | %12s %12s | %8s\n", "s", "columnwise", "batched",
              "speedup");

  std::vector<Result> results;
  for (std::size_t s : {1u, 2u, 4u, 8u}) {
    Matrix f(3 * n, s), u(3 * n, s);
    Xoshiro256 rng(2014 + s);
    fill_gaussian(rng, {f.data(), 3 * n * s});

    // Warm-up both paths (allocates the persistent batch buffers).
    pme.apply_recip_block(f, u);
    pme.clear_timers();
    const double t_col = time_columnwise(pme, f, u);
    auto phase_of = [&](const char* name) {
      return pme.timers().total(name) / 3.0;  // 3 timing repetitions
    };
    const double col_phases[5] = {phase_of("spreading"), phase_of("fft"),
                                  phase_of("influence"), phase_of("ifft"),
                                  phase_of("interpolation")};
    pme.clear_timers();
    const double t_bat = time_batched(pme, f, u);
    const double bat_phases[5] = {phase_of("spreading"), phase_of("fft"),
                                  phase_of("influence"), phase_of("ifft"),
                                  phase_of("interpolation")};
    results.push_back({s, t_col, t_bat});
    std::printf("%4zu | %12.5f %12.5f | %8.2fx\n", s, t_col, t_bat,
                t_col / t_bat);
    static const char* kPhase[5] = {"spread", "fft", "infl", "ifft",
                                    "interp"};
    for (int ph = 0; ph < 5; ++ph)
      std::printf("     |   %-9s %9.5f  vs %9.5f  (%5.2fx)\n", kPhase[ph],
                  col_phases[ph], bat_phases[ph],
                  col_phases[ph] / bat_phases[ph]);
  }

  // ---- Fidelity-tier arm: TEA vs block-Krylov Brownian sampling ----------
  // The TierPolicy's headline trade (core/backend.hpp): the Geyer–Winter
  // truncated-expansion sampler against the full-operator block Krylov
  // sampler at the BD driver's λ = 16 block width, n = 4000 (the realspace
  // bench's Krylov arm size).  Timed once per arm — the Krylov arm runs
  // minutes at this size.  tea_ep is the same probe statistic TierPolicy
  // validates online; the CI gate pins it under TEA's declared 5e-2.
  const std::size_t tn = 4000;
  const ParticleSystem tsys = benchmark_suspension(tn);
  const auto twrapped = tsys.wrapped_positions();
  const PmeParams tpp = choose_pme_params(tsys.box, tsys.radius, 1e-3);
  KrylovConfig kcfg;
  kcfg.tolerance = 1e-2;
  auto nlist = std::make_shared<NeighborList>(tsys.box, tpp.rmax, tpp.skin);
  auto krylov = make_mobility_backend(MobilityTier::pme_krylov, tn, tsys.box,
                                      tsys.radius, tpp, kcfg, nlist);
  krylov->rebuild(twrapped);
  TeaBackend tea(tn, tsys.box, tsys.radius);
  const double t_tea_setup = time_once([&] { tea.rebuild(twrapped); });

  constexpr std::size_t kLambda = 16;
  Xoshiro256 zrng(2024);
  const Matrix z = gaussian_block(zrng, 3 * tn, kLambda);
  Xoshiro256 wave = substream(2024, 1);
  const double t_krylov_sample =
      time_once([&] { (void)krylov->sample_block(z, 1.0, &wave); });
  const double t_tea_sample =
      time_once([&] { (void)tea.sample_block(z, 1.0, nullptr); });
  const double tea_ep = measure_backend_error(tea, *krylov->pme());
  std::printf("\ntier arm (n = %zu, s = %zu):\n", tn, kLambda);
  std::printf("  krylov sample %10.4f s\n  tea sample    %10.4f s "
              "(%.1fx, setup %.3f s amortized over lambda)\n"
              "  tea e_p %.3e (declared %.0e)\n",
              t_krylov_sample, t_tea_sample, t_krylov_sample / t_tea_sample,
              t_tea_setup, tea_ep, tea.declared_ep());

  obs::BenchReport report;
  report.name = "block_mobility";
  report.n = n;
  report.params = {{"mesh", static_cast<double>(pp.mesh)},
                   {"order", static_cast<double>(pp.order)},
                   {"threads", static_cast<double>(threads)}};
  for (const Result& r : results)
    report.samples.push_back({{"s", static_cast<double>(r.s)},
                              {"t_columnwise_s", r.t_columnwise},
                              {"t_batched_s", r.t_batched},
                              {"speedup", r.t_columnwise / r.t_batched}});
  report.samples.push_back({{"tier_n", static_cast<double>(tn)},
                            {"t_tea_setup_s", t_tea_setup},
                            {"t_tea_sample_s", t_tea_sample},
                            {"t_krylov_sample_s", t_krylov_sample},
                            {"tea_speedup", t_krylov_sample / t_tea_sample},
                            {"tea_ep", tea_ep}});
  if (!obs::write_json(json_path, report)) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
