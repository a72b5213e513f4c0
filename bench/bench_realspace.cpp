// Real-space near-field assembly benchmark: seed-style from-scratch build
// (std::function cell-list sweep + vector<vector> staging + from_blocks)
// versus the persistent pipeline's full rebuild and its steady-state
// in-place value refresh (stable BCSR pattern, allocation-free).
//
// The refresh arm jitters positions within skin/4 between repetitions, so
// the skin-padded Verlet list revalidates in O(n) and never re-enumerates —
// the steady state of a BD run between list rebuilds.
//
// Emits machine-readable JSON (default BENCH_realspace.json, or the path
// given as argv[1]) so the perf trajectory is trackable across PRs.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cell_list.hpp"
#include "common/neighbor_list.hpp"
#include "common/precision.hpp"
#include "core/brownian.hpp"
#include "core/krylov.hpp"
#include "ewald/beenakker.hpp"
#include "linalg/blas.hpp"
#include "linalg/dense_matrix.hpp"
#include "obs/json.hpp"
#include "pme/pme_operator.hpp"
#include "pme/realspace.hpp"
#include "sparse/bcsr3.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace hbd;
using namespace hbd::bench;

/// The pre-persistent assembly, verbatim: per-call CellList, std::function
/// pair dispatch, vector<vector> staging, from_blocks copy.
Bcsr3Matrix seed_build(std::span<const Vec3> pos, double box, double radius,
                       double xi, double rmax) {
  const std::size_t n = pos.size();
  std::vector<std::vector<std::uint32_t>> cols(n);
  std::vector<std::vector<std::array<double, 9>>> blocks(n);

  const double self = beenakker_self(radius, xi);
  for (std::size_t i = 0; i < n; ++i) {
    cols[i].push_back(static_cast<std::uint32_t>(i));
    blocks[i].push_back({self, 0.0, 0.0, 0.0, self, 0.0, 0.0, 0.0, self});
  }

  const CellList cl(pos, box, rmax);
  const std::function<void(std::size_t, std::size_t, const Vec3&, double)>
      fn = [&](std::size_t i, std::size_t j, const Vec3& rij, double r2) {
        const double r = std::sqrt(r2);
        PairCoeffs c = beenakker_real(r, radius, xi);
        if (r < 2.0 * radius) {
          const PairCoeffs corr = rpy_overlap_correction(r, radius);
          c.f += corr.f;
          c.g += corr.g;
        }
        std::array<double, 9> b;
        pair_tensor(rij, c, b);
        cols[i].push_back(static_cast<std::uint32_t>(j));
        blocks[i].push_back(b);
      };
  cl.for_each_neighbor_of_all(fn);
  return Bcsr3Matrix::from_blocks(n, cols, blocks);
}

struct Result {
  std::size_t n;
  double t_seed;
  double t_rebuild;
  double t_refresh;
  // Half-stored vs full kernels (8 applies per timed repetition).
  double t_spmv_full;
  double t_spmv_sym;
  double t_spmm_full;
  double t_spmm_sym;
  double traffic_reduction;  // modeled SpMV bytes, full / symmetric
  // FP32-store (FP64-accumulate) symmetric kernels vs the FP64 baseline.
  double t_spmv_sym32;
  double t_spmm_sym32;
  double fp32_traffic_reduction;  // modeled SpMV bytes, fp64 sym / fp32 sym
  double fp32_ep;                 // measured storage-rounding relative error
  // Cell-granular partial rebuild vs from-scratch list rebuild.
  double t_list_full;
  double t_list_partial;
  // Wave-space (PSE split) vs full block-Krylov Brownian sampling, λ=16.
  double t_wave_sample;
  double t_krylov_sample;
  int nearfield_lanczos_iters;
  int krylov_full_iters;
  double covariance_probe_error;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_realspace.json";
  print_header(
      "Real-space assembly — seed build vs persistent rebuild vs refresh",
      "Sec. IV-C near field; refresh amortizes pattern + list across steps");

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  const double skin = 0.5;
  std::printf("skin = %.2f, threads = %d\n\n", skin, threads);
  std::printf("%7s | %10s %10s %10s | %9s %9s\n", "n", "seed", "rebuild",
              "refresh", "re/seed", "ref/seed");

  std::vector<Result> results;
  for (const std::size_t n : {4000u, 16000u}) {
    const ParticleSystem sys = benchmark_suspension(n);
    auto pos = sys.wrapped_positions();
    const double rmax = std::min(5.0, 0.499 * sys.box);
    const double xi = std::sqrt(std::log(1e4)) / rmax;

    const double t_seed = time_median3(
        [&] { seed_build(pos, sys.box, sys.radius, xi, rmax); });
    const double t_rebuild = time_median3(
        [&] { build_realspace_operator(pos, sys.box, sys.radius, xi, rmax); });

    RealspaceOperator op(sys.box, sys.radius, xi, rmax, skin);
    op.refresh(pos);  // warm-up: pattern + list built once
    Xoshiro256 rng(99);
    const double t_refresh = time_median3([&] {
      for (Vec3& p : pos)
        for (int c = 0; c < 3; ++c)
          p[c] += 0.25 * skin / 3.0 * (2.0 * rng.next_double() - 1.0);
      op.refresh(pos);
    });
    // Steady state: the jitter stayed within skin/2, so no rebuild happened.
    if (op.neighbors().build_count() != 1) {
      std::fprintf(stderr, "refresh arm rebuilt the list — not steady state\n");
      return 1;
    }

    // ---- Half-stored vs full SpMV / SpMM -----------------------------------
    RealspaceOperator sym_op(sys.box, sys.radius, xi, rmax, skin,
                             NearFieldStorage::symmetric);
    sym_op.refresh(pos);
    Xoshiro256 vrng(7);
    std::vector<double> f(3 * n), u(3 * n);
    fill_gaussian(vrng, f);
    constexpr int kReps = 8;
    const double t_spmv_full = time_min([&] {
      for (int r = 0; r < kReps; ++r) op.apply(f, u);
    });
    const double t_spmv_sym = time_min([&] {
      for (int r = 0; r < kReps; ++r) sym_op.apply(f, u);
    });
    constexpr std::size_t kWidth = 8;
    Matrix fb(3 * n, kWidth), ub(3 * n, kWidth);
    for (std::size_t k = 0; k < fb.rows() * fb.cols(); ++k)
      fb.data()[k] = 2.0 * vrng.next_double() - 1.0;
    const double t_spmm_full =
        time_min([&] { op.apply_block(fb, ub); });
    const double t_spmm_sym =
        time_min([&] { sym_op.apply_block(fb, ub); });
    // Modeled single-vector traffic from the actual stored structures
    // (76 B/block; the symmetric kernel reads the output back for the
    // transpose scatter).
    const double traffic_full =
        static_cast<double>(op.stored_nnz_blocks()) * 76.0 + 48.0 * 3 * n;
    const double traffic_sym =
        static_cast<double>(sym_op.stored_nnz_blocks()) * 76.0 + 72.0 * 3 * n;
    const double traffic_reduction = traffic_full / traffic_sym;

    // ---- FP32 storage, FP64 accumulation -----------------------------------
    RealspaceOperator sym32_op(sys.box, sys.radius, xi, rmax, skin,
                               NearFieldStorage::symmetric, Precision::fp32);
    sym32_op.refresh(pos);
    const double t_spmv_sym32 = time_min([&] {
      for (int r = 0; r < kReps; ++r) sym32_op.apply(f, u);
    });
    const double t_spmm_sym32 =
        time_min([&] { sym32_op.apply_block(fb, ub); });
    const double traffic_sym32 =
        static_cast<double>(sym32_op.stored_nnz_blocks()) * 40.0 +
        72.0 * 3 * n;
    const double fp32_traffic_reduction = traffic_sym / traffic_sym32;
    // Measured rounding error of the fp32 store against the fp64 kernel.
    std::vector<double> u64(3 * n), u32(3 * n);
    sym_op.apply(f, u64);
    sym32_op.apply(f, u32);
    std::vector<double> du(3 * n);
    for (std::size_t k = 0; k < 3 * n; ++k) du[k] = u32[k] - u64[k];
    const double fp32_ep = nrm2(du) / nrm2(u64);

    // ---- Partial vs full list rebuild --------------------------------------
    // A thin slab settles past the drift threshold each repetition
    // (sedimentation-like): the partial list re-enumerates only the violated
    // cells, the reference list starts from scratch.
    NeighborList list_full(sys.box, rmax, skin);
    NeighborList list_part(sys.box, rmax, skin);
    list_part.set_partial_rebuilds(true);
    list_full.update(pos);
    list_part.update(pos);
    std::vector<std::size_t> movers;
    for (std::size_t i = 0; i < n; ++i)
      if (pos[i].z > 0.30 * sys.box && pos[i].z < 0.36 * sys.box)
        movers.push_back(i);
    double sign = 1.0;
    const double t_list_full = time_median3([&] {
      for (std::size_t i : movers) pos[i].z += sign * 0.6 * skin;
      sign = -sign;
      list_full.update(pos);
    });
    const double t_list_partial = time_median3([&] {
      for (std::size_t i : movers) pos[i].z += sign * 0.6 * skin;
      sign = -sign;
      list_part.update(pos);
    });
    if (list_part.partial_build_count() == 0) {
      std::fprintf(stderr, "partial arm never rebuilt partially\n");
      return 1;
    }

    // ---- Wave-space vs full-Krylov Brownian sampling -----------------------
    // Both arms at the wavespace chooser's parameters (PSE kernel,
    // e_p target 5e-3, the paper's tolerance) so the comparison is at
    // matched accuracy; λ = 16 columns per mobility update as in the BD
    // driver.  Timed once — each arm is seconds-to-minutes at these sizes.
    const PmeParams wp =
        choose_pme_params_wavespace(sys.box, sys.radius, 5e-3);
    publish_bench_manifest(sys, wp);  // last n wins, matching report.n
    PmeOperator pme(pos, sys.box, sys.radius, wp);
    KrylovConfig kcfg;
    kcfg.tolerance = 1e-2;
    constexpr std::size_t kLambda = 16;
    Xoshiro256 zrng(2024);
    const Matrix z = gaussian_block(zrng, 3 * n, kLambda);

    Xoshiro256 wave = substream(2024, 1);
    KrylovStats nf_stats, full_stats;
    const double t_wave = time_once([&] {
      (void)sample_wavespace_block(pme, z, 1.0, kcfg, wave, &nf_stats);
    });
    const int nf_iters = nf_stats.iterations;

    const double t_krylov = time_once([&] {
      (void)krylov_sqrt_apply(
          [&pme](const Matrix& x, Matrix& y) { pme.apply_block(x, y); }, z,
          kcfg, &full_stats);
    });
    const int full_iters = full_stats.iterations;

    // Covariance probe of the wave-space sampler (128 samples → the
    // estimator's own relative std is ~12%; the gate bound is generous).
    const double cov_err = measure_sample_covariance_error(
        pme, kcfg, BrownianMethod::wavespace, /*blocks=*/16, /*width=*/8,
        /*seed=*/2024);

    results.push_back({n, t_seed, t_rebuild, t_refresh, t_spmv_full,
                       t_spmv_sym, t_spmm_full, t_spmm_sym, traffic_reduction,
                       t_spmv_sym32, t_spmm_sym32, fp32_traffic_reduction,
                       fp32_ep, t_list_full, t_list_partial, t_wave, t_krylov,
                       nf_iters, full_iters, cov_err});
    std::printf("%7zu | %10.5f %10.5f %10.5f | %8.2fx %8.2fx\n", n, t_seed,
                t_rebuild, t_refresh, t_seed / t_rebuild, t_seed / t_refresh);
    std::printf(
        "        | spmv full/sym %.5f/%.5f (%.2fx, traffic %.2fx) | "
        "spmm %.5f/%.5f (%.2fx)\n",
        t_spmv_full, t_spmv_sym, t_spmv_full / t_spmv_sym, traffic_reduction,
        t_spmm_full, t_spmm_sym, t_spmm_full / t_spmm_sym);
    std::printf(
        "        | fp32 spmv/spmm %.5f/%.5f (%.2fx/%.2fx, traffic %.2fx, "
        "e_p %.2e)\n",
        t_spmv_sym32, t_spmm_sym32, t_spmv_sym / t_spmv_sym32,
        t_spmm_sym / t_spmm_sym32, fp32_traffic_reduction, fp32_ep);
    std::printf("        | list rebuild full/partial %.5f/%.5f (%.2fx)\n",
                t_list_full, t_list_partial, t_list_full / t_list_partial);
    std::printf(
        "        | brownian sample wave/krylov %.3f/%.3f (%.2fx, NF its %d "
        "vs full its %d, cov err %.3f)\n",
        t_wave, t_krylov, t_krylov / t_wave, nf_iters, full_iters, cov_err);
  }

  obs::BenchReport report;
  report.name = "realspace";
  report.n = results.empty() ? 0 : results.back().n;
  report.params = {{"skin", skin}, {"threads", static_cast<double>(threads)}};
  for (const Result& r : results)
    report.samples.push_back(
        {{"n", static_cast<double>(r.n)},
         {"t_seed_s", r.t_seed},
         {"t_rebuild_s", r.t_rebuild},
         {"t_refresh_s", r.t_refresh},
         {"refresh_speedup", r.t_seed / r.t_refresh},
         {"t_spmv_full_s", r.t_spmv_full},
         {"t_spmv_sym_s", r.t_spmv_sym},
         {"spmv_speedup", r.t_spmv_full / r.t_spmv_sym},
         {"spmv_traffic_reduction", r.traffic_reduction},
         {"t_spmm_full_s", r.t_spmm_full},
         {"t_spmm_sym_s", r.t_spmm_sym},
         {"spmm_speedup", r.t_spmm_full / r.t_spmm_sym},
         {"t_spmv_sym32_s", r.t_spmv_sym32},
         {"fp32_spmv_speedup", r.t_spmv_sym / r.t_spmv_sym32},
         {"t_spmm_sym32_s", r.t_spmm_sym32},
         {"fp32_spmm_speedup", r.t_spmm_sym / r.t_spmm_sym32},
         {"fp32_traffic_reduction", r.fp32_traffic_reduction},
         {"fp32_ep", r.fp32_ep},
         {"t_list_rebuild_s", r.t_list_full},
         {"t_list_partial_s", r.t_list_partial},
         {"partial_rebuild_speedup", r.t_list_full / r.t_list_partial},
         {"t_wave_sample_s", r.t_wave_sample},
         {"t_krylov_sample_s", r.t_krylov_sample},
         {"wave_sample_speedup", r.t_krylov_sample / r.t_wave_sample},
         {"nearfield_lanczos_iters",
          static_cast<double>(r.nearfield_lanczos_iters)},
         {"krylov_full_iters", static_cast<double>(r.krylov_full_iters)},
         {"covariance_probe_error", r.covariance_probe_error}});
  if (!obs::write_json(json_path, report)) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
