// Micro-kernel benchmarks (google-benchmark) for the building blocks of the
// PME pipeline: 3-D FFTs, BCSR SpMV (single and multi-vector), spreading /
// interpolation in both P modes, and the influence function.  These back the
// kernel-level claims of Sec. IV (multi-vector SpMV efficiency, spreading
// bandwidth limits, influence-function bandwidth limits).  The direct-Ewald
// assembly (Algorithm 1, line 4; the dense and TEA tiers' rebuild) is timed
// at the TEA (1e-2) and dense (1e-6) tolerances.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "ewald/beenakker.hpp"
#include "fft/fft.hpp"
#include "pme/influence.hpp"
#include "pme/interp_matrix.hpp"
#include "pme/realspace.hpp"

namespace {

using namespace hbd;
using hbd::bench::benchmark_suspension;

// Mesh sizes: powers of two plus non-power-of-two K of the kind the PME
// choosers produce (36, 40, 72, 90, 96), so the ROADMAP's
// "non-power-of-two within 1.5× of power-of-two per point" target reads
// off one run.  Items are mesh points, so items_per_second is pts/s.
void BM_Fft3dForward(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Fft3d fft(k, k, k);
  aligned_vector<double> mesh(k * k * k, 0.5);
  aligned_vector<Complex> spec(fft.complex_size());
  for (auto _ : state) {
    fft.forward(mesh.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(k * k * k));
}
BENCHMARK(BM_Fft3dForward)
    ->Arg(32)->Arg(36)->Arg(40)->Arg(48)->Arg(64)->Arg(72)->Arg(90)->Arg(96);

void BM_Fft3dInverse(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Fft3d fft(k, k, k);
  aligned_vector<double> mesh(k * k * k, 0.5);
  aligned_vector<Complex> spec(fft.complex_size());
  fft.forward(mesh.data(), spec.data());
  for (auto _ : state) {
    fft.inverse(spec.data(), mesh.data());
    benchmark::DoNotOptimize(mesh.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(k * k * k));
}
BENCHMARK(BM_Fft3dInverse)
    ->Arg(32)->Arg(36)->Arg(40)->Arg(48)->Arg(64)->Arg(72)->Arg(90)->Arg(96);

// Batched transforms as the block mobility apply runs them: 3λ interleaved
// meshes, λ = 16 (K = 36 is krylov_n500's mesh under the earlier
// Gaussian-decay chooser, K = 72 wavespace_n4000's).
void BM_Fft3dForwardBatch(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  Fft3d fft(k, k, k);
  aligned_vector<double> mesh(fft.real_size() * batch);
  Xoshiro256 rng(5);
  fill_gaussian(rng, mesh);
  aligned_vector<Complex> spec(fft.complex_size() * batch);
  for (auto _ : state) {
    fft.forward_batch(mesh.data(), spec.data(), batch);
    benchmark::DoNotOptimize(spec.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(k * k * k * batch));
}
BENCHMARK(BM_Fft3dForwardBatch)->Args({36, 48})->Args({72, 48});

void BM_Fft3dInverseBatch(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  Fft3d fft(k, k, k);
  aligned_vector<double> mesh(fft.real_size() * batch);
  Xoshiro256 rng(5);
  fill_gaussian(rng, mesh);
  aligned_vector<Complex> spec(fft.complex_size() * batch), work(spec.size());
  fft.forward_batch(mesh.data(), spec.data(), batch);
  for (auto _ : state) {
    // inverse_batch destroys its input: restore it outside the timed region.
    state.PauseTiming();
    std::copy(spec.begin(), spec.end(), work.begin());
    state.ResumeTiming();
    fft.inverse_batch(work.data(), mesh.data(), batch);
    benchmark::DoNotOptimize(mesh.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(k * k * k * batch));
}
BENCHMARK(BM_Fft3dInverseBatch)->Args({36, 48})->Args({72, 48});

void BM_BcsrSpmvSingle(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  const Bcsr3Matrix m = build_realspace_operator(
      wrapped, sys.box, 1.0, 0.6, std::min(4.0, 0.49 * sys.box));
  std::vector<double> x(3 * n, 1.0), y(3 * n);
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["nnz_blocks"] = static_cast<double>(m.nnz_blocks());
}
BENCHMARK(BM_BcsrSpmvSingle)->Arg(1000)->Arg(5000);

void BM_BcsrSpmvBlock(benchmark::State& state) {
  // Multi-vector SpMM with s right-hand sides: should beat s single SpMVs
  // (the matrix streams once).
  const std::size_t n = 5000;
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  const Bcsr3Matrix m = build_realspace_operator(
      wrapped, sys.box, 1.0, 0.6, std::min(4.0, 0.49 * sys.box));
  Matrix x(3 * n, s), y(3 * n, s);
  Xoshiro256 rng(1);
  fill_gaussian(rng, {x.data(), 3 * n * s});
  for (auto _ : state) {
    m.multiply_block(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s));
}
BENCHMARK(BM_BcsrSpmvBlock)->Arg(1)->Arg(4)->Arg(16);

void BM_SymSpmvPrecision(benchmark::State& state) {
  // Half-stored SpMV with FP64 vs FP32 block values (arg is the value
  // width in bits); accumulation is double in both arms.
  const std::size_t n = 5000;
  const Precision prec =
      state.range(0) == 32 ? Precision::fp32 : Precision::fp64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  RealspaceOperator op(sys.box, 1.0, 0.6, std::min(4.0, 0.49 * sys.box), 0.0,
                       NearFieldStorage::symmetric, prec);
  op.refresh(wrapped);
  std::vector<double> x(3 * n, 1.0), y(3 * n);
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["matrix_bytes"] = static_cast<double>(op.bytes());
}
BENCHMARK(BM_SymSpmvPrecision)->Arg(64)->Arg(32);

void BM_SpreadPrecomputed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t mesh = 64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  InterpMatrix p(wrapped, sys.box, mesh, 6, /*precompute=*/true);
  std::vector<double> f(3 * n, 1.0);
  aligned_vector<double> fx(mesh * mesh * mesh), fy(fx.size()), fz(fx.size());
  for (auto _ : state) {
    p.spread(f, fx.data(), fy.data(), fz.data());
    benchmark::DoNotOptimize(fx.data());
  }
}
BENCHMARK(BM_SpreadPrecomputed)->Arg(1000)->Arg(10000);

void BM_SpreadPrecision(benchmark::State& state) {
  // Precomputed spreading with FP64 vs FP32 stored weights (arg is the
  // value width in bits); mesh accumulation is double in both arms.
  const std::size_t n = 10000;
  const std::size_t mesh = 64;
  const Precision prec =
      state.range(0) == 32 ? Precision::fp32 : Precision::fp64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  InterpMatrix p(wrapped, sys.box, mesh, 6, /*precompute=*/true,
                 InterpKind::bspline, prec);
  std::vector<double> f(3 * n, 1.0);
  aligned_vector<double> fx(mesh * mesh * mesh), fy(fx.size()), fz(fx.size());
  for (auto _ : state) {
    p.spread(f, fx.data(), fy.data(), fz.data());
    benchmark::DoNotOptimize(fx.data());
  }
}
BENCHMARK(BM_SpreadPrecision)->Arg(64)->Arg(32);

void BM_SpreadOnTheFly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t mesh = 64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  InterpMatrix p(wrapped, sys.box, mesh, 6, /*precompute=*/false);
  std::vector<double> f(3 * n, 1.0);
  aligned_vector<double> fx(mesh * mesh * mesh), fy(fx.size()), fz(fx.size());
  for (auto _ : state) {
    p.spread(f, fx.data(), fy.data(), fz.data());
    benchmark::DoNotOptimize(fx.data());
  }
}
BENCHMARK(BM_SpreadOnTheFly)->Arg(1000)->Arg(10000);

void BM_Interpolate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t mesh = 64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  InterpMatrix p(wrapped, sys.box, mesh, 6);
  aligned_vector<double> ux(mesh * mesh * mesh, 1.0), uy(ux), uz(ux);
  std::vector<double> u(3 * n);
  for (auto _ : state) {
    p.interpolate(ux.data(), uy.data(), uz.data(), u);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_Interpolate)->Arg(1000)->Arg(10000);

void BM_InterpolatePrecision(benchmark::State& state) {
  const std::size_t n = 10000;
  const std::size_t mesh = 64;
  const Precision prec =
      state.range(0) == 32 ? Precision::fp32 : Precision::fp64;
  const ParticleSystem sys = benchmark_suspension(n);
  const auto wrapped = sys.wrapped_positions();
  InterpMatrix p(wrapped, sys.box, mesh, 6, /*precompute=*/true,
                 InterpKind::bspline, prec);
  aligned_vector<double> ux(mesh * mesh * mesh, 1.0), uy(ux), uz(ux);
  std::vector<double> u(3 * n);
  for (auto _ : state) {
    p.interpolate(ux.data(), uy.data(), uz.data(), u);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_InterpolatePrecision)->Arg(64)->Arg(32);

void BM_InfluenceApply(benchmark::State& state) {
  const std::size_t mesh = static_cast<std::size_t>(state.range(0));
  InfluenceFunction infl(mesh, 30.0, 1.0, 0.5, 6);
  const std::size_t sz = mesh * mesh * (mesh / 2 + 1);
  aligned_vector<Complex> cx(sz, Complex{1.0, 0.5}), cy(cx), cz(cx);
  for (auto _ : state) {
    infl.apply(cx.data(), cy.data(), cz.data());
    benchmark::DoNotOptimize(cx.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(sz * (8 + 6 * 16)));
}
BENCHMARK(BM_InfluenceApply)->Arg(32)->Arg(64)->Arg(96);

// The m^{1/2} scaling pass of the wave-space Brownian sampler (PSE kernel:
// every stored mode has a real square root).  Same table read and spectrum
// update traffic as BM_InfluenceApply plus the Hermitian bookkeeping of the
// k3 = 0 plane.
void BM_InfluenceApplySqrt(benchmark::State& state) {
  const std::size_t mesh = static_cast<std::size_t>(state.range(0));
  InfluenceFunction infl(mesh, 30.0, 1.0, 0.5, 6, true, EwaldKernel::pse);
  const std::size_t sz = mesh * mesh * (mesh / 2 + 1);
  aligned_vector<Complex> cx(sz, Complex{1.0, 0.5}), cy(cx), cz(cx);
  for (auto _ : state) {
    infl.apply_sqrt(cx.data(), cy.data(), cz.data());
    benchmark::DoNotOptimize(cx.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(sz * (8 + 6 * 16)));
}
BENCHMARK(BM_InfluenceApplySqrt)->Arg(32)->Arg(64);

// Args: particle count n, −log10 of the Ewald tolerance.  Items are pair
// blocks (n(n+1)/2), so items_per_second is assembled blocks/s.
void BM_EwaldDenseAssembly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double tol = std::pow(10.0, -static_cast<double>(state.range(1)));
  const ParticleSystem sys = benchmark_suspension(n);
  const EwaldParams p =
      ewald_params_for_tolerance(sys.box, sys.radius, tol);
  Matrix m(3 * n, 3 * n);
  for (auto _ : state) {
    ewald_mobility_dense(sys.positions, sys.box, sys.radius, p, m);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(n * (n + 1) / 2));
}
BENCHMARK(BM_EwaldDenseAssembly)
    ->Args({500, 2})
    ->Args({500, 6})
    ->Args({1000, 2})
    ->Args({1000, 6})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
