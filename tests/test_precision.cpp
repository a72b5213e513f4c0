// Mixed-precision storage mode (FP32 values, FP64 accumulation): the
// FP64-accumulator guarantee on adversarially cancelling block sums, and
// the end-to-end gate — an FP32-store trajectory stays within the probed
// e_p tolerance of the FP64 reference over a short BD run.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "hybrid/perf_model.hpp"
#include "obs/telemetry.hpp"
#include "pme/params.hpp"

namespace hbd {
namespace {

TEST(Precision, ValueBytesAndNames) {
  EXPECT_EQ(value_bytes(Precision::fp64), 8u);
  EXPECT_EQ(value_bytes(Precision::fp32), 4u);
  EXPECT_STREQ(precision_name(Precision::fp64), "fp64");
  EXPECT_STREQ(precision_name(Precision::fp32), "fp32");
}

// Float-stored blocks at 2^26 scale that cancel exactly: a float
// accumulator would absorb the seed value t (float ulp at 3·2^26 is ~16),
// returning 0; the FP64 accumulator the kernels guarantee — equivalent in
// effect to compensated (Kahan) summation for this cancellation — keeps t
// to the last bit because every product and partial sum is exact in double.
TEST(Precision, Fp64AccumulatorSurvivesCancellingBlocks) {
  const std::size_t n = 11;
  const float c = 67108864.0f;  // 2^26, exactly representable
  std::vector<float> bp(9, c), bn(9, -c);
  std::vector<double> x0(n, 1.0), x1(n, 1.0), x2(n, 1.0);
  const double t = 0.001953125;  // 2^-9: t + 3c fits a double exactly
  std::vector<double> y0(n, t), y1(n, t), y2(n, t);

  simd::block3_fma(bp.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                   y1.data(), y2.data(), n);
  simd::block3_fma(bn.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                   y1.data(), y2.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(y0[k], t) << "k=" << k;
    ASSERT_EQ(y1[k], t) << "k=" << k;
    ASSERT_EQ(y2[k], t) << "k=" << k;
  }

  // Same guarantee for the transpose scatter and the axpy kernel.
  std::fill(y0.begin(), y0.end(), t);
  std::fill(y1.begin(), y1.end(), t);
  std::fill(y2.begin(), y2.end(), t);
  simd::block3t_fma(bp.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                    y1.data(), y2.data(), n);
  simd::block3t_fma(bn.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                    y1.data(), y2.data(), n);
  for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(y0[k], t);

  std::vector<double> dst(n, t), src(n, 1.0);
  simd::axpy(dst.data(), static_cast<double>(c), src.data(), n);
  simd::axpy(dst.data(), -static_cast<double>(c), src.data(), n);
  for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(dst[k], t);
}

// Within one block row the chain y + fma(b2, v2, fma(b0, v0, b1*v1)) also
// cancels exactly when the large terms sit in the same row: (c) + (-c) + 1
// must come out as exactly 1.
TEST(Precision, Fp64AccumulatorSurvivesInRowCancellation) {
  const std::size_t n = 5;
  const float c = 67108864.0f;
  std::vector<float> b(9, 0.0f);
  b[0] = c;
  b[1] = -c;
  b[2] = 1.0f;
  std::vector<double> x0(n, 1.0), x1(n, 1.0), x2(n, 1.0);
  std::vector<double> y0(n, 0.0), y1(n, 0.0), y2(n, 0.0);
  simd::block3_fma(b.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                   y1.data(), y2.data(), n);
  for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(y0[k], 1.0);
}

TEST(Precision, PerfModelValueBytesScaleBandwidthTerms) {
  const PmePerfModel m64(westmere_ep());
  const PmePerfModel m32(westmere_ep(), 4.0);
  EXPECT_DOUBLE_EQ(m64.value_bytes(), 8.0);
  EXPECT_DOUBLE_EQ(m32.value_bytes(), 4.0);
  const std::size_t n = 16000, mesh = 64;
  const int order = 6;
  const double nbr = 30.0;
  EXPECT_LT(m32.t_spreading(mesh, order, n), m64.t_spreading(mesh, order, n));
  EXPECT_LT(m32.t_interpolation(order, n), m64.t_interpolation(order, n));
  EXPECT_LT(m32.t_realspace(n, nbr, true), m64.t_realspace(n, nbr, true));
  EXPECT_LT(m32.t_realspace_assembly(n, nbr),
            m64.t_realspace_assembly(n, nbr));
  // FFT and influence never touch Real-typed storage.
  EXPECT_DOUBLE_EQ(m32.t_fft(mesh), m64.t_fft(mesh));
  EXPECT_DOUBLE_EQ(m32.t_influence(mesh), m64.t_influence(mesh));
  EXPECT_LT(PmePerfModel::bytes_recip(mesh, order, n, 4.0),
            PmePerfModel::bytes_recip(mesh, order, n));
}

// The ISSUE gate: 10 BD steps at FP32 storage track the FP64 trajectory
// within the probed e_p tolerance (5e-3), and the probes actually ran.
TEST(Precision, Fp32TrajectoryWithinProbedEp) {
  auto make = [](Precision prec) {
    Xoshiro256 rng(91);
    ParticleSystem sys = suspension_at_volume_fraction(30, 0.1, 1.0, rng);
    const double box = sys.box;
    BdConfig cfg;
    cfg.dt = 1e-3;
    cfg.lambda_rpy = 8;
    cfg.seed = 92;
    const PmeParams pme = choose_pme_params(box, 1.0, 1e-3, 5.0, 6, prec);
    return std::make_unique<MatrixFreeBdSimulation>(std::move(sys), nullptr,
                                                    cfg, pme, 1e-3);
  };
  auto s64 = make(Precision::fp64);
  auto s32 = make(Precision::fp32);
  const std::vector<Vec3> init = s64->system().positions;
  s64->step(10);
  s32->step(10);

  double disp2 = 0.0, diff2 = 0.0;
  const auto& r64 = s64->system().positions;
  const auto& r32 = s32->system().positions;
  for (std::size_t i = 0; i < r64.size(); ++i) {
    const Vec3 d = r64[i] - init[i];
    const Vec3 e = r32[i] - r64[i];
    disp2 += dot(d, d);
    diff2 += dot(e, e);
  }
  ASSERT_GT(disp2, 0.0);
  EXPECT_LT(std::sqrt(diff2), 5e-3 * std::sqrt(disp2));

  if constexpr (obs::kEnabled) {
    // FP32 runs flip the accuracy probes on by themselves and the manifest
    // records the storage mode.
    EXPECT_TRUE(s32->health().probes_enabled());
    ASSERT_FALSE(s32->health().ep_history().empty());
    EXPECT_LE(s32->health().ep_max(), 5e-3);
    EXPECT_EQ(s32->manifest().precision, "fp32");
    EXPECT_EQ(s64->manifest().precision, "fp64");
  }
}

// The default-FP64 path must not notice any of this machinery: two FP64
// sims with identical seeds produce bitwise-identical trajectories whether
// or not an FP32 sim ran in between.
TEST(Precision, Fp64PathUnperturbedByFp32Run) {
  auto run = [](Precision prec) {
    Xoshiro256 rng(93);
    ParticleSystem sys = suspension_at_volume_fraction(20, 0.1, 1.0, rng);
    const double box = sys.box;
    BdConfig cfg;
    cfg.dt = 1e-3;
    cfg.lambda_rpy = 4;
    cfg.seed = 94;
    const PmeParams pme = choose_pme_params(box, 1.0, 1e-3, 5.0, 6, prec);
    MatrixFreeBdSimulation sim(std::move(sys), nullptr, cfg, pme, 1e-3);
    sim.step(6);
    return sim.system().positions;
  };
  const auto a = run(Precision::fp64);
  run(Precision::fp32);
  const auto b = run(Precision::fp64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].x, b[i].x);
    ASSERT_EQ(a[i].y, b[i].y);
    ASSERT_EQ(a[i].z, b[i].z);
  }
}

}  // namespace
}  // namespace hbd
