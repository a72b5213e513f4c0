// Additional coverage: FFT linearity/shift properties on the radix-4 fast
// path, BD driver edge cases, periodic bonded forces, Lagrange-mode
// spreading algebra, host calibration sanity, checkpoint robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/forces.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "fft/fft.hpp"
#include "hybrid/calibrate.hpp"
#include "pme/interp_matrix.hpp"
#include "pme/params.hpp"

namespace hbd {
namespace {

// ---- FFT properties on the radix-4 path --------------------------------------

// In-place forward transform of x through the plan's split-complex
// interface.
void fft1d_forward(const Fft1dPlan& plan, std::vector<Complex>& x) {
  std::vector<double> re(x.size()), im(x.size()), ws(plan.workspace_size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  plan.forward(re.data(), im.data(), ws.data());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = {re[i], im[i]};
}

TEST(FftProperties, Linearity) {
  const std::size_t n = 256;  // pure radix-4 path
  Fft1dPlan plan(n);
  std::vector<Complex> x(n), y(n), xy(n);
  Xoshiro256 rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {rng.next_gaussian(), rng.next_gaussian()};
    y[i] = {rng.next_gaussian(), rng.next_gaussian()};
    xy[i] = 2.0 * x[i] + Complex{0.0, 1.0} * y[i];
  }
  fft1d_forward(plan, x);
  fft1d_forward(plan, y);
  fft1d_forward(plan, xy);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expect = 2.0 * x[k] + Complex{0.0, 1.0} * y[k];
    ASSERT_NEAR(std::abs(xy[k] - expect), 0.0, 1e-9);
  }
}

TEST(FftProperties, CircularShiftIsPhaseRamp) {
  const std::size_t n = 64;
  Fft1dPlan plan(n);
  std::vector<Complex> x(n), xs(n);
  Xoshiro256 rng(2);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = {rng.next_gaussian(), rng.next_gaussian()};
  const std::size_t shift = 5;
  for (std::size_t i = 0; i < n; ++i) xs[i] = x[(i + shift) % n];
  fft1d_forward(plan, x);
  fft1d_forward(plan, xs);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = 2.0 * M_PI * static_cast<double>(k * shift) /
                       static_cast<double>(n);
    const Complex phase{std::cos(ang), std::sin(ang)};
    ASSERT_NEAR(std::abs(xs[k] - phase * x[k]), 0.0, 1e-9) << k;
  }
}

TEST(FftProperties, RealEvenInputGivesRealSpectrum) {
  const std::size_t n = 48;
  Fft1dPlan plan(n);
  std::vector<Complex> x(n);
  Xoshiro256 rng(3);
  x[0] = rng.next_gaussian();
  for (std::size_t i = 1; i <= n / 2; ++i) {
    const double v = rng.next_gaussian();
    x[i] = v;
    x[n - i] = v;  // even symmetry
  }
  fft1d_forward(plan, x);
  for (std::size_t k = 0; k < n; ++k)
    ASSERT_NEAR(x[k].imag(), 0.0, 1e-10) << k;
}

TEST(FftProperties, Fft3dLinearityAcrossComponents) {
  Fft3d fft(8, 8, 8);
  std::vector<double> a(512), b(512), sum(512);
  Xoshiro256 rng(4);
  fill_gaussian(rng, a);
  fill_gaussian(rng, b);
  for (std::size_t i = 0; i < 512; ++i) sum[i] = a[i] + 3.0 * b[i];
  std::vector<Complex> fa(fft.complex_size()), fb(fft.complex_size()),
      fs(fft.complex_size());
  fft.forward(a.data(), fa.data());
  fft.forward(b.data(), fb.data());
  fft.forward(sum.data(), fs.data());
  for (std::size_t i = 0; i < fa.size(); ++i)
    ASSERT_NEAR(std::abs(fs[i] - (fa[i] + 3.0 * fb[i])), 0.0, 1e-9);
}

// ---- BD driver edge cases -----------------------------------------------------

TEST(BdEdge, LambdaOneRebuildsEveryStep) {
  Xoshiro256 rng(11);
  ParticleSystem sys = suspension_at_volume_fraction(12, 0.1, 1.0, rng);
  BdConfig cfg;
  cfg.dt = 1e-4;
  cfg.lambda_rpy = 1;
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-2);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, cfg, pme, 1e-2);
  EXPECT_NO_THROW(sim.step(3));
  EXPECT_EQ(sim.steps_taken(), 3u);
}

TEST(BdEdge, EwaldDriverDeterministic) {
  // The dense tier (Algorithm 1) is deterministic for a fixed seed.
  auto run = [] {
    Xoshiro256 rng(21);
    ParticleSystem sys = suspension_at_volume_fraction(8, 0.1, 1.0, rng);
    BdConfig cfg;
    cfg.dt = 1e-4;
    cfg.lambda_rpy = 4;
    cfg.seed = 5;
    const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-2);
    MatrixFreeBdSimulation sim(std::move(sys),
                               std::make_shared<RepulsiveHarmonic>(1.0), cfg,
                               pme, 1e-2);
    sim.set_tier(MobilityTier::dense);
    sim.step(6);
    return sim.system().positions;
  };
  const auto a = run();
  const auto b = run();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].z, b[i].z);
  }
}

TEST(BdEdge, MobilityBytesReported) {
  Xoshiro256 rng(31);
  ParticleSystem sys = suspension_at_volume_fraction(16, 0.1, 1.0, rng);
  const double box = sys.box;
  BdConfig cfg;
  cfg.lambda_rpy = 2;
  MatrixFreeBdSimulation mf(sys, nullptr, cfg, choose_pme_params(box, 1.0, 1e-2),
                            1e-2);
  EXPECT_EQ(mf.mobility_bytes(), 0u);  // not built before the first step
  mf.step(1);
  EXPECT_GT(mf.mobility_bytes(), 1000u);

  MatrixFreeBdSimulation dense(sys, nullptr, cfg,
                               choose_pme_params(box, 1.0, 1e-2), 1e-2);
  dense.set_tier(MobilityTier::dense);
  dense.step(1);
  // Dense representation: mobility + Cholesky factor, 2·(3n)²·8 bytes.
  const std::size_t d = 3 * sys.size();
  EXPECT_GE(dense.mobility_bytes(), 2 * d * d * 8);
}

TEST(BdEdge, AthermalRunHasNoDiffusion) {
  Xoshiro256 rng(41);
  ParticleSystem sys = suspension_at_volume_fraction(10, 0.05, 1.0, rng);
  const auto before = sys.positions;
  BdConfig cfg;
  cfg.kbt = 0.0;
  cfg.lambda_rpy = 4;
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-2);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, cfg, pme, 1e-2);
  sim.step(5);
  // No forces, no noise: nothing moves.
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(sim.system().positions[i].x, before[i].x);
}

// ---- Forces across periodic boundaries ------------------------------------------

TEST(ForcesPeriodic, BondUsesMinimumImage) {
  std::vector<HarmonicBonds::Bond> bonds{{0, 1, 2.0, 10.0}};
  HarmonicBonds hb(bonds);
  // Particles 0.5 apart through the boundary of a 10-box (9.5 apart naively).
  std::vector<Vec3> pos{{0.2, 5, 5}, {9.7, 5, 5}};
  std::vector<double> f(6, 0.0);
  hb.add_forces(pos, 10.0, f);
  // Minimum-image separation 0.5 < rest 2.0: the bond pushes them apart —
  // particle 0 toward +x (away from the image of 1 at −0.3).
  // f0 = −k(r − r0)/r · rij.x = −10·(0.5−2)/0.5 · 0.5 = +15.
  EXPECT_GT(f[0], 0.0);
  EXPECT_NEAR(f[0], 15.0, 1e-9);
  EXPECT_NEAR(f[0] + f[3], 0.0, 1e-12);
}

// ---- Lagrange-mode interpolation algebra -----------------------------------------

TEST(LagrangeInterp, SpreadConservesTotalForce) {
  // Lagrange weights sum to 1 (with negative lobes), so the mesh total
  // still equals the particle total.
  const std::size_t n = 30, mesh = 24;
  const double box = 12.0;
  Xoshiro256 rng(51);
  std::vector<Vec3> pos(n);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  InterpMatrix pm(pos, box, mesh, 6, true, InterpKind::lagrange);
  std::vector<double> f(3 * n);
  fill_gaussian(rng, f);
  std::vector<double> fx(mesh * mesh * mesh), fy(fx.size()), fz(fx.size());
  pm.spread(f, fx.data(), fy.data(), fz.data());
  double sx = 0.0, tx = 0.0;
  for (double v : fx) sx += v;
  for (std::size_t i = 0; i < n; ++i) tx += f[3 * i];
  EXPECT_NEAR(sx, tx, 1e-9);
}

TEST(LagrangeInterp, OnTheFlyMatchesPrecomputed) {
  const std::size_t n = 20, mesh = 20;
  const double box = 10.0;
  Xoshiro256 rng(61);
  std::vector<Vec3> pos(n);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  InterpMatrix pre(pos, box, mesh, 4, true, InterpKind::lagrange);
  InterpMatrix otf(pos, box, mesh, 4, false, InterpKind::lagrange);
  std::vector<double> f(3 * n);
  fill_gaussian(rng, f);
  const std::size_t m3 = mesh * mesh * mesh;
  std::vector<double> a(m3), b(m3), c(m3), a2(m3), b2(m3), c2(m3);
  pre.spread(f, a.data(), b.data(), c.data());
  otf.spread(f, a2.data(), b2.data(), c2.data());
  for (std::size_t t = 0; t < m3; ++t) ASSERT_NEAR(a[t], a2[t], 1e-13);
}

// ---- Host calibration --------------------------------------------------------------

TEST(Calibrate, ReturnsSaneHardwareParams) {
  const HardwareParams hw = calibrate_host();
  EXPECT_GT(hw.stream_bw_gbs, 0.1);
  EXPECT_LT(hw.stream_bw_gbs, 10000.0);
  ASSERT_GE(hw.fft_rate_points.size(), 2u);
  for (std::size_t i = 1; i < hw.fft_rate_points.size(); ++i)
    EXPECT_LT(hw.fft_rate_points[i - 1].first,
              hw.fft_rate_points[i].first);  // sorted by K
  for (const auto& [k, rate] : hw.fft_rate_points) EXPECT_GT(rate, 1e6);
}

TEST(Calibrate, ModelUsesMeasuredTable) {
  HardwareParams hw;
  hw.name = "synthetic";
  hw.stream_bw_gbs = 10.0;
  hw.peak_dp_gflops = 1.0;
  hw.fft_eff_max = 1.0;
  hw.fft_eff_k0 = 1.0;
  hw.ifft_penalty = 1.0;
  hw.pcie_bw_gbs = 0.0;
  hw.memory_gb = 1.0;
  hw.fft_rate_points = {{32.0, 1e9}, {128.0, 2e9}};
  PmePerfModel model(hw);
  // Below / at / above the table range, and log-interpolated inside.
  const double t32 = model.t_fft(32), t128 = model.t_fft(128);
  EXPECT_GT(t32, 0.0);
  EXPECT_GT(t128, 0.0);
  const double t64 = model.t_fft(64);
  EXPECT_GT(t64, t32);        // more flops, and rate between samples
  EXPECT_LT(t64, 20.0 * t32);  // sane interpolation
}

// ---- Checkpoint robustness -----------------------------------------------------------

TEST(CheckpointRobust, TruncatedFileRejected) {
  const std::string path = "/tmp/hbd_trunc.ckpt";
  {
    Checkpoint cp;
    cp.system.box = 10.0;
    cp.system.radius = 1.0;
    cp.system.positions = {{1, 2, 3}, {4, 5, 6}};
    save_checkpoint(path, cp);
  }
  // Truncate mid-positions.
  std::filesystem::resize_file(path, 48);
  EXPECT_THROW(load_checkpoint(path), Error);
  std::filesystem::remove(path);
}

TEST(CheckpointRobust, EmptySystemRoundTrips) {
  const std::string path = "/tmp/hbd_empty.ckpt";
  Checkpoint cp;
  cp.system.box = 4.0;
  cp.system.radius = 0.5;
  save_checkpoint(path, cp);
  const Checkpoint back = load_checkpoint(path);
  EXPECT_EQ(back.system.size(), 0u);
  EXPECT_DOUBLE_EQ(back.system.radius, 0.5);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hbd
