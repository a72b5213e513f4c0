// Tests for the performance model and the hybrid scheduler: monotonicity,
// conservation of partitioned work, and the qualitative behaviours the
// paper reports (KNC loses at small meshes and wins at large; the hybrid
// plan balances real vs reciprocal time).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "hybrid/perf_model.hpp"
#include "hybrid/scheduler.hpp"
#include "pme/params.hpp"

namespace hbd {
namespace {

TEST(PerfModel, PhaseTimesPositiveAndMonotoneInMesh) {
  PmePerfModel m(westmere_ep());
  double prev = 0.0;
  for (std::size_t k : {32u, 64u, 128u, 256u}) {
    const double t = m.t_recip(k, 6, 10000);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PerfModel, SpreadInterpScaleWithParticles) {
  PmePerfModel m(westmere_ep());
  EXPECT_NEAR(m.t_interpolation(6, 200000) / m.t_interpolation(6, 100000),
              2.0, 1e-12);
  EXPECT_GT(m.t_spreading(64, 6, 200000), m.t_spreading(64, 6, 100000));
}

TEST(PerfModel, FftDominatesForLargeMeshFewParticles) {
  PmePerfModel m(westmere_ep());
  const std::size_t k = 256, n = 5000;
  const double fft = m.t_fft(k) + m.t_ifft(k);
  EXPECT_GT(fft, m.t_spreading(k, 6, n));
  EXPECT_GT(fft, m.t_interpolation(6, n));
}

TEST(PerfModel, SpreadingOvertakesFftForManyParticles) {
  // Paper Fig. 5a: spreading/interpolation grow with n and eventually
  // rival the FFTs.
  PmePerfModel m(westmere_ep());
  const std::size_t k = 256;
  const double fft = m.t_fft(k) + m.t_ifft(k);
  EXPECT_LT(m.t_spreading(k, 6, 10000) + m.t_interpolation(6, 10000), fft);
  EXPECT_GT(m.t_spreading(k, 6, 500000) + m.t_interpolation(6, 500000), fft);
}

TEST(PerfModel, KncSlowerAtSmallMeshFasterAtLarge) {
  // Paper Fig. 6.
  PmePerfModel cpu(westmere_ep()), knc(xeon_phi_knc());
  EXPECT_GT(cpu.t_recip(32, 6, 1000), 0.0);
  EXPECT_LT(cpu.t_recip(48, 6, 1000), knc.t_recip(48, 6, 1000));
  const double speedup_large =
      cpu.t_recip(256, 6, 200000) / knc.t_recip(256, 6, 200000);
  EXPECT_GT(speedup_large, 1.2);
  EXPECT_LT(speedup_large, 2.5);
}

TEST(PerfModel, MeanNeighborsMatchesDensity) {
  // 1000 particles in a 10³ box, rmax 2: 4/3π·8·1 = 33.5 neighbors.
  EXPECT_NEAR(PmePerfModel::mean_neighbors(1000, 2.0, 10.0), 33.51, 0.01);
}

TEST(PerfModel, MemoryModelMatchesEq11) {
  const double b = PmePerfModel::bytes_recip(64, 6, 10000);
  const double k3 = 64.0 * 64.0 * 64.0;
  EXPECT_NEAR(b, 24.0 * k3 + 12.0 * 216 * 10000 + 4.0 * k3, 1.0);
}

TEST(PerfModel, DenseMemoryQuadratic) {
  EXPECT_NEAR(PmePerfModel::bytes_dense(10000) /
                  PmePerfModel::bytes_dense(5000),
              4.0, 1e-12);
  // At n = 10000 the dense representation exceeds 14 GB (paper: the 32 GB
  // limit of their system).
  EXPECT_GT(PmePerfModel::bytes_dense(10000), 1.4e10);
}

TEST(Scheduler, TuneSplittingBalances) {
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  const double box = 80.0;
  const HybridPlan plan = tune_splitting(host, acc, 100000, box, 6, 5e-3);
  EXPECT_GT(plan.xi, 0.0);
  EXPECT_GT(plan.mesh, 0u);
  EXPECT_LE(plan.rmax, 0.5 * box);
  // Balanced within the mesh-size quantization: neither side idles > 4x.
  const double ratio = plan.t_real_host / plan.t_recip_device;
  EXPECT_GT(ratio, 0.25);
  EXPECT_LT(ratio, 4.0);
  // The overlapped time can't beat either half alone.
  EXPECT_GE(plan.t_single,
            std::min(plan.t_real_host, plan.t_recip_device) - 1e-15);
}

TEST(PerfModel, BatchedTermsReduceToSingleVectorAtWidthOne) {
  PmePerfModel m(westmere_ep());
  const std::size_t mesh = 64, n = 10000;
  EXPECT_NEAR(m.t_recip_block(mesh, 6, n, 1), m.t_recip(mesh, 6, n),
              1e-15 + 1e-12 * m.t_recip(mesh, 6, n));
  EXPECT_NEAR(m.t_influence_block(mesh, 1), m.t_influence(mesh),
              1e-15 + 1e-12 * m.t_influence(mesh));
  EXPECT_NEAR(m.t_spreading_block(mesh, 6, n, 1), m.t_spreading(mesh, 6, n),
              1e-15 + 1e-12 * m.t_spreading(mesh, 6, n));
}

TEST(PerfModel, BatchingAmortizesWeightAndInfluenceReads) {
  // A width-s batched apply must be modeled strictly cheaper than s
  // single-vector sweeps: P and the scalar influence table are read once.
  PmePerfModel m(westmere_ep());
  const std::size_t mesh = 64, n = 10000;
  for (std::size_t s : {2u, 4u, 8u, 16u}) {
    const double sd = static_cast<double>(s);
    EXPECT_LT(m.t_recip_block(mesh, 6, n, s), sd * m.t_recip(mesh, 6, n));
    EXPECT_LT(m.t_influence_block(mesh, s), sd * m.t_influence(mesh));
    EXPECT_LT(m.t_spreading_block(mesh, 6, n, s),
              sd * m.t_spreading(mesh, 6, n));
    EXPECT_LT(m.t_interpolation_block(6, n, s),
              sd * m.t_interpolation(6, n));
  }
  // FFT flops stay linear in the batch width.
  EXPECT_NEAR(m.t_fft_block(mesh, 8), 8.0 * m.t_fft(mesh),
              1e-12 * m.t_fft(mesh));
}

TEST(Scheduler, BatchedPartitionConservesColumns) {
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  std::vector<Device> devices{acc, acc, host};
  for (std::size_t cols : {1u, 7u, 16u, 61u}) {
    const auto counts =
        partition_columns_batched(devices, cols, 128, 6, 50000);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), cols);
  }
}

TEST(Scheduler, BatchedPartitionNoWorseThanLegacyPerColumn) {
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  std::vector<Device> both{acc, host};
  const std::size_t cols = 16, mesh = 176, n = 100000;
  const auto legacy = partition_columns(both, cols, mesh, 6, n);
  const auto batched = partition_columns_batched(both, cols, mesh, 6, n);
  const double t_legacy = partition_makespan(both, legacy, mesh, 6, n);
  const double t_batched =
      partition_makespan_batched(both, batched, mesh, 6, n);
  EXPECT_LE(t_batched, t_legacy * (1.0 + 1e-12));
}

TEST(Scheduler, PartitionConservesColumns) {
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  std::vector<Device> devices{acc, acc, host};
  for (std::size_t cols : {1u, 7u, 16u, 61u}) {
    const auto counts = partition_columns(devices, cols, 128, 6, 50000);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), cols);
  }
}

TEST(Scheduler, PartitionBeatsSingleDevice) {
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  std::vector<Device> both{acc, host};
  const std::size_t cols = 16, mesh = 176, n = 100000;
  const auto counts = partition_columns(both, cols, mesh, 6, n);
  const double makespan = partition_makespan(both, counts, mesh, 6, n);
  const double host_alone =
      host.model.t_recip(mesh, 6, n) * static_cast<double>(cols);
  EXPECT_LT(makespan, host_alone);
}

TEST(Scheduler, HybridSpeedupGrowsWithSystemSize) {
  // Paper Fig. 9: marginal gain for small systems, >3.5x for the largest.
  Device host{PmePerfModel(westmere_ep()), true};
  Device acc{PmePerfModel(xeon_phi_knc()), false};
  std::vector<Device> accs{acc, acc};

  double prev = 0.0;
  for (std::size_t n : {1000u, 10000u, 100000u, 500000u}) {
    const double box = box_for_volume_fraction(n, 1.0, 0.2);
    const BdStepModel step = model_bd_step(host, accs, n, box, 6, 5e-3,
                                           /*lambda=*/16,
                                           /*krylov_iterations=*/22);
    EXPECT_GT(step.speedup(), 0.9) << "n=" << n;
    if (n >= 10000) {
      EXPECT_GE(step.speedup(), prev * 0.9) << "n=" << n;
    }
    prev = step.speedup();
  }
  // Largest configuration: the paper reports over 3.5x with 2 KNC.
  const double box = box_for_volume_fraction(500000, 1.0, 0.2);
  const BdStepModel step =
      model_bd_step(host, accs, 500000, box, 6, 5e-3, 16, 22);
  EXPECT_GT(step.speedup(), 2.0);
}

// One splitting rule: the step model prices exactly the (ξ, r_max, K) the
// tier's chooser returns, and the hybrid α tuning only ever considers
// splittings the chooser returns for a pinned cutoff.
TEST(Scheduler, StepModelPricesTheChosenSplitting) {
  const Device host{PmePerfModel(westmere_ep()), true};
  for (std::size_t n : {500u, 4000u, 16000u}) {
    const double box = box_for_volume_fraction(n, 1.0, 0.2);
    const PmeParams krylov = choose_pme_params(box, 1.0, 1e-3);
    const BdStepModel step = model_bd_step(host, {}, n, box, 6, 1e-3,
                                           /*lambda=*/16,
                                           /*krylov_iterations=*/6);
    EXPECT_EQ(step.cpu_only,
              host.model.t_pme_step(n, box, krylov.rmax, krylov.mesh, 6,
                                    PmeStepShape{}))
        << "n=" << n;

    const PmeParams ws = choose_pme_params_wavespace(box, 1.0, 1e-3);
    PmeStepShape ws_shape;
    ws_shape.wavespace = true;
    ws_shape.nearfield_iterations = 6;
    const BdStepModel wstep =
        model_bd_step(host, {}, n, box, 6, 1e-3, 16, 6, 256.0, false, 1.0,
                      /*wavespace=*/true, 6);
    EXPECT_EQ(wstep.cpu_only,
              host.model.t_pme_step(n, box, ws.rmax, ws.mesh, 6, ws_shape))
        << "n=" << n;
  }
  const Device acc{PmePerfModel(xeon_phi_knc()), false};
  const double box = box_for_volume_fraction(100000, 1.0, 0.2);
  const HybridPlan plan = tune_splitting(host, acc, 100000, box, 6, 1e-3);
  const PmeParams pinned = choose_pme_params(box, 1.0, 1e-3, plan.rmax);
  EXPECT_EQ(plan.xi, pinned.xi);
  EXPECT_EQ(plan.mesh, pinned.mesh);
  // ... and the plan's cutoff is one of the chooser's own candidates.
  std::vector<double> grid;
  sweep_pme_cutoffs(box, 1e-3, 6, [&](const PmeParams& c) {
    grid.push_back(c.rmax);
    return 0.0;
  });
  EXPECT_NE(std::find(grid.begin(), grid.end(), plan.rmax), grid.end());
}

// The driver's tier routing chooses each PME tier's splitting once and
// prices it through the split-taking overload: identical to the
// overload that chooses the splitting itself.
TEST(Scheduler, GivenSplittingMatchesChosenSplitting) {
  const Device host{PmePerfModel(westmere_ep()), true};
  const std::vector<Device> accs{{PmePerfModel(xeon_phi_knc()), false}};
  const std::size_t n = 4000;
  const double box = box_for_volume_fraction(n, 1.0, 0.2);
  for (const bool ws : {false, true}) {
    const PmeParams split =
        ws ? choose_pme_params_wavespace(box, 1.0, 1e-3)
           : choose_pme_params(box, 1.0, 1e-3);
    const BdStepModel chosen = model_bd_step(
        host, accs, n, box, 6, 1e-3, 16, 6, 64.0, true, 0.5, ws, ws ? 6 : 0);
    const BdStepModel given = model_bd_step(
        host, accs, n, box, split, 1e-3, 16, 6, 64.0, true, 0.5, ws ? 6 : 0);
    EXPECT_EQ(given.cpu_only, chosen.cpu_only) << "wavespace " << ws;
    EXPECT_EQ(given.hybrid, chosen.hybrid) << "wavespace " << ws;
  }
}

}  // namespace
}  // namespace hbd
