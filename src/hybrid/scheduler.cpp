#include "hybrid/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/neighbor_list.hpp"
#include "pme/params.hpp"

namespace hbd {

double effective_rebuild_interval(const NeighborList& list, double fallback) {
  if (list.build_count() == 0) return fallback;
  return std::max(list.mean_rebuild_interval(), 1.0);
}

double effective_rebuild_fraction(const NeighborList& list, double fallback) {
  if (list.build_count() == 0) return fallback;
  return std::clamp(list.mean_rebuild_fraction(), 0.0, 1.0);
}

HybridPlan tune_splitting(const Device& host, const Device& accelerator,
                          std::size_t n, double box, int order,
                          double ep_target, std::size_t lambda,
                          double rebuild_interval, bool symmetric,
                          double rebuild_fraction) {
  auto plan_at = [&](const PmeParams& p) {
    const double nbr = PmePerfModel::mean_neighbors(n, p.rmax, box);
    HybridPlan h;
    h.xi = p.xi;
    h.rmax = p.rmax;
    h.mesh = p.mesh;
    // Host-side work per step: the SpMV plus the amortized assembly/rebuild
    // of the persistent near-field structures (both CPU work, so both must
    // fit under the overlapped accelerator reciprocal sweep).
    h.t_real_host =
        host.model.t_realspace(n, nbr, symmetric) +
        host.model.t_realspace_overhead(n, nbr, lambda, rebuild_interval,
                                        rebuild_fraction);
    h.t_recip_device = accelerator.model.t_recip(p.mesh, order, n) +
                       accelerator.model.t_offload_transfer(n);
    // Host and accelerator overlap: the step takes the slower of the two.
    h.t_single = std::max(h.t_real_host, h.t_recip_device);
    return h;
  };
  // The chooser's own candidates, priced by the overlapped step.
  return plan_at(sweep_pme_cutoffs(
      box, ep_target, order,
      [&](const PmeParams& p) { return plan_at(p).t_single; }));
}

double partition_makespan(const std::vector<Device>& devices,
                          const std::vector<std::size_t>& counts,
                          std::size_t mesh, int order, std::size_t n) {
  HBD_CHECK(devices.size() == counts.size());
  double makespan = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (counts[d] == 0) continue;
    const double per = devices[d].model.t_recip(mesh, order, n) +
                       devices[d].model.t_offload_transfer(n);
    makespan = std::max(makespan, per * static_cast<double>(counts[d]));
  }
  return makespan;
}

std::vector<std::size_t> partition_columns(
    const std::vector<Device>& devices, std::size_t columns, std::size_t mesh,
    int order, std::size_t n) {
  HBD_CHECK(!devices.empty());
  std::vector<double> per(devices.size());
  double inv_sum = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    per[d] = devices[d].model.t_recip(mesh, order, n) +
             devices[d].model.t_offload_transfer(n);
    inv_sum += 1.0 / per[d];
  }
  // Proportional assignment, then greedy fix-up of the remainder by always
  // giving the next column to the device that finishes earliest.
  std::vector<std::size_t> counts(devices.size(), 0);
  std::size_t assigned = 0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    counts[d] = static_cast<std::size_t>(
        std::floor(static_cast<double>(columns) / per[d] / inv_sum));
    assigned += counts[d];
  }
  while (assigned < columns) {
    std::size_t best = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const double finish = per[d] * static_cast<double>(counts[d] + 1);
      if (finish < best_finish) {
        best_finish = finish;
        best = d;
      }
    }
    ++counts[best];
    ++assigned;
  }
  return counts;
}

double partition_makespan_batched(const std::vector<Device>& devices,
                                  const std::vector<std::size_t>& counts,
                                  std::size_t mesh, int order, std::size_t n) {
  HBD_CHECK(devices.size() == counts.size());
  double makespan = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (counts[d] == 0) continue;
    const double t =
        devices[d].model.t_recip_block(mesh, order, n, counts[d]) +
        devices[d].model.t_offload_transfer(n) *
            static_cast<double>(counts[d]);
    makespan = std::max(makespan, t);
  }
  return makespan;
}

std::vector<std::size_t> partition_columns_batched(
    const std::vector<Device>& devices, std::size_t columns, std::size_t mesh,
    int order, std::size_t n) {
  HBD_CHECK(!devices.empty());
  // Batched sub-block cost is concave in the width (amortized P/influence
  // reads), so proportional splitting is no longer optimal; assign columns
  // one at a time to the device whose finish time grows the least.
  std::vector<std::size_t> counts(devices.size(), 0);
  for (std::size_t c = 0; c < columns; ++c) {
    std::size_t best = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const double finish =
          devices[d].model.t_recip_block(mesh, order, n, counts[d] + 1) +
          devices[d].model.t_offload_transfer(n) *
              static_cast<double>(counts[d] + 1);
      if (finish < best_finish) {
        best_finish = finish;
        best = d;
      }
    }
    ++counts[best];
  }
  return counts;
}

BdStepModel model_bd_step(const Device& host,
                          const std::vector<Device>& accelerators,
                          std::size_t n, double box, int order,
                          double ep_target, std::size_t lambda,
                          int krylov_iterations, double rebuild_interval,
                          bool symmetric, double rebuild_fraction,
                          bool wavespace, int nearfield_iterations) {
  const PmeParams split =
      wavespace ? choose_pme_params_wavespace(box, 1.0, ep_target, order)
                : choose_pme_params(box, 1.0, ep_target, std::nullopt, order);
  return model_bd_step(host, accelerators, n, box, split, ep_target, lambda,
                       krylov_iterations, rebuild_interval, symmetric,
                       rebuild_fraction, nearfield_iterations);
}

BdStepModel model_bd_step(const Device& host,
                          const std::vector<Device>& accelerators,
                          std::size_t n, double box, const PmeParams& split,
                          double ep_target, std::size_t lambda,
                          int krylov_iterations, double rebuild_interval,
                          bool symmetric, double rebuild_fraction,
                          int nearfield_iterations) {
  BdStepModel out;
  const int order = split.order;
  const bool wavespace = split.brownian == BrownianMethod::wavespace;

  // ---- CPU-only: the splitting the tier runs -------------------------------
  out.cpu_only = host.model.t_pme_step(
      n, box, split.rmax, split.mesh, order,
      PmeStepShape{lambda, krylov_iterations, rebuild_interval, symmetric,
                   rebuild_fraction, wavespace, nearfield_iterations});

  // ---- Hybrid -------------------------------------------------------------
  if (!accelerators.empty()) {
    const HybridPlan plan =
        tune_splitting(host, accelerators.front(), n, box, order, ep_target,
                       lambda, rebuild_interval, symmetric, rebuild_fraction);
    // Line 9 (single vector, once per step): host real ∥ accelerator recip.
    const double t_line9 = plan.t_single;
    // Line 6 (block of λ columns × krylov_iterations): real-space block on
    // the host SpMM overlaps the partitioned reciprocal columns over host +
    // accelerators.
    std::vector<Device> all = accelerators;
    all.push_back(host);
    const auto counts =
        partition_columns_batched(all, lambda, plan.mesh, order, n);
    const double t_recip_block =
        partition_makespan_batched(all, counts, plan.mesh, order, n);
    const double nbr = PmePerfModel::mean_neighbors(n, plan.rmax, box);
    // Multi-vector SpMM reuses the matrix: model as bandwidth-bound with the
    // matrix read once plus λ vector streams (x and y per extra column, plus
    // the y read-back of the symmetric transpose scatter).
    const double vec_bytes = symmetric ? 72.0 : 48.0;
    const double t_real_block =
        host.model.t_realspace(n, nbr, symmetric) +
        static_cast<double>(lambda - 1) * vec_bytes * static_cast<double>(n) /
            (host.model.hardware().stream_bw_gbs * 1e9);
    const double t_line6 = std::max(t_real_block, t_recip_block);
    // With the wavespace split the sampling never leaves the host: one wave
    // sample plus the near-field sweeps (no reciprocal block to partition).
    const double nf_it =
        static_cast<double>(std::max(nearfield_iterations, 1));
    const double t_sampling =
        wavespace ? host.model.t_wave_sample(plan.mesh, order, n, lambda) +
                        nf_it * t_real_block
                  : static_cast<double>(krylov_iterations) * t_line6;
    const double offloaded =
        t_line9 + t_sampling / static_cast<double>(lambda);
    // The scheduler falls back to the CPU-only plan when offloading loses
    // (small systems: transfer overhead + inefficient small-mesh FFTs on the
    // accelerator) — the hybrid code is never slower than CPU-only.
    out.hybrid = std::min(offloaded, out.cpu_only);
  }
  return out;
}

namespace {

// Direct-Ewald assembly parameters of the TEA tier (TeaBackend at its
// declared e_p of 5e-2 assembles at 1e-2) and of the dense tier (1e-6).
// The balanced split makes rcut/L and kmax functions of the tolerance
// alone, so a unit box gives the work of any box.
EwaldParams assembly_params(double ewald_tol) {
  return ewald_params_for_tolerance(1.0, 1.0, ewald_tol);
}

}  // namespace

double model_tea_step(const Device& host, std::size_t n, std::size_t lambda) {
  const double lam = static_cast<double>(lambda < 1 ? 1 : lambda);
  const EwaldParams p = assembly_params(1e-2);
  return host.model.t_tea_apply(n, 1) +
         (host.model.t_tea_setup(n, p, 1.0) +
          host.model.t_tea_apply(n, lambda)) /
             lam;
}

double model_dense_step(const Device& host, std::size_t n,
                        std::size_t lambda) {
  const double lam = static_cast<double>(lambda < 1 ? 1 : lambda);
  const EwaldParams p = assembly_params(1e-6);
  // λ triangular solves against the Cholesky factor: each streams half the
  // matrix footprint of a full GEMV.
  const double t_sample = lam * host.model.t_dense_apply(n) / 2.0;
  return host.model.t_dense_apply(n) +
         (host.model.t_dense_assembly(n, p, 1.0) + host.model.t_cholesky(n) +
          t_sample) /
             lam;
}

}  // namespace hbd
