// Hybrid CPU + accelerator scheduling (paper Sec. IV-E):
//
//   * single-vector PME (Algorithm 2, line 9): the real-space sum runs on
//     the CPU while the reciprocal sum is offloaded; the Ewald splitting α
//     is tuned so both take about the same time;
//   * block PME inside the Krylov iteration (line 6): the reciprocal work of
//     the λ_RPY right-hand sides is statically partitioned across the CPU
//     and the accelerators.  Each device runs its share of the columns as
//     one batched sub-block through the batched reciprocal pipeline, so the
//     partitioning is over sub-block widths (partition_columns_batched);
//     the legacy per-column partitioning is kept for comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "hybrid/perf_model.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

class NeighborList;

/// Measured Verlet amortization factor for the model's neighbor-rebuild
/// term: the list's mean_rebuild_interval() once it has observed at least
/// one rebuild, else `fallback` (the legacy static estimate).  Feed this to
/// tune_splitting / model_bd_step so the amortized overhead tracks the run
/// instead of the 256-step default.
double effective_rebuild_interval(const NeighborList& list,
                                  double fallback = 256.0);

/// Measured mean fraction of neighbor rows re-enumerated per rebuild
/// (NeighborList::mean_rebuild_fraction) once the list has rebuilt at least
/// once, else `fallback`.  1 without partial rebuilds; < 1 when cell-granular
/// partial rebuilds replace most full sweeps.  Feeds the rebuild_fraction
/// parameter of tune_splitting / model_bd_step.
double effective_rebuild_fraction(const NeighborList& list,
                                  double fallback = 1.0);

/// One device participating in the hybrid computation.  The model carries
/// the storage precision through its value_bytes term, so an FP32-store run
/// partitions and tunes against the halved value streams.
struct Device {
  PmePerfModel model;
  bool is_host = false;
};

/// A tuned hybrid operating point for one system size.
struct HybridPlan {
  double xi = 0.0;        ///< Ewald splitting chosen for load balance
  double rmax = 0.0;      ///< resulting real-space cutoff
  std::size_t mesh = 0;   ///< resulting PME mesh
  double t_real_host = 0.0;
  double t_recip_device = 0.0;  ///< reciprocal time on one accelerator (incl.
                                ///< transfer)
  double t_single = 0.0;  ///< modeled single-vector PME time (line 9)
};

/// Sweeps the real-space cutoff so that one real-space evaluation on the
/// host overlaps one reciprocal evaluation on the accelerator (paper's α
/// tuning).  The candidates are sweep_pme_cutoffs' — the (ξ, r_max, K)
/// that choose_pme_params pins for `ep_target` at each cutoff of its grid
/// (box in particle radii, a = 1) — priced by the overlapped step time.
/// The host real-space term includes the amortized cost of the persistent
/// near-field pipeline — one BCSR value refresh per mobility update (`lambda` steps) and one Verlet
/// rebuild per `rebuild_interval` steps — which grows with rmax and
/// therefore pulls the balanced ξ toward finer splittings; pass lambda = 0
/// (or a non-positive interval) for the legacy amortization-free model.  `symmetric` models the
/// half-stored near field (halved matrix stream pulls ξ back toward coarser
/// splittings); `rebuild_fraction` is the measured partial-rebuild row
/// fraction (effective_rebuild_fraction), shrinking the amortized rebuild
/// term.
HybridPlan tune_splitting(const Device& host, const Device& accelerator,
                          std::size_t n, double box, int order,
                          double ep_target, std::size_t lambda = 16,
                          double rebuild_interval = 256.0,
                          bool symmetric = false,
                          double rebuild_fraction = 1.0);

/// Static partition of `columns` reciprocal-space column tasks over the
/// devices, proportional to speed; returns per-device column counts
/// minimizing the makespan (paper's static partitioning for line 6).
std::vector<std::size_t> partition_columns(
    const std::vector<Device>& devices, std::size_t columns, std::size_t mesh,
    int order, std::size_t n);

/// Makespan of a given partition (seconds).
double partition_makespan(const std::vector<Device>& devices,
                          const std::vector<std::size_t>& counts,
                          std::size_t mesh, int order, std::size_t n);

/// Batch-aware static partition: each device processes its share of the
/// block as one batched sub-block (t_recip_block), so the marginal cost of
/// an extra column falls with the columns already owned (the P and
/// influence reads are amortized).  Greedy assignment by earliest finish.
std::vector<std::size_t> partition_columns_batched(
    const std::vector<Device>& devices, std::size_t columns, std::size_t mesh,
    int order, std::size_t n);

/// Makespan of a batch-aware partition (seconds): per device,
/// t_recip_block over its sub-block width plus per-column transfers.
double partition_makespan_batched(const std::vector<Device>& devices,
                                  const std::vector<std::size_t>& counts,
                                  std::size_t mesh, int order, std::size_t n);

/// Modeled per-step BD cost.  `krylov_iterations` block applies of width
/// `lambda` per mobility update, amortized over the lambda steps, plus one
/// single-vector apply per step.
struct BdStepModel {
  double cpu_only = 0.0;
  double hybrid = 0.0;
  double speedup() const { return hybrid > 0.0 ? cpu_only / hybrid : 0.0; }
};

/// The CPU-only cost is PmePerfModel::t_pme_step at the splitting the
/// driver runs for the tier: choose_pme_params (or, with `wavespace`,
/// choose_pme_params_wavespace) for `ep_target` and `order`, with the box in
/// particle radii (a = 1).  The hybrid cost balances host and accelerators
/// at tune_splitting's plan.  `rebuild_interval` is the measured (or
/// estimated) steps between Verlet list rebuilds, feeding the amortized
/// real-space pipeline overhead; a non-positive value disables the term.
/// `symmetric` and `rebuild_fraction` as in tune_splitting.  With
/// `wavespace`, the per-update Brownian sampling is modeled as the PSE split
/// instead of the full block-Krylov term: one t_wave_sample of width λ plus
/// `nearfield_iterations` near-field-only block SpMM sweeps (both on the
/// host — the far-field sample is not partitioned across accelerators).
BdStepModel model_bd_step(const Device& host,
                          const std::vector<Device>& accelerators,
                          std::size_t n, double box, int order,
                          double ep_target, std::size_t lambda,
                          int krylov_iterations,
                          double rebuild_interval = 256.0,
                          bool symmetric = false,
                          double rebuild_fraction = 1.0,
                          bool wavespace = false,
                          int nearfield_iterations = 0);

/// model_bd_step with the CPU-only splitting given (box and `split` in
/// particle radii): callers that price a tier repeatedly choose its
/// splitting once.  `split.order` is the spline order and
/// `split.brownian == BrownianMethod::wavespace` selects the wavespace
/// sampling term; `ep_target` feeds only the hybrid plan.
BdStepModel model_bd_step(const Device& host,
                          const std::vector<Device>& accelerators,
                          std::size_t n, double box, const PmeParams& split,
                          double ep_target, std::size_t lambda,
                          int krylov_iterations,
                          double rebuild_interval = 256.0,
                          bool symmetric = false,
                          double rebuild_fraction = 1.0,
                          int nearfield_iterations = 0);

/// Modeled per-step cost of the TEA tier (core/backend.hpp's TeaBackend):
/// one O(n²) single-vector apply per step plus the amortized setup sweep
/// and the width-λ sampling apply per mobility update.
double model_tea_step(const Device& host, std::size_t n, std::size_t lambda);

/// Modeled per-step cost of the dense Cholesky tier: one 3n×3n GEMV per
/// step plus the amortized Ewald assembly, Cholesky factorization, and the
/// width-λ triangular sampling solves per mobility update.
double model_dense_step(const Device& host, std::size_t n,
                        std::size_t lambda);

}  // namespace hbd
