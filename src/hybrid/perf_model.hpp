// Analytic performance model of the PME phases (paper Sec. IV-D, Eq. 10–11)
// and hardware parameter sets (paper Table I).
//
// This environment has no Intel Xeon Phi (and a single CPU core), so the
// cross-architecture comparisons of the paper (Figs. 6 and 9) are reproduced
// through this model — the same model the paper validates against
// measurement in Fig. 5.  Bandwidth-bound phases are modeled by memory
// traffic / STREAM bandwidth; the FFTs by flop counts over an achievable
// FFT rate with a size-dependent efficiency curve (KNC's MKL FFT was
// notoriously inefficient at small sizes, particularly the inverse
// transform — the paper reports exactly that).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "ewald/beenakker.hpp"

namespace hbd {

/// Architectural parameters (paper Table I plus modeling knobs).
struct HardwareParams {
  std::string name;
  double peak_dp_gflops;   ///< double-precision peak
  double stream_bw_gbs;    ///< sustainable memory bandwidth
  double fft_eff_max;      ///< asymptotic fraction of peak reached by FFTs
  double fft_eff_k0;       ///< mesh size where FFT efficiency is half of max
  double ifft_penalty;     ///< multiplier (<1) on inverse-FFT throughput
  double pcie_bw_gbs;      ///< offload transfer bandwidth (0: host device)
  double memory_gb;        ///< device memory capacity
  /// Optional measured (K, flop-rate) samples for one 3-D transform; when
  /// non-empty they override the efficiency curve (log-log interpolation).
  /// Used by the host calibration, where the single-transform rate need not
  /// follow the saturating model of the reference architectures.
  std::vector<std::pair<double, double>> fft_rate_points;
};

/// Dual-socket Intel Xeon X5680 (Westmere-EP): 12 cores @ 3.33 GHz,
/// 160 DP GFlop/s, ~42 GB/s STREAM, 24 GB.
HardwareParams westmere_ep();

/// Intel Xeon Phi (KNC): 61 cores, 1074 DP GFlop/s, ~160 GB/s STREAM, 8 GB,
/// PCIe-attached.
HardwareParams xeon_phi_knc();

/// The run shape the PME-tier step cost is priced at: one mobility update
/// (a width-λ Brownian block) per λ steps, sampled either by
/// `krylov_iterations` full block applies (block Lanczos) or, with
/// `wavespace`, by one wave-space sample plus `nearfield_iterations`
/// near-field-only block sweeps; the near-field structures are refreshed
/// once per update and re-enumerated every `rebuild_interval` steps
/// (non-positive: no amortized overhead) over `rebuild_fraction` of the
/// rows.  `symmetric` prices the half-stored near field.
struct PmeStepShape {
  std::size_t lambda = 16;
  int krylov_iterations = 6;
  double rebuild_interval = 256.0;
  bool symmetric = false;
  double rebuild_fraction = 1.0;
  bool wavespace = false;
  int nearfield_iterations = 0;
};

/// Per-phase execution-time model of one reciprocal-space PME application.
///
/// `value_bytes` is the storage width of the near-field block values and the
/// interpolation weights (sizeof(Real)): 8 for FP64 storage, 4 for the FP32
/// storage mode.  It scales the value streams of the bandwidth-bound terms —
/// the mesh, spectra, and particle vectors stay FP64 regardless.
class PmePerfModel {
 public:
  explicit PmePerfModel(HardwareParams hw, double value_bytes = 8.0)
      : hw_(std::move(hw)), vb_(value_bytes) {}

  const HardwareParams& hardware() const { return hw_; }
  double value_bytes() const { return vb_; }

  // --- Phase times in seconds (K = mesh, p = order, n = particles) --------
  /// (24 K³ + (28 + vb) p³ n) bytes over STREAM bandwidth — per P nonzero a
  /// 4 B index, one vb-byte weight, and a 24 B read-modify-write of the
  /// three mesh components (36 p³ n at vb = 8).
  double t_spreading(std::size_t mesh, int order, std::size_t n) const;
  /// 3 forward FFTs: 3·2.5·K³·log2(K³) flops at the achievable FFT rate.
  double t_fft(std::size_t mesh) const;
  /// 3 inverse FFTs (separate rate: the paper models P_FFT and P_IFFT
  /// independently).
  double t_ifft(std::size_t mesh) const;
  /// (8·K³/2 + 48·K³) bytes over STREAM bandwidth (scalar influence plus
  /// in-place update of the three half spectra).
  double t_influence(std::size_t mesh) const;
  /// (28 + vb) p³ n bytes over STREAM bandwidth.
  double t_interpolation(int order, std::size_t n) const;

  /// Eq. 10: total reciprocal-space time.
  double t_recip(std::size_t mesh, int order, std::size_t n) const;

  // --- Batched multi-RHS terms (Sec. IV-D extended) -----------------------
  // One batched block apply of width s replaces s single sweeps; the terms
  // below reflect that the interpolation weights P ((4 + vb) p³ n bytes)
  // and the scalar influence table (8·K³/2 bytes) are read once per block
  // instead of s times, while the mesh/spectrum streams still scale with s.
  /// (24 s K³ + (4 + vb + 24 s) p³ n) bytes over STREAM bandwidth.
  double t_spreading_block(std::size_t mesh, int order, std::size_t n,
                           std::size_t s) const;
  /// 3s forward FFTs (flops scale linearly with the batch).
  double t_fft_block(std::size_t mesh, std::size_t s) const;
  double t_ifft_block(std::size_t mesh, std::size_t s) const;
  /// (8·K³/2 + 48 s K³) bytes over STREAM bandwidth: the scalar table is
  /// loaded once for all s column spectra.
  double t_influence_block(std::size_t mesh, std::size_t s) const;
  /// (4 + vb + 24 s) p³ n bytes over STREAM bandwidth.
  double t_interpolation_block(int order, std::size_t n, std::size_t s) const;
  /// Total batched reciprocal-space time for a width-s block; reduces to
  /// t_recip at s = 1.
  double t_recip_block(std::size_t mesh, int order, std::size_t n,
                       std::size_t s) const;

  /// One wave-space far-field Brownian sample of a width-s block (PSE
  /// split): the mesh-noise Gaussian fill (24·s·K³ bytes written, ~40 flops
  /// per variate), the m^{1/2} scaling pass (same traffic as the batched
  /// influence), the 3s inverse transforms, and the batched interpolation.
  /// No spreading and no forward transforms — roughly half a
  /// t_recip_block.
  double t_wave_sample(std::size_t mesh, int order, std::size_t n,
                       std::size_t s) const;

  /// Real-space SpMV time: BCSR traffic (9·vb + 4 B per 3×3 block plus the
  /// vectors) over bandwidth, with `neighbors` = average near-field
  /// neighbors per particle.  With `symmetric` the matrix keeps only the
  /// i ≤ j blocks — half the off-diagonal stream — while the output vector
  /// is read back for the transpose scatter (72 B/particle of vector
  /// traffic instead of 48 B); the flop count is unchanged (every logical
  /// block is still applied).
  double t_realspace(std::size_t n, double neighbors,
                     bool symmetric = false) const;

  /// Multi-vector BCSR product over a width-s block: the matrix streams
  /// once while the s vector pairs stream per column; the flop count scales
  /// linearly with s.  Reduces to t_realspace at s = 1.  `symmetric` halves
  /// the matrix stream as in t_realspace.
  double t_realspace_block(std::size_t n, double neighbors, std::size_t s,
                           bool symmetric = false) const;

  /// In-place value refresh of the near-field BCSR matrix (one per mobility
  /// update): streams the fixed pattern (9·vb B/block value write plus the
  /// column indices and positions) and evaluates the
  /// erfc/exp Beenakker pair tensor per block (~200 flops) — the flop term
  /// dominates on flop-rich hardware, the value stream on bandwidth-bound.
  double t_realspace_assembly(std::size_t n, double neighbors) const;

  /// Skin-padded Verlet neighbor-list rebuild: counting-sort binning plus
  /// the 27-cell candidate sweep (≈ 27/(4π/3) ≈ 6.45 candidate distances
  /// per stored neighbor, ~20 flops each) and the CSR fill/sort traffic.
  /// `fraction` scales the candidate sweep and row fill to the rows
  /// actually re-enumerated (partial rebuilds); binning stays O(n).
  double t_neighbor_rebuild(std::size_t n, double neighbors,
                            double fraction = 1.0) const;

  /// Amortized per-step overhead of the persistent real-space pipeline: one
  /// value refresh per mobility update (λ steps) plus one neighbor rebuild
  /// per `rebuild_interval` steps (the list's measured
  /// mean_rebuild_interval, or an estimate skin/(2·max step)).  Zero when
  /// either interval is unset — the pre-persistent model is the λ → ∞,
  /// interval → ∞ limit.  `rebuild_fraction` is the mean fraction of rows
  /// re-enumerated per rebuild (NeighborList::mean_rebuild_fraction): 1 for
  /// full rebuilds, < 1 when cell-granular partial rebuilds are on — it
  /// scales the enumeration term of the rebuild cost (binning is O(n)
  /// either way).
  double t_realspace_overhead(std::size_t n, double neighbors,
                              std::size_t lambda, double rebuild_interval,
                              double rebuild_fraction = 1.0) const;

  /// Average neighbor count for cutoff rmax in a box of width L.
  static double mean_neighbors(std::size_t n, double rmax, double box);

  /// Host-only seconds per BD step of a PME tier at the splitting
  /// (rmax, mesh, order): one single-vector apply (Alg. 2 line 9), the
  /// per-update Brownian sampling of `shape` amortized over its λ steps,
  /// and the amortized near-field refresh and neighbor rebuild.  The block
  /// terms reflect the batched reciprocal pipeline (P and influence read
  /// once per block) and the multi-vector SpMM that reads the matrix once.
  double t_pme_step(std::size_t n, double box, double rmax, std::size_t mesh,
                    int order, const PmeStepShape& shape) const;

  /// PCIe round trip for offloading one force vector and fetching one
  /// velocity vector (2·24n bytes).
  double t_offload_transfer(std::size_t n) const;

  /// Eq. 11: resident bytes of the reciprocal-space data.  `value_bytes`
  /// sizes the stored interpolation weights ((4 + vb) p³ n term).
  static double bytes_recip(std::size_t mesh, int order, std::size_t n,
                            double value_bytes = 8.0);

  /// Dense-BD model for Fig. 7: memory of the 3n×3n matrix (+ factor), and
  /// times of Ewald construction and Cholesky on this hardware.
  static double bytes_dense(std::size_t n);
  double t_cholesky(std::size_t n) const;

  // --- Fidelity-tier terms (core/backend.hpp's TierPolicy) ----------------
  /// TEA tier (Geyer–Winter, arXiv:0801.3212): one dense sweep of the
  /// assembled (3n)² periodic mobility applying the truncated-expansion
  /// square root to a width-s block — max(matrix traffic, 2-flop floor).
  double t_tea_apply(std::size_t n, std::size_t s) const;
  /// TEA per-mobility-update setup: the direct-Ewald assembly of D at the
  /// loose tier parameters `p` (t_dense_assembly) plus the S_r/ε̄/β row
  /// sweep over the assembled matrix.
  double t_tea_setup(std::size_t n, const EwaldParams& p, double box) const;
  /// Dense tier: one 3n×3n GEMV over STREAM bandwidth (the matrix streams
  /// once; triangular solves of the Cholesky sampler stream half of it).
  double t_dense_apply(std::size_t n) const;
  /// Direct-Ewald assembly (ewald_mobility_dense) with parameters `p` in a
  /// box of width `box`: n²/2 pair blocks, each summing the real-space
  /// images inside rcut (erfc/exp per image) and the half-space wave
  /// vectors (8 FMAs each against the per-particle structure factors),
  /// plus n·N_k sin/cos for those factors — flop-bound against writing the
  /// (3n)² matrix.
  double t_dense_assembly(std::size_t n, const EwaldParams& p,
                          double box) const;

 private:
  double fft_rate(std::size_t mesh) const;

  HardwareParams hw_;
  double vb_ = 8.0;  ///< sizeof(Real) of block values / interp weights
};

}  // namespace hbd
