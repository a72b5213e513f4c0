// Assembly of the sparse real-space Ewald operator M^real (paper Sec. IV-C):
// Beenakker real-space tensors between particle pairs within the cutoff
// r_max, found in linear time with Verlet cell lists and stored in BCSR
// format with 3×3 blocks.  Diagonal blocks carry the Ewald self term, so
// M̃ = M_real_sparse + M_recip(PME).  Overlapping pairs (r < 2a) include the
// ξ-independent Rotne–Prager overlap correction.
//
// M^real is symmetric (m_ij = m_jiᵀ), so the operator supports two storage
// modes: the classic full BCSR (both triangles, the bitwise-stable default)
// and symmetric half storage, which keeps only the i ≤ j blocks and applies
// each off-diagonal block and its transpose in one colored, deterministic
// pass — half the matrix traffic of the SpMV/SpMM kernels that bound
// throughput under the Eq. 10 model.
//
// Orthogonally to the storage mode, the block values can be held in FP32
// (Precision::fp32): blocks are still assembled in double and rounded once
// on store, and the product kernels accumulate in double, so only the
// streamed value bytes narrow — 40 B per block instead of 76 B.  The FP64
// default is bitwise identical to the historical operator.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/neighbor_list.hpp"
#include "common/precision.hpp"
#include "common/vec3.hpp"
#include "ewald/beenakker.hpp"
#include "ewald/kernel.hpp"
#include "linalg/dense_matrix.hpp"
#include "sparse/bcsr3.hpp"
#include "sparse/sym_bcsr3.hpp"

namespace hbd {

/// How the near-field BCSR operator is stored.
enum class NearFieldStorage {
  full,       ///< both triangles; straight row-parallel kernels
  symmetric,  ///< upper triangle only; colored transpose-accumulate kernels
};

/// Persistent real-space operator: owns (or shares) a skin-padded
/// NeighborList and a BCSR matrix whose sparsity pattern mirrors the list
/// plus the diagonal.  refresh(pos) revalidates the list and recomputes the
/// 3×3 blocks in place; when the list did not rebuild, only the values are
/// rewritten into the existing pattern — no staging containers and no
/// allocation after the first build.  After a full list rebuild the values
/// reuse the list's cached pair displacements, so pattern + values cost a
/// single geometry sweep.  Listed pairs in the skin shell
/// (r_max < r ≤ r_max + skin) hold zero blocks, so the operator is exactly
/// the bare-cutoff sum while the pattern survives sub-threshold motion.
class RealspaceOperator {
 public:
  /// Owns a private NeighborList with the given skin (0: pattern rebuilt on
  /// any motion, matrix identical to the one-shot build).  `kernel` picks
  /// the Ewald split: Beenakker's (default) or the positively-split PSE
  /// variant, whose pair/self terms subtract the tabulated Δ(r) correction
  /// (PseRealDelta) so both Ewald halves stay positive semidefinite.
  RealspaceOperator(double box, double radius, double xi, double rmax,
                    double skin = 0.0,
                    NearFieldStorage storage = NearFieldStorage::full,
                    Precision precision = Precision::fp64,
                    EwaldKernel kernel = EwaldKernel::beenakker);

  /// Shares `neighbors` with other consumers (steric forces, diagnostics).
  /// Its cutoff must be ≥ rmax and its box must match.
  RealspaceOperator(double box, double radius, double xi, double rmax,
                    std::shared_ptr<NeighborList> neighbors,
                    NearFieldStorage storage = NearFieldStorage::full,
                    Precision precision = Precision::fp64,
                    EwaldKernel kernel = EwaldKernel::beenakker);

  /// Revalidates the neighbor list for `pos` and recomputes the matrix
  /// values in place (pattern rebuilt only when the list rebuilt).
  void refresh(std::span<const Vec3> pos);

  NearFieldStorage storage() const { return storage_; }
  Precision precision() const { return precision_; }
  EwaldKernel kernel() const { return kernel_; }

  /// u = M_real f (includes the self term); storage-mode dispatching.
  void apply(std::span<const double> f, std::span<double> u) const;
  /// U = M_real F for row-major 3n×s blocks.
  void apply_block(const Matrix& f, Matrix& u) const;

  /// Full-stored matrix — valid in full/fp64 mode only.
  const Bcsr3Matrix& matrix() const;
  /// Half-stored matrix — valid in symmetric/fp64 mode only.
  const SymBcsr3Matrix& sym_matrix() const;
  /// Full-stored FP32 matrix — valid in full/fp32 mode only.
  const Bcsr3MatrixF& matrix_f() const;
  /// Half-stored FP32 matrix — valid in symmetric/fp32 mode only.
  const SymBcsr3MatrixF& sym_matrix_f() const;

  /// Extracts a full-stored FP64 copy of the operator, consuming *this.
  /// Both storage modes round-trip (symmetric storage mirrors its upper
  /// blocks); fp32 values are widened exactly.
  Bcsr3Matrix take_matrix() &&;

  /// Dense 3n×3n copy for testing, either storage mode.
  Matrix to_dense() const;

  /// Blocks of the logical operator (what a full-stored matrix would hold).
  std::size_t logical_nnz_blocks() const;
  /// Blocks physically stored (half of the off-diagonal in symmetric mode).
  std::size_t stored_nnz_blocks() const;
  /// Resident bytes of the stored matrix (values + column indices).
  std::size_t bytes() const {
    return stored_nnz_blocks() *
           (9 * value_bytes(precision_) + sizeof(std::uint32_t));
  }

  const NeighborList& neighbors() const { return *neighbors_; }
  NeighborList& neighbors() { return *neighbors_; }
  const std::shared_ptr<NeighborList>& shared_neighbors() const {
    return neighbors_;
  }
  double rmax() const { return rmax_; }
  /// Number of sparsity-pattern (re)builds — value-only refreshes excluded.
  std::size_t pattern_builds() const { return pattern_builds_; }
  /// Total refresh(pos) calls — with pattern_builds() this yields the
  /// pattern-reuse ratio the near-field telemetry reports.
  std::size_t value_refreshes() const { return value_refreshes_; }

 private:
  void rebuild_pattern();
  void refresh_values(std::span<const Vec3> pos);
  template <class Real>
  void rebuild_pattern_for(Bcsr3MatrixT<Real>& full, SymBcsr3MatrixT<Real>& sym);
  template <class Real>
  void refresh_values_for(std::span<const Vec3> pos, Bcsr3MatrixT<Real>& full,
                          SymBcsr3MatrixT<Real>& sym);
  /// Computes the 3×3 block for one pair at displacement rij (r2 = |rij|²),
  /// or zero when the pair lies in the skin shell.
  void pair_block(const Vec3& rij, double r2, double* b) const;

  double box_, radius_, xi_, rmax_;
  NearFieldStorage storage_;
  Precision precision_;
  EwaldKernel kernel_;
  PseRealDelta pse_delta_;  // populated for EwaldKernel::pse only
  std::shared_ptr<NeighborList> neighbors_;
  Bcsr3Matrix matrix_;      // full / fp64
  SymBcsr3Matrix sym_;      // symmetric / fp64
  Bcsr3MatrixF matrix_f_;   // full / fp32
  SymBcsr3MatrixF sym_f_;   // symmetric / fp32
  std::vector<std::size_t> row_counts_;   // pattern-build scratch
  std::uint64_t pattern_generation_ = 0;  // neighbors_->build_count() mirrored
  std::size_t pattern_builds_ = 0;
  std::size_t value_refreshes_ = 0;
};

/// Builds the sparse real-space operator for particles at `pos` in a cubic
/// periodic box of width `box`.  Requires rmax ≤ box/2 (minimum image).
/// One-shot convenience over RealspaceOperator (skin 0) — also the
/// from-scratch reference the refresh path is tested against.
Bcsr3Matrix build_realspace_operator(std::span<const Vec3> pos, double box,
                                     double radius, double xi, double rmax);

}  // namespace hbd
