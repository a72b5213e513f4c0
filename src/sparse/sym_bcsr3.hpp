// Symmetric half-stored block CSR with 3×3 blocks — the storage format for
// the real-space Ewald operator M^real exploiting m_ij = m_jiᵀ (paper
// Sec. IV-C).  Only blocks with block row i ≤ block column j are kept, so
// the SpMV/SpMM kernels stream half the matrix bytes of the full-stored
// Bcsr3Matrix while producing the full product: each off-diagonal block is
// applied once forward (into y_i) and once transposed (into y_j) in the
// same pass.
//
// The transpose scatter makes rows race: two rows sharing a column would
// both accumulate into the same y_j.  finalize_pattern() therefore greedily
// colors the block rows so that rows within one color have disjoint write
// sets W(i) = {i} ∪ cols(i); the kernels process colors sequentially and
// rows of a color in parallel.  Because at most one row per color touches
// any y_j and colors execute in a fixed order, the floating-point
// accumulation order is a function of the pattern alone — results are
// bitwise identical for any thread count.
//
// Like Bcsr3MatrixT, the container is templated over the stored value type:
// SymBcsr3MatrixT<float> halves the value stream while every accumulator
// stays double.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "linalg/dense_matrix.hpp"
#include "sparse/bcsr3.hpp"

namespace hbd {

/// Sparse symmetric matrix of 3×3 blocks over an n×n block grid, storing
/// only the upper triangle (block col ≥ block row).
template <class Real>
class SymBcsr3MatrixT {
 public:
  SymBcsr3MatrixT() = default;

  /// Assembles from per-row upper-triangle block lists: `block_cols[i]`
  /// must only contain columns ≥ i (need not be sorted) and `blocks[i][k]`
  /// the 9 row-major entries.  Diagonal blocks must be symmetric for the
  /// logical matrix to be symmetric (not checked).
  static SymBcsr3MatrixT from_blocks(
      std::size_t nblock,
      const std::vector<std::vector<std::uint32_t>>& block_cols,
      const std::vector<std::vector<std::array<double, 9>>>& blocks);

  std::size_t block_rows() const { return nblock_; }
  std::size_t rows() const { return 3 * nblock_; }
  /// Physically stored blocks (upper triangle only).
  std::size_t stored_blocks() const { return col_idx_.size(); }
  /// Blocks of the logical (full) matrix the storage represents.
  std::size_t logical_blocks() const {
    return 2 * col_idx_.size() - diag_blocks_;
  }
  /// Colors of the row schedule (0 until finalize_pattern()).
  std::size_t num_colors() const {
    return color_ptr_.empty() ? 0 : color_ptr_.size() - 1;
  }

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  /// Stored block values in *schedule* order: rows appear in the order the
  /// colored multiply visits them (colors in sequence), so the kernels
  /// stream this array front to back and the hardware prefetcher stays
  /// engaged — in CSR row order the color interleave would turn the
  /// dominant value stream into scattered ~600 B reads.  Block t of row i
  /// lives at 9*(phys_row_start()[i] + t - row_ptr()[i]); within a row
  /// blocks keep their CSR (ascending-column) order.
  std::span<const Real> values() const {
    return {values_.data(), 9 * col_idx_.size()};
  }
  /// Physical start (in blocks, into values()) of each block row.
  std::span<const std::size_t> phys_row_start() const { return prow_; }

  /// Color schedule: rows of color c are
  /// color_rows()[color_ptr()[c] .. color_ptr()[c+1]), ascending.  Rows of
  /// one color have pairwise disjoint write sets (tested invariant).
  std::span<const std::size_t> color_ptr() const { return color_ptr_; }
  std::span<const std::uint32_t> color_rows() const { return color_rows_; }

  /// Reshapes to hold `row_counts[i]` upper-triangle blocks in block row i,
  /// reusing existing storage (no allocation when the new pattern fits).
  /// Write column indices through col_idx_mut() — ascending, all ≥ their
  /// row — then call finalize_pattern() to rebuild the color schedule
  /// before any multiply; values start zeroed (values_mut()).
  void resize_pattern(std::size_t nblock,
                      std::span<const std::size_t> row_counts);
  std::span<std::uint32_t> col_idx_mut() {
    return {col_idx_.data(), col_idx_.size()};
  }
  std::span<Real> values_mut() {
    return {values_.data(), 9 * col_idx_.size()};
  }

  /// Validates the written pattern (sorted upper-triangle columns) and
  /// rebuilds the greedy row coloring.  Must be called after resize_pattern +
  /// column writes and before multiply()/multiply_block().
  void finalize_pattern();

  /// y = A x for one interleaved vector, A the full symmetric operator.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Y = A X for row-major 3n×s blocks of vectors (layout as Bcsr3Matrix).
  void multiply_block(const Matrix& x, Matrix& y) const;

  /// Dense 3n×3n copy of the full operator, for testing.
  Matrix to_dense() const;

  /// Full-stored copy (both triangles) — the take_matrix() interop path.
  Bcsr3MatrixT<Real> to_full() const;

 private:
  std::size_t nblock_ = 0;
  std::size_t diag_blocks_ = 0;
  std::vector<std::size_t> row_ptr_;       // per block row
  aligned_vector<std::uint32_t> col_idx_;  // block cols, ascending, ≥ row
  aligned_vector<Real> values_;            // 9 per block, schedule-ordered
  std::vector<std::size_t> prow_;          // physical row starts in values_
  bool values_stale_ = false;              // values_ zeroed, skip relayout

  // Color schedule: rows grouped by color, colors executed in order.
  std::vector<std::size_t> color_ptr_;     // per color into color_rows_
  std::vector<std::uint32_t> color_rows_;  // rows, ascending within a color

  // Zeroed slack elements kept after the last block so the FP32 SpMV kernel
  // may load each 3-value block row with a 4-wide vector load (the read
  // past b[8] lands in the next block or this padding, never out of
  // bounds).  values()/values_mut() spans exclude it.
  static constexpr std::size_t kValuePad = 8;

  // Coloring scratch, reused across finalize_pattern() calls: CSC transpose
  // of the upper pattern (writers of each column) and stamp-based forbidden
  // color marks.
  std::vector<std::uint32_t> row_color_;
  std::vector<std::size_t> csc_ptr_;       // per column into csc_rows_
  std::vector<std::uint32_t> csc_rows_;    // rows listing each column
  std::vector<std::uint32_t> color_stamp_; // per color: last row that
                                           // forbade it (stamp = row + 1)
};

extern template class SymBcsr3MatrixT<double>;
extern template class SymBcsr3MatrixT<float>;

using SymBcsr3Matrix = SymBcsr3MatrixT<double>;   // historical FP64 format
using SymBcsr3MatrixF = SymBcsr3MatrixT<float>;   // mixed-precision storage

}  // namespace hbd
