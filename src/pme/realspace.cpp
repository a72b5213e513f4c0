#include "pme/realspace.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "ewald/beenakker.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

RealspaceOperator::RealspaceOperator(double box, double radius, double xi,
                                     double rmax, double skin,
                                     NearFieldStorage storage,
                                     Precision precision,
                                     EwaldKernel kernel)
    : RealspaceOperator(box, radius, xi, rmax,
                        std::make_shared<NeighborList>(box, rmax, skin),
                        storage, precision, kernel) {}

RealspaceOperator::RealspaceOperator(double box, double radius, double xi,
                                     double rmax,
                                     std::shared_ptr<NeighborList> neighbors,
                                     NearFieldStorage storage,
                                     Precision precision,
                                     EwaldKernel kernel)
    : box_(box),
      radius_(radius),
      xi_(xi),
      rmax_(rmax),
      storage_(storage),
      precision_(precision),
      kernel_(kernel),
      neighbors_(std::move(neighbors)) {
  HBD_CHECK_MSG(rmax <= 0.5 * box,
                "real-space cutoff must not exceed half the box width");
  HBD_CHECK(neighbors_ != nullptr);
  HBD_CHECK_MSG(neighbors_->box() == box && neighbors_->cutoff() >= rmax,
                "shared neighbor list does not cover the real-space cutoff");
  // The Δ table depends only on (a, ξ, rmax): built once, reused by every
  // value refresh.
  if (kernel_ == EwaldKernel::pse)
    pse_delta_ = PseRealDelta(radius, xi, rmax);
}

void RealspaceOperator::refresh(std::span<const Vec3> pos) {
  HBD_TRACE_SCOPE("realspace.refresh");
  {
    HBD_TRACE_SCOPE("realspace.neighbor");
    neighbors_->update(pos);
  }
  if (neighbors_->build_count() != pattern_generation_) {
    HBD_TRACE_SCOPE("realspace.pattern");
    rebuild_pattern();
    pattern_generation_ = neighbors_->build_count();
    HBD_GAUGE_SET("realspace.nnz_blocks", logical_nnz_blocks());
    HBD_GAUGE_SET("realspace.stored_blocks", stored_nnz_blocks());
  }
  {
    HBD_TRACE_SCOPE("realspace.values");
    refresh_values(pos);
  }
  ++value_refreshes_;
  // Pattern-reuse ratio: value refreshes amortized per pattern build, the
  // near-field analogue of the list's rebuild interval.
  if (pattern_builds_ > 0)
    HBD_GAUGE_SET("realspace.pattern_reuse",
                  static_cast<double>(value_refreshes_) /
                      static_cast<double>(pattern_builds_));
}

void RealspaceOperator::rebuild_pattern() {
  if (precision_ == Precision::fp32)
    rebuild_pattern_for(matrix_f_, sym_f_);
  else
    rebuild_pattern_for(matrix_, sym_);
  ++pattern_builds_;
  HBD_COUNTER_ADD("realspace.pattern_builds", 1);
}

template <class Real>
void RealspaceOperator::rebuild_pattern_for(Bcsr3MatrixT<Real>& full,
                                            SymBcsr3MatrixT<Real>& sym) {
  const std::size_t n = neighbors_->particles();
  const auto list_ptr = neighbors_->row_ptr();
  const auto list_cols = neighbors_->cols();
  const bool symmetric = storage_ == NearFieldStorage::symmetric;

  row_counts_.resize(n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    if (symmetric) {
      // Upper triangle only: the diagonal plus the j > i suffix of the
      // (sorted) list row.
      const auto row = list_cols.subspan(list_ptr[i],
                                         list_ptr[i + 1] - list_ptr[i]);
      const auto split = std::upper_bound(row.begin(), row.end(),
                                          static_cast<std::uint32_t>(i));
      row_counts_[i] = 1 + static_cast<std::size_t>(row.end() - split);
    } else {
      row_counts_[i] = list_ptr[i + 1] - list_ptr[i] + 1;  // + diagonal
    }
  }

  if (symmetric) {
    sym.resize_pattern(n, row_counts_);
    const auto mat_ptr = sym.row_ptr();
    auto mat_cols = sym.col_idx_mut();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t t = mat_ptr[i];
      mat_cols[t++] = static_cast<std::uint32_t>(i);
      std::size_t s = list_ptr[i + 1] - (mat_ptr[i + 1] - mat_ptr[i] - 1);
      while (s < list_ptr[i + 1]) mat_cols[t++] = list_cols[s++];
    }
    sym.finalize_pattern();
  } else {
    full.resize_pattern(n, row_counts_);
    // Merge the diagonal into each row's (already sorted) neighbor columns.
    const auto mat_ptr = full.row_ptr();
    auto mat_cols = full.col_idx_mut();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t t = mat_ptr[i];
      std::size_t s = list_ptr[i];
      const std::uint32_t diag = static_cast<std::uint32_t>(i);
      while (s < list_ptr[i + 1] && list_cols[s] < diag)
        mat_cols[t++] = list_cols[s++];
      mat_cols[t++] = diag;
      while (s < list_ptr[i + 1]) mat_cols[t++] = list_cols[s++];
    }
  }
}

void RealspaceOperator::pair_block(const Vec3& rij, double r2,
                                   double* b) const {
  if (r2 > rmax_ * rmax_) {
    // Skin-shell pair: listed for pattern stability, contributes 0.
    for (int k = 0; k < 9; ++k) b[k] = 0.0;
    return;
  }
  const double r = std::sqrt(r2);
  PairCoeffs c = beenakker_real(r, radius_, xi_);
  if (r < 2.0 * radius_) {
    const PairCoeffs corr = rpy_overlap_correction(r, radius_);
    c.f += corr.f;
    c.g += corr.g;
  }
  if (kernel_ == EwaldKernel::pse) {
    // Positively-split kernel: the sinc² mass moved into the wave scalar is
    // subtracted here so the total operator is unchanged.
    const PairCoeffs d = pse_delta_.delta(r);
    c.f -= d.f;
    c.g -= d.g;
  }
  pair_tensor(rij, c, b);
}

void RealspaceOperator::refresh_values(std::span<const Vec3> pos) {
  if (precision_ == Precision::fp32)
    refresh_values_for(pos, matrix_f_, sym_f_);
  else
    refresh_values_for(pos, matrix_, sym_);
}

template <class Real>
void RealspaceOperator::refresh_values_for(std::span<const Vec3> pos,
                                           Bcsr3MatrixT<Real>& full,
                                           SymBcsr3MatrixT<Real>& sym) {
  const std::size_t n = neighbors_->particles();
  const double self =
      beenakker_self(radius_, xi_) -
      (kernel_ == EwaldKernel::pse ? pse_delta_.self_delta() : 0.0);
  const bool symmetric = storage_ == NearFieldStorage::symmetric;
  const auto mat_ptr = symmetric ? sym.row_ptr() : full.row_ptr();
  const auto mat_cols = symmetric
                            ? sym.col_idx()
                            : std::span<const std::uint32_t>(full.col_idx());
  auto values = symmetric ? sym.values_mut() : full.values_mut();
  // The symmetric container keeps values in schedule order (see
  // SymBcsr3MatrixT::values()); writes go through its physical row starts.
  const auto prow = sym.phys_row_start();

  // Fused fast path: immediately after a full list rebuild the list's
  // cached displacements are exactly minimum_image(pos_i, pos_j), so the
  // value pass performs no geometry — pattern + values from one sweep.
  // (Identical bitwise either way; minimum_image is deterministic.)
  const bool cached =
      neighbors_->last_rebuild() == NeighborList::Rebuild::full;
  const auto list_ptr = neighbors_->row_ptr();
  const auto list_cols = neighbors_->cols();
  const auto list_rij = neighbors_->pair_displacements();

#pragma omp parallel for schedule(dynamic, 32)
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 pi = pos[i];
    // List cursor aligned with the matrix row: the matrix row is the list
    // row with the diagonal merged in (symmetric mode keeps only the j > i
    // suffix), so non-diagonal matrix slots map to consecutive list slots.
    std::size_t s = list_ptr[i];
    if (symmetric) s = list_ptr[i + 1] - (mat_ptr[i + 1] - mat_ptr[i] - 1);
    for (std::size_t t = mat_ptr[i]; t < mat_ptr[i + 1]; ++t) {
      // Blocks are assembled in double and rounded once on store, so the
      // fp32 matrix holds the correctly-rounded fp64 assembly.
      double blk[9];
      const std::size_t j = mat_cols[t];
      if (j == i) {
        // Diagonal: the Ewald self term.
        blk[0] = self;
        blk[1] = blk[2] = blk[3] = 0.0;
        blk[4] = self;
        blk[5] = blk[6] = blk[7] = 0.0;
        blk[8] = self;
      } else if (cached) {
        const Vec3 rij = list_rij[s];
        pair_block(rij, norm2(rij), blk);
        ++s;
      } else {
        const Vec3 rij = minimum_image(pi, pos[j], box_);
        pair_block(rij, norm2(rij), blk);
        ++s;
      }
      const std::size_t p = symmetric ? prow[i] + (t - mat_ptr[i]) : t;
      for (int q = 0; q < 9; ++q)
        values[9 * p + q] = static_cast<Real>(blk[q]);
    }
  }
}

void RealspaceOperator::apply(std::span<const double> f,
                              std::span<double> u) const {
  if (storage_ == NearFieldStorage::symmetric) {
    if (precision_ == Precision::fp32)
      sym_f_.multiply(f, u);
    else
      sym_.multiply(f, u);
  } else {
    if (precision_ == Precision::fp32)
      matrix_f_.multiply(f, u);
    else
      matrix_.multiply(f, u);
  }
}

void RealspaceOperator::apply_block(const Matrix& f, Matrix& u) const {
  if (storage_ == NearFieldStorage::symmetric) {
    if (precision_ == Precision::fp32)
      sym_f_.multiply_block(f, u);
    else
      sym_.multiply_block(f, u);
  } else {
    if (precision_ == Precision::fp32)
      matrix_f_.multiply_block(f, u);
    else
      matrix_.multiply_block(f, u);
  }
}

const Bcsr3Matrix& RealspaceOperator::matrix() const {
  HBD_CHECK_MSG(
      storage_ == NearFieldStorage::full && precision_ == Precision::fp64,
      "matrix() requires full fp64 storage; use sym_matrix()/matrix_f()");
  return matrix_;
}

const SymBcsr3Matrix& RealspaceOperator::sym_matrix() const {
  HBD_CHECK_MSG(
      storage_ == NearFieldStorage::symmetric && precision_ == Precision::fp64,
      "sym_matrix() requires symmetric fp64 storage");
  return sym_;
}

const Bcsr3MatrixF& RealspaceOperator::matrix_f() const {
  HBD_CHECK_MSG(
      storage_ == NearFieldStorage::full && precision_ == Precision::fp32,
      "matrix_f() requires full fp32 storage");
  return matrix_f_;
}

const SymBcsr3MatrixF& RealspaceOperator::sym_matrix_f() const {
  HBD_CHECK_MSG(
      storage_ == NearFieldStorage::symmetric && precision_ == Precision::fp32,
      "sym_matrix_f() requires symmetric fp32 storage");
  return sym_f_;
}

namespace {
// Exact widening of an fp32 full-stored matrix for the take_matrix() interop
// path (float → double conversion is value-preserving).
Bcsr3Matrix widen(const Bcsr3MatrixF& m) {
  const std::size_t n = m.block_rows();
  std::vector<std::vector<std::uint32_t>> cols(n);
  std::vector<std::vector<std::array<double, 9>>> blocks(n);
  const auto row_ptr = m.row_ptr();
  const auto col_idx = m.col_idx();
  const auto vals = m.values();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
      cols[i].push_back(col_idx[t]);
      std::array<double, 9> blk;
      for (int q = 0; q < 9; ++q) blk[q] = static_cast<double>(vals[9 * t + q]);
      blocks[i].push_back(blk);
    }
  }
  return Bcsr3Matrix::from_blocks(n, cols, blocks);
}
}  // namespace

Bcsr3Matrix RealspaceOperator::take_matrix() && {
  if (precision_ == Precision::fp32) {
    if (storage_ == NearFieldStorage::symmetric) return widen(sym_f_.to_full());
    return widen(matrix_f_);
  }
  if (storage_ == NearFieldStorage::symmetric) return sym_.to_full();
  return std::move(matrix_);
}

Matrix RealspaceOperator::to_dense() const {
  if (precision_ == Precision::fp32)
    return storage_ == NearFieldStorage::symmetric ? sym_f_.to_dense()
                                                   : matrix_f_.to_dense();
  return storage_ == NearFieldStorage::symmetric ? sym_.to_dense()
                                                 : matrix_.to_dense();
}

std::size_t RealspaceOperator::logical_nnz_blocks() const {
  if (precision_ == Precision::fp32)
    return storage_ == NearFieldStorage::symmetric ? sym_f_.logical_blocks()
                                                   : matrix_f_.nnz_blocks();
  return storage_ == NearFieldStorage::symmetric ? sym_.logical_blocks()
                                                 : matrix_.nnz_blocks();
}

std::size_t RealspaceOperator::stored_nnz_blocks() const {
  if (precision_ == Precision::fp32)
    return storage_ == NearFieldStorage::symmetric ? sym_f_.stored_blocks()
                                                   : matrix_f_.nnz_blocks();
  return storage_ == NearFieldStorage::symmetric ? sym_.stored_blocks()
                                                 : matrix_.nnz_blocks();
}

Bcsr3Matrix build_realspace_operator(std::span<const Vec3> pos, double box,
                                     double radius, double xi, double rmax) {
  RealspaceOperator op(box, radius, xi, rmax, /*skin=*/0.0);
  op.refresh(pos);
  return std::move(op).take_matrix();
}

}  // namespace hbd
