#include "sparse/sym_bcsr3.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hbd {

template <class Real>
SymBcsr3MatrixT<Real> SymBcsr3MatrixT<Real>::from_blocks(
    std::size_t nblock,
    const std::vector<std::vector<std::uint32_t>>& block_cols,
    const std::vector<std::vector<std::array<double, 9>>>& blocks) {
  HBD_CHECK(block_cols.size() == nblock && blocks.size() == nblock);
  SymBcsr3MatrixT m;
  m.nblock_ = nblock;
  m.row_ptr_.assign(nblock + 1, 0);
  std::size_t total = 0;
  // Validation up front: HBD_CHECK throws, and an exception escaping an
  // OpenMP parallel region is undefined behavior.
  for (std::size_t i = 0; i < nblock; ++i) {
    HBD_CHECK(block_cols[i].size() == blocks[i].size());
    for (const std::uint32_t c : block_cols[i])
      HBD_CHECK(c < nblock && c >= i);
    total += block_cols[i].size();
    m.row_ptr_[i + 1] = total;
  }
  m.col_idx_.resize(total);
  m.values_.resize(9 * total + kValuePad);

#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < nblock; ++i) {
    std::vector<std::size_t> order(block_cols[i].size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return block_cols[i][a] < block_cols[i][b];
    });
    std::size_t t = m.row_ptr_[i];
    for (std::size_t k : order) {
      m.col_idx_[t] = block_cols[i][k];
      for (int q = 0; q < 9; ++q)
        m.values_[9 * t + q] = static_cast<Real>(blocks[i][k][q]);
      ++t;
    }
  }
  m.finalize_pattern();
  return m;
}

template <class Real>
void SymBcsr3MatrixT<Real>::resize_pattern(
    std::size_t nblock, std::span<const std::size_t> row_counts) {
  HBD_CHECK(row_counts.size() == nblock);
  nblock_ = nblock;
  row_ptr_.resize(nblock + 1);
  row_ptr_[0] = 0;
  for (std::size_t i = 0; i < nblock; ++i)
    row_ptr_[i + 1] = row_ptr_[i] + row_counts[i];
  col_idx_.resize(row_ptr_[nblock]);
  values_.assign(9 * row_ptr_[nblock] + kValuePad, Real(0));
  color_ptr_.clear();  // schedule is stale until finalize_pattern()
  color_rows_.clear();
  prow_.clear();        // physical layout is stale with it
  values_stale_ = true; // fresh zeros: finalize_pattern() skips the relayout
}

template <class Real>
void SymBcsr3MatrixT<Real>::finalize_pattern() {
  const std::size_t n = nblock_;
  diag_blocks_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
      HBD_CHECK(col_idx_[t] < n && col_idx_[t] >= i);
      if (t > row_ptr_[i]) HBD_CHECK(col_idx_[t] > col_idx_[t - 1]);
      if (col_idx_[t] == i) ++diag_blocks_;
    }
  }

  // CSC transpose of the upper pattern: csc column j lists the rows whose
  // write set contains j (beyond row j itself).
  csc_ptr_.assign(n + 1, 0);
  for (std::size_t t = 0; t < col_idx_.size(); ++t)
    ++csc_ptr_[col_idx_[t] + 1];
  for (std::size_t j = 0; j < n; ++j) csc_ptr_[j + 1] += csc_ptr_[j];
  csc_rows_.resize(col_idx_.size());
  {
    std::vector<std::size_t> cursor(csc_ptr_.begin(), csc_ptr_.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t)
        csc_rows_[cursor[col_idx_[t]]++] = static_cast<std::uint32_t>(i);
  }

  // Greedy distance-2 coloring in ascending row order: rows conflict when
  // their write sets W(i) = {i} ∪ cols(i) intersect.  Serial and therefore
  // deterministic — the schedule (hence the kernels' accumulation order)
  // depends only on the pattern.
  row_color_.assign(n, 0);
  color_stamp_.clear();
  std::uint32_t ncolors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t stamp = static_cast<std::uint32_t>(i) + 1;
    auto forbid = [&](std::size_t row) {
      if (row < i) color_stamp_[row_color_[row]] = stamp;
    };
    // Column i's earlier writers conflict through y_i …
    for (std::size_t t = csc_ptr_[i]; t < csc_ptr_[i + 1]; ++t)
      forbid(csc_rows_[t]);
    // … and for each column j: row j itself plus its other writers.
    for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
      const std::size_t j = col_idx_[t];
      forbid(j);
      for (std::size_t u = csc_ptr_[j]; u < csc_ptr_[j + 1]; ++u)
        forbid(csc_rows_[u]);
    }
    std::uint32_t c = 0;
    while (c < ncolors && color_stamp_[c] == stamp) ++c;
    if (c == ncolors) {
      ++ncolors;
      color_stamp_.push_back(0);
    }
    row_color_[i] = c;
  }

  // Bucket rows by color; the ascending sweep keeps rows of one color in
  // ascending order without a sort.
  color_ptr_.assign(ncolors + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++color_ptr_[row_color_[i] + 1];
  for (std::uint32_t c = 0; c < ncolors; ++c)
    color_ptr_[c + 1] += color_ptr_[c];
  color_rows_.resize(n);
  {
    std::vector<std::size_t> cursor(color_ptr_.begin(), color_ptr_.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      color_rows_[cursor[row_color_[i]]++] = static_cast<std::uint32_t>(i);
  }
  // Physical value layout follows the schedule: rows in the order the
  // multiply visits them (colors in sequence), blocks within a row keeping
  // their CSR order.  The multiply then streams values_ front to back and
  // the hardware prefetcher stays engaged; in CSR row order the color
  // interleave degrades the dominant value stream to scattered
  // few-hundred-byte reads.  Pure data
  // movement — per-block arithmetic order is unchanged, so FP64 results
  // stay bitwise identical to the historical layout.
  {
    std::vector<std::size_t> nprow(n);
    std::size_t off = 0;
    for (const std::uint32_t i : color_rows_) {
      nprow[i] = off;
      off += row_ptr_[i + 1] - row_ptr_[i];
    }
    if (!values_stale_ && !values_.empty()) {
      // Live values: move them out of the previous layout (prow_ when one
      // exists, plain CSR order right after from_blocks' fill).
      const bool had_prow = prow_.size() == n;
      if (!(had_prow && prow_ == nprow)) {
        aligned_vector<Real> relaid(values_.size());
#pragma omp parallel for schedule(static)
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t cnt = row_ptr_[i + 1] - row_ptr_[i];
          const std::size_t src = had_prow ? prow_[i] : row_ptr_[i];
          std::copy_n(values_.data() + 9 * src, 9 * cnt,
                      relaid.data() + 9 * nprow[i]);
        }
        values_.swap(relaid);
      }
    }
    prow_ = std::move(nprow);
    values_stale_ = false;
  }
}

template <class Real>
void SymBcsr3MatrixT<Real>::multiply(std::span<const double> x,
                                     std::span<double> y) const {
  HBD_CHECK(x.size() == rows() && y.size() == rows());
  HBD_CHECK_MSG(!color_ptr_.empty() || nblock_ == 0,
                "finalize_pattern() must run before multiply");
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t ncolors = num_colors();
  for (std::size_t c = 0; c < ncolors; ++c) {
    const std::size_t lo = color_ptr_[c], hi = color_ptr_[c + 1];
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t i = color_rows_[r];
      const std::size_t cnt = row_ptr_[i + 1] - row_ptr_[i];
      const Real* vrow = values_.data() + 9 * prow_[i];
      const std::uint32_t* crow = col_idx_.data() + row_ptr_[i];
#if HBD_SIMD_AVX2
      if constexpr (std::is_same_v<Real, float>) {
        simd::sym_row_spmv_f(vrow, crow, cnt, i, x.data(), y.data());
        continue;
      }
#endif
      const double xi0 = x[3 * i], xi1 = x[3 * i + 1], xi2 = x[3 * i + 2];
      double s0 = 0.0, s1 = 0.0, s2 = 0.0;
      double bw[9];
      for (std::size_t k = 0; k < cnt; ++k) {
        const double* b = simd::load_block9(vrow + 9 * k, bw);
        const std::size_t j = crow[k];
        const double* xj = x.data() + 3 * j;
        s0 += b[0] * xj[0] + b[1] * xj[1] + b[2] * xj[2];
        s1 += b[3] * xj[0] + b[4] * xj[1] + b[5] * xj[2];
        s2 += b[6] * xj[0] + b[7] * xj[1] + b[8] * xj[2];
        if (j != i) {
          // Transpose contribution of the same block: y_j += bᵀ x_i.
          double* yj = y.data() + 3 * j;
          yj[0] += b[0] * xi0 + b[3] * xi1 + b[6] * xi2;
          yj[1] += b[1] * xi0 + b[4] * xi1 + b[7] * xi2;
          yj[2] += b[2] * xi0 + b[5] * xi1 + b[8] * xi2;
        }
      }
      y[3 * i] += s0;
      y[3 * i + 1] += s1;
      y[3 * i + 2] += s2;
    }
  }
}

template <class Real>
void SymBcsr3MatrixT<Real>::multiply_block(const Matrix& x, Matrix& y) const {
  HBD_CHECK(x.rows() == rows() && y.rows() == rows() && x.cols() == y.cols());
  HBD_CHECK_MSG(!color_ptr_.empty() || nblock_ == 0,
                "finalize_pattern() must run before multiply");
  const std::size_t s = x.cols();
  std::fill(y.data(), y.data() + y.rows() * s, 0.0);
  const std::size_t ncolors = num_colors();
  for (std::size_t c = 0; c < ncolors; ++c) {
    const std::size_t lo = color_ptr_[c], hi = color_ptr_[c + 1];
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t i = color_rows_[r];
      const double* xi = x.data() + (3 * i) * s;
      const double* xi1 = xi + s;
      const double* xi2 = xi1 + s;
      double* yi = y.data() + (3 * i) * s;
      double* yi1 = yi + s;
      double* yi2 = yi1 + s;
      const std::size_t cnt = row_ptr_[i + 1] - row_ptr_[i];
      const Real* vrow = values_.data() + 9 * prow_[i];
      const std::uint32_t* crow = col_idx_.data() + row_ptr_[i];
      for (std::size_t k = 0; k < cnt; ++k) {
        const Real* b = vrow + 9 * k;
        const std::size_t j = crow[k];
        const double* xj = x.data() + (3 * j) * s;
        const double* xj1 = xj + s;
        const double* xj2 = xj1 + s;
        simd::block3_fma(b, xj, xj1, xj2, yi, yi1, yi2, s);
        if (j != i) {
          double* yj = y.data() + (3 * j) * s;
          double* yj1 = yj + s;
          double* yj2 = yj1 + s;
          simd::block3t_fma(b, xi, xi1, xi2, yj, yj1, yj2, s);
        }
      }
    }
  }
}

template <class Real>
Matrix SymBcsr3MatrixT<Real>::to_dense() const {
  Matrix d(rows(), rows());
  const bool laid_out = prow_.size() == nblock_;
  for (std::size_t i = 0; i < nblock_; ++i) {
    for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
      const std::size_t p = laid_out ? prow_[i] + (t - row_ptr_[i]) : t;
      const Real* b = values_.data() + 9 * p;
      const std::size_t j = col_idx_[t];
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
          d(3 * i + r, 3 * j + c) = b[3 * r + c];
          if (j != i) d(3 * j + c, 3 * i + r) = b[3 * r + c];
        }
    }
  }
  return d;
}

template <class Real>
Bcsr3MatrixT<Real> SymBcsr3MatrixT<Real>::to_full() const {
  const std::size_t n = nblock_;
  const bool laid_out = prow_.size() == n;
  std::vector<std::vector<std::uint32_t>> cols(n);
  std::vector<std::vector<std::array<double, 9>>> blocks(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
      const std::size_t p = laid_out ? prow_[i] + (t - row_ptr_[i]) : t;
      const Real* b = values_.data() + 9 * p;
      const std::size_t j = col_idx_[t];
      std::array<double, 9> blk;
      for (int q = 0; q < 9; ++q) blk[q] = static_cast<double>(b[q]);
      cols[i].push_back(static_cast<std::uint32_t>(j));
      blocks[i].push_back(blk);
      if (j != i) {
        std::array<double, 9> blk_t;
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c) blk_t[3 * c + r] = blk[3 * r + c];
        cols[j].push_back(static_cast<std::uint32_t>(i));
        blocks[j].push_back(blk_t);
      }
    }
  }
  return Bcsr3MatrixT<Real>::from_blocks(n, cols, blocks);
}

template class SymBcsr3MatrixT<double>;
template class SymBcsr3MatrixT<float>;

}  // namespace hbd
