// Tests for the sparse-matrix substrate: the 3×3-block BCSR format with
// single- and multi-vector products, and the symmetric half-stored variant
// with its colored deterministic kernels.
#include <gtest/gtest.h>

#include <omp.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "linalg/blas.hpp"
#include "sparse/bcsr3.hpp"
#include "sparse/sym_bcsr3.hpp"

namespace hbd {
namespace {

Bcsr3Matrix random_bcsr(std::size_t nblock, double density,
                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint32_t>> cols(nblock);
  std::vector<std::vector<std::array<double, 9>>> blocks(nblock);
  for (std::size_t i = 0; i < nblock; ++i) {
    for (std::size_t j = 0; j < nblock; ++j) {
      if (i != j && rng.next_double() > density) continue;
      std::array<double, 9> b;
      for (double& e : b) e = rng.next_gaussian();
      cols[i].push_back(static_cast<std::uint32_t>(j));
      blocks[i].push_back(b);
    }
  }
  return Bcsr3Matrix::from_blocks(nblock, cols, blocks);
}

TEST(Bcsr3, MultiplyMatchesDense) {
  const std::size_t nb = 17;
  const Bcsr3Matrix m = random_bcsr(nb, 0.3, 7);
  const Matrix d = m.to_dense();
  std::vector<double> x(3 * nb), y_sparse(3 * nb), y_dense(3 * nb, 0.0);
  Xoshiro256 rng(8);
  fill_gaussian(rng, x);
  m.multiply(x, y_sparse);
  gemv(1.0, d, x, 0.0, y_dense);
  for (std::size_t i = 0; i < 3 * nb; ++i)
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
}

TEST(Bcsr3, BlockMultiplyMatchesRepeatedSingle) {
  const std::size_t nb = 11, s = 7;
  const Bcsr3Matrix m = random_bcsr(nb, 0.4, 9);
  Matrix x(3 * nb, s), y(3 * nb, s);
  Xoshiro256 rng(10);
  fill_gaussian(rng, {x.data(), x.rows() * x.cols()});
  m.multiply_block(x, y);
  std::vector<double> xc(3 * nb), yc(3 * nb);
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t i = 0; i < 3 * nb; ++i) xc[i] = x(i, c);
    m.multiply(xc, yc);
    for (std::size_t i = 0; i < 3 * nb; ++i)
      ASSERT_NEAR(y(i, c), yc[i], 1e-12);
  }
}

TEST(Bcsr3, ColumnsSortedWithinRows) {
  const Bcsr3Matrix m = random_bcsr(13, 0.5, 11);
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  for (std::size_t i = 0; i < m.block_rows(); ++i)
    for (std::size_t t = rp[i] + 1; t < rp[i + 1]; ++t)
      EXPECT_LT(ci[t - 1], ci[t]);
}

TEST(Bcsr3, EmptyMatrix) {
  const Bcsr3Matrix m = Bcsr3Matrix::from_blocks(4, {{}, {}, {}, {}},
                                                 {{}, {}, {}, {}});
  std::vector<double> x(12, 1.0), y(12, 99.0);
  m.multiply(x, y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

// Random symmetric logical matrix: returns matched half-stored and
// full-stored representations of the same operator (off-diagonal blocks
// mirrored transposed, diagonal blocks symmetrized).
struct SymPair {
  SymBcsr3Matrix half;
  Bcsr3Matrix full;
};

SymPair random_sym_bcsr(std::size_t nblock, double density,
                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint32_t>> ucols(nblock), fcols(nblock);
  std::vector<std::vector<std::array<double, 9>>> ublocks(nblock),
      fblocks(nblock);
  for (std::size_t i = 0; i < nblock; ++i) {
    for (std::size_t j = i; j < nblock; ++j) {
      if (i != j && rng.next_double() > density) continue;
      std::array<double, 9> b;
      for (double& e : b) e = rng.next_gaussian();
      if (i == j)
        for (int r = 0; r < 3; ++r)
          for (int c = r + 1; c < 3; ++c) b[3 * c + r] = b[3 * r + c];
      ucols[i].push_back(static_cast<std::uint32_t>(j));
      ublocks[i].push_back(b);
      fcols[i].push_back(static_cast<std::uint32_t>(j));
      fblocks[i].push_back(b);
      if (i != j) {
        std::array<double, 9> bt;
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c) bt[3 * c + r] = b[3 * r + c];
        fcols[j].push_back(static_cast<std::uint32_t>(i));
        fblocks[j].push_back(bt);
      }
    }
  }
  return {SymBcsr3Matrix::from_blocks(nblock, ucols, ublocks),
          Bcsr3Matrix::from_blocks(nblock, fcols, fblocks)};
}

TEST(SymBcsr3, MultiplyMatchesDense) {
  const std::size_t nb = 17;
  const SymPair m = random_sym_bcsr(nb, 0.3, 21);
  const Matrix d = m.half.to_dense();
  std::vector<double> x(3 * nb), y_sparse(3 * nb), y_dense(3 * nb, 0.0);
  Xoshiro256 rng(22);
  fill_gaussian(rng, x);
  m.half.multiply(x, y_sparse);
  gemv(1.0, d, x, 0.0, y_dense);
  for (std::size_t i = 0; i < 3 * nb; ++i)
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
}

TEST(SymBcsr3, MatchesFullStoredWithinEpsilon) {
  const std::size_t nb = 40;
  const SymPair m = random_sym_bcsr(nb, 0.25, 23);
  EXPECT_EQ(m.half.logical_blocks(), m.full.nnz_blocks());
  std::vector<double> x(3 * nb), y_half(3 * nb), y_full(3 * nb);
  Xoshiro256 rng(24);
  fill_gaussian(rng, x);
  m.half.multiply(x, y_half);
  m.full.multiply(x, y_full);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 3 * nb; ++i) {
    num += (y_half[i] - y_full[i]) * (y_half[i] - y_full[i]);
    den += y_full[i] * y_full[i];
  }
  EXPECT_LE(std::sqrt(num), 1e-13 * std::sqrt(den));
}

TEST(SymBcsr3, BlockMultiplyMatchesRepeatedSingle) {
  const std::size_t nb = 11, s = 7;
  const SymPair m = random_sym_bcsr(nb, 0.4, 25);
  Matrix x(3 * nb, s), y(3 * nb, s);
  Xoshiro256 rng(26);
  fill_gaussian(rng, {x.data(), x.rows() * x.cols()});
  m.half.multiply_block(x, y);
  std::vector<double> xc(3 * nb), yc(3 * nb);
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t i = 0; i < 3 * nb; ++i) xc[i] = x(i, c);
    m.half.multiply(xc, yc);
    for (std::size_t i = 0; i < 3 * nb; ++i)
      ASSERT_NEAR(y(i, c), yc[i], 1e-12);
  }
}

// The colored schedule fixes the accumulation order as a function of the
// pattern alone, so results must be bitwise identical for any thread count.
TEST(SymBcsr3, BitwiseDeterministicAcrossThreadCounts) {
  const std::size_t nb = 64, s = 5;
  const SymPair m = random_sym_bcsr(nb, 0.2, 27);
  std::vector<double> x(3 * nb);
  Matrix xb(3 * nb, s);
  Xoshiro256 rng(28);
  fill_gaussian(rng, x);
  fill_gaussian(rng, {xb.data(), xb.rows() * xb.cols()});

  const int saved = omp_get_max_threads();
  std::vector<double> y_ref(3 * nb);
  Matrix yb_ref(3 * nb, s);
  omp_set_num_threads(1);
  m.half.multiply(x, y_ref);
  m.half.multiply_block(xb, yb_ref);
  for (int threads : {2, 8}) {
    omp_set_num_threads(threads);
    std::vector<double> y(3 * nb);
    Matrix yb(3 * nb, s);
    m.half.multiply(x, y);
    m.half.multiply_block(xb, yb);
    for (std::size_t i = 0; i < 3 * nb; ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << "thread count " << threads;
      for (std::size_t c = 0; c < s; ++c)
        ASSERT_EQ(yb(i, c), yb_ref(i, c)) << "thread count " << threads;
    }
  }
  omp_set_num_threads(saved);
}

TEST(SymBcsr3, ColoringHasDisjointWriteSetsPerColor) {
  const SymPair m = random_sym_bcsr(50, 0.3, 29);
  const auto cp = m.half.color_ptr();
  const auto cr = m.half.color_rows();
  const auto rp = m.half.row_ptr();
  const auto ci = m.half.col_idx();
  ASSERT_EQ(cp.size(), m.half.num_colors() + 1);
  std::size_t rows_seen = 0;
  for (std::size_t c = 0; c + 1 < cp.size(); ++c) {
    std::set<std::uint32_t> writes;
    for (std::size_t r = cp[c]; r < cp[c + 1]; ++r) {
      const std::uint32_t i = cr[r];
      ++rows_seen;
      ASSERT_TRUE(writes.insert(i).second) << "color " << c;
      for (std::size_t t = rp[i]; t < rp[i + 1]; ++t) {
        if (ci[t] != i) {
          ASSERT_TRUE(writes.insert(ci[t]).second) << "color " << c;
        }
      }
    }
  }
  EXPECT_EQ(rows_seen, m.half.block_rows());
}

TEST(SymBcsr3, ToFullRoundTrip) {
  const SymPair m = random_sym_bcsr(19, 0.35, 31);
  const Bcsr3Matrix full = m.half.to_full();
  EXPECT_EQ(full.nnz_blocks(), m.half.logical_blocks());
  const Matrix a = m.half.to_dense();
  const Matrix b = full.to_dense();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) ASSERT_EQ(a(i, j), b(i, j));
}

TEST(SymBcsr3, ResizePatternRefreshMatchesFromBlocks) {
  const std::size_t nb = 15;
  const SymPair m = random_sym_bcsr(nb, 0.3, 33);
  // Rebuild the same matrix through the in-place refresh path.
  SymBcsr3Matrix r;
  std::vector<std::size_t> counts(nb);
  const auto rp = m.half.row_ptr();
  for (std::size_t i = 0; i < nb; ++i) counts[i] = rp[i + 1] - rp[i];
  r.resize_pattern(nb, counts);
  std::copy(m.half.col_idx().begin(), m.half.col_idx().end(),
            r.col_idx_mut().begin());
  r.finalize_pattern();
  std::copy(m.half.values().begin(), m.half.values().end(),
            r.values_mut().begin());
  std::vector<double> x(3 * nb), y_a(3 * nb), y_b(3 * nb);
  Xoshiro256 rng(34);
  fill_gaussian(rng, x);
  m.half.multiply(x, y_a);
  r.multiply(x, y_b);
  for (std::size_t i = 0; i < 3 * nb; ++i) ASSERT_EQ(y_a[i], y_b[i]);
}

TEST(SymBcsr3, EmptyMatrix) {
  const SymBcsr3Matrix m = SymBcsr3Matrix::from_blocks(4, {{}, {}, {}, {}},
                                                       {{}, {}, {}, {}});
  std::vector<double> x(12, 1.0), y(12, 99.0);
  m.multiply(x, y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

// ---- FP32 storage ----------------------------------------------------------

TEST(SymBcsr3Fp32, MatchesDoubleWithinRounding) {
  const std::size_t nb = 20;
  Xoshiro256 rng(45);
  std::vector<std::vector<std::uint32_t>> cols(nb);
  std::vector<std::vector<std::array<double, 9>>> blocks(nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = i; j < nb; ++j) {
      if (i != j && rng.next_double() > 0.3) continue;
      std::array<double, 9> b;
      for (double& e : b) e = rng.next_gaussian();
      if (i == j)
        for (int r = 0; r < 3; ++r)
          for (int c = r + 1; c < 3; ++c) b[3 * c + r] = b[3 * r + c];
      cols[i].push_back(static_cast<std::uint32_t>(j));
      blocks[i].push_back(b);
    }
  const SymBcsr3Matrix md = SymBcsr3Matrix::from_blocks(nb, cols, blocks);
  const SymBcsr3MatrixF mf = SymBcsr3MatrixF::from_blocks(nb, cols, blocks);
  static_assert(sizeof(mf.values()[0]) == 4);  // half the value stream
  std::vector<double> x(3 * nb), yd(3 * nb), yf(3 * nb);
  fill_gaussian(rng, x);
  md.multiply(x, yd);
  mf.multiply(x, yf);
  double scale = 0.0;
  for (double v : yd) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < 3 * nb; ++i)
    ASSERT_NEAR(yf[i], yd[i], 1e-6 * scale);  // one float rounding per value
}

TEST(SymBcsr3Fp32, ToFullPreservesStoredFloats) {
  Xoshiro256 rng(46);
  std::vector<std::vector<std::uint32_t>> cols{{0, 1}, {1}};
  std::vector<std::vector<std::array<double, 9>>> blocks(2);
  std::array<double, 9> b;
  for (double& e : b) e = rng.next_gaussian();
  for (int r = 0; r < 3; ++r)
    for (int c = r + 1; c < 3; ++c) b[3 * c + r] = b[3 * r + c];
  blocks[0].push_back(b);
  for (double& e : b) e = rng.next_gaussian();
  blocks[0].push_back(b);
  for (double& e : b) e = rng.next_gaussian();
  for (int r = 0; r < 3; ++r)
    for (int c = r + 1; c < 3; ++c) b[3 * c + r] = b[3 * r + c];
  blocks[1].push_back(b);
  const SymBcsr3MatrixF mf = SymBcsr3MatrixF::from_blocks(2, cols, blocks);
  const Bcsr3MatrixF full = mf.to_full();
  // Mirrored values round exactly once: the full expansion holds the same
  // floats, transposed in the lower half.
  const Matrix a = mf.to_dense();
  const Matrix c = full.to_dense();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) ASSERT_EQ(a(i, j), c(i, j));
}

// ---- SIMD kernels ----------------------------------------------------------

// The dispatched kernels (AVX2 when built in) must match the scalar
// reference chains bitwise in FP64 — this is the contract the default
// path's trajectory reproducibility rests on.  Exercised at several thread
// counts only to vary nothing: the kernels are sequential; the sparse
// products above cover threaded dispatch.
TEST(Simd, KernelsMatchScalarBitwise) {
  Xoshiro256 rng(47);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 64u, 129u}) {
    std::vector<double> b(9), x0(n), x1(n), x2(n), src(n);
    fill_gaussian(rng, b);
    fill_gaussian(rng, x0);
    fill_gaussian(rng, x1);
    fill_gaussian(rng, x2);
    fill_gaussian(rng, src);
    std::vector<double> y0(n), y1(n), y2(n);
    fill_gaussian(rng, y0);
    fill_gaussian(rng, y1);
    fill_gaussian(rng, y2);
    const double w = rng.next_gaussian();

    auto s0 = y0, s1 = y1, s2 = y2;
    simd::block3_fma(b.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                     y1.data(), y2.data(), n);
    simd::scalar::block3_fma(b.data(), x0.data(), x1.data(), x2.data(),
                             s0.data(), s1.data(), s2.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(y0[k], s0[k]) << "n=" << n;
      ASSERT_EQ(y1[k], s1[k]) << "n=" << n;
      ASSERT_EQ(y2[k], s2[k]) << "n=" << n;
    }

    simd::block3t_fma(b.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                      y1.data(), y2.data(), n);
    simd::scalar::block3t_fma(b.data(), x0.data(), x1.data(), x2.data(),
                              s0.data(), s1.data(), s2.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(y0[k], s0[k]) << "n=" << n;
      ASSERT_EQ(y1[k], s1[k]) << "n=" << n;
      ASSERT_EQ(y2[k], s2[k]) << "n=" << n;
    }

    simd::axpy(y0.data(), w, src.data(), n);
    simd::scalar::axpy(s0.data(), w, src.data(), n);
    for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(y0[k], s0[k]) << "n=" << n;
  }
}

// Float-stored blocks run the same widened chain: the kernels must agree
// with the scalar bodies bitwise for Real = float too.
TEST(Simd, Fp32BlocksMatchScalarBitwise) {
  Xoshiro256 rng(48);
  const std::size_t n = 37;
  std::vector<float> b(9);
  for (float& e : b) e = static_cast<float>(rng.next_gaussian());
  std::vector<double> x0(n), x1(n), x2(n);
  fill_gaussian(rng, x0);
  fill_gaussian(rng, x1);
  fill_gaussian(rng, x2);
  std::vector<double> y0(n, 0.0), y1(n, 0.0), y2(n, 0.0);
  auto s0 = y0, s1 = y1, s2 = y2;
  simd::block3_fma(b.data(), x0.data(), x1.data(), x2.data(), y0.data(),
                   y1.data(), y2.data(), n);
  simd::scalar::block3_fma(b.data(), x0.data(), x1.data(), x2.data(),
                           s0.data(), s1.data(), s2.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(y0[k], s0[k]);
    ASSERT_EQ(y1[k], s1[k]);
    ASSERT_EQ(y2[k], s2[k]);
  }
}

}  // namespace
}  // namespace hbd
