#include "core/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matfun.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

namespace {

/// Modified Gram-Schmidt QR of the n×s block W (in place): W ← Q with
/// orthonormal columns, returns R (s×s upper triangular) with W_in = Q R.
/// Columns that vanish (deflation) are replaced by random vectors
/// orthogonalized against everything seen so far, with a zero R entry, so
/// the basis stays orthonormal and the projection exact.
Matrix qr_block(Matrix& w, const std::vector<const Matrix*>& prior_blocks,
                Xoshiro256& rng) {
  const std::size_t n = w.rows(), s = w.cols();
  Matrix r(s, s);
  for (std::size_t k = 0; k < s; ++k) {
    // Orthogonalize column k against columns 0..k-1 (twice for stability).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < k; ++j) {
        double proj = 0.0;
        for (std::size_t i = 0; i < n; ++i) proj += w(i, j) * w(i, k);
        if (pass == 0) r(j, k) += proj;
        for (std::size_t i = 0; i < n; ++i) w(i, k) -= proj * w(i, j);
      }
    }
    double nrm = 0.0;
    for (std::size_t i = 0; i < n; ++i) nrm += w(i, k) * w(i, k);
    nrm = std::sqrt(nrm);
    if (nrm > 1e-12) {
      r(k, k) = nrm;
      const double inv = 1.0 / nrm;
      for (std::size_t i = 0; i < n; ++i) w(i, k) *= inv;
      continue;
    }
    // Deflation: the Krylov block lost rank.  Insert a fresh random
    // direction orthogonal to all prior basis vectors; its R entry is 0.
    r(k, k) = 0.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      for (std::size_t i = 0; i < n; ++i) w(i, k) = rng.next_gaussian();
      for (const Matrix* vb : prior_blocks) {
        for (std::size_t j = 0; j < vb->cols(); ++j) {
          double proj = 0.0;
          for (std::size_t i = 0; i < n; ++i) proj += (*vb)(i, j) * w(i, k);
          for (std::size_t i = 0; i < n; ++i)
            w(i, k) -= proj * (*vb)(i, j);
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        double proj = 0.0;
        for (std::size_t i = 0; i < n; ++i) proj += w(i, j) * w(i, k);
        for (std::size_t i = 0; i < n; ++i) w(i, k) -= proj * w(i, j);
      }
      double nn = 0.0;
      for (std::size_t i = 0; i < n; ++i) nn += w(i, k) * w(i, k);
      nn = std::sqrt(nn);
      if (nn > 1e-8) {
        const double inv = 1.0 / nn;
        for (std::size_t i = 0; i < n; ++i) w(i, k) *= inv;
        break;
      }
    }
  }
  return r;
}

double fro_norm(const Matrix& m) {
  double s = 0.0;
  for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
    s += m.data()[i] * m.data()[i];
  return std::sqrt(s);
}

}  // namespace

Matrix krylov_sqrt_apply(const BlockApply& apply, const Matrix& z,
                         const KrylovConfig& config, KrylovStats* stats) {
  const std::size_t n = z.rows();
  const std::size_t s = z.cols();
  HBD_CHECK(n >= 1 && s >= 1);
  HBD_TRACE_SCOPE("krylov.sqrt");

  Xoshiro256 deflation_rng(0xD3F1A710ull);

  // Full per-iteration relative-change series (Eq. 9): kept locally so it
  // can be attached to NumericalExceptions even when the caller passes no
  // stats, and copied out through KrylovStats at every exit.
  std::vector<double> rel_series;
  rel_series.reserve(static_cast<std::size_t>(config.max_iterations));
  double min_proj_eig = std::numeric_limits<double>::infinity();

  std::vector<Matrix> v;             // orthonormal basis blocks, each n×s
  std::vector<Matrix> a_blocks;      // diagonal blocks of T
  std::vector<Matrix> b_blocks;      // subdiagonal blocks (B_{j+1})
  std::vector<const Matrix*> prior;  // raw views for deflation
  // Reserve so the pointers stored in `prior` stay valid across push_back.
  v.reserve(static_cast<std::size_t>(config.max_iterations) + 2);

  // V1 R1 = Z.
  Matrix v1 = z;
  const Matrix r1 = qr_block(v1, prior, deflation_rng);
  v.push_back(std::move(v1));
  prior.push_back(&v.back());

  Matrix x_prev(n, s);
  bool have_prev = false;
  Matrix w(n, s);
  // Reusable scratch for the projection updates and the iterate — sized
  // once so the iteration loop does no n×s heap allocation (the batched
  // block apply below is likewise allocation-free).
  Matrix corr(n, s), x(n, s), proj(s, s), gj(s, s);

  for (int m = 1; m <= config.max_iterations; ++m) {
    HBD_TRACE_SCOPE("krylov.iteration");
    // W = M V_m − V_{m−1} B_mᵀ − V_m A_m, then QR → V_{m+1} B_{m+1}.
    {
      HBD_TRACE_SCOPE("krylov.apply");
      apply(v[m - 1], w);
    }
    HBD_COUNTER_ADD("krylov.block_applies", 1);
    if (m >= 2) {
      // W -= V_{m-2 index} B ᵀ  (the block produced by the previous QR)
      gemm(false, true, 1.0, v[m - 2], b_blocks[m - 2], 0.0, corr);
      axpy(-1.0, {corr.data(), n * s}, {w.data(), n * s});
    }
    Matrix a(s, s);
    gemm(true, false, 1.0, v[m - 1], w, 0.0, a);
    {
      gemm(false, false, 1.0, v[m - 1], a, 0.0, corr);
      axpy(-1.0, {corr.data(), n * s}, {w.data(), n * s});
    }
    a_blocks.push_back(std::move(a));

    if (config.full_reorthogonalization) {
      for (const Matrix& vb : v) {
        gemm(true, false, 1.0, vb, w, 0.0, proj);
        gemm(false, false, 1.0, vb, proj, 0.0, corr);
        axpy(-1.0, {corr.data(), n * s}, {w.data(), n * s});
      }
    }

    // Assemble T_m (ms×ms) and evaluate X_m = V T^{1/2} E1 R1.
    const std::size_t dim = static_cast<std::size_t>(m) * s;
    Matrix t(dim, dim);
    for (int j = 0; j < m; ++j) {
      for (std::size_t r = 0; r < s; ++r)
        for (std::size_t c = 0; c < s; ++c)
          t(j * s + r, j * s + c) = a_blocks[j](r, c);
      if (j + 1 < m) {
        for (std::size_t r = 0; r < s; ++r)
          for (std::size_t c = 0; c < s; ++c) {
            t((j + 1) * s + r, j * s + c) = b_blocks[j](r, c);
            t(j * s + c, (j + 1) * s + r) = b_blocks[j](r, c);
          }
      }
    }
    double t_min = 0.0, t_max = 0.0;
    const Matrix tsqrt = matrix_function_sym(
        t, [](double wv) { return std::sqrt(wv); }, 0.0, &t_min, &t_max);
    min_proj_eig = std::min(min_proj_eig, t_min);
    if constexpr (obs::kEnabled) {
      // Roundoff leaves T_m eigenvalues barely negative; anything beyond
      // that means the mobility operator itself lost SPD (e.g. overlapping
      // particles under a non-regularized kernel) and T^{1/2} is garbage.
      if (t_min < -1e-8 * std::max(t_max, 1e-300)) {
        NumericalContext ctx;
        ctx.phase = "krylov.spd";
        ctx.index = -1;
        ctx.value = t_min;
        ctx.residuals = rel_series;
        throw NumericalException(
            "projected Lanczos matrix lost positive semidefiniteness",
            std::move(ctx));
      }
    }

    // G = T^{1/2}[:, 0:s] · R1, then X = Σ_j V_j G_j.
    Matrix g(dim, s);
    {
      Matrix e1(dim, s);
      for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < s; ++c) e1(r, c) = tsqrt(r, c);
      gemm(false, false, 1.0, e1, r1, 0.0, g);
    }
    x.fill(0.0);
    for (int j = 0; j < m; ++j) {
      for (std::size_t r = 0; r < s; ++r)
        for (std::size_t c = 0; c < s; ++c) gj(r, c) = g(j * s + r, c);
      gemm(false, false, 1.0, v[j], gj, 1.0, x);
    }

    double rel = std::numeric_limits<double>::infinity();
    if (have_prev) {
      Matrix diff = x;
      axpy(-1.0, {x_prev.data(), n * s}, {diff.data(), n * s});
      const double xn = fro_norm(x);
      obs::guard_finite({x.data(), n * s}, "krylov.sqrt", /*step=*/-1,
                        &rel_series);
      rel = xn > 0.0 ? fro_norm(diff) / xn : 0.0;
      rel_series.push_back(rel);
    }
    if (stats != nullptr) {
      stats->iterations = m;
      stats->relative_change = have_prev ? rel : 0.0;
      stats->relative_changes = rel_series;
      stats->min_projected_eigenvalue = min_proj_eig;
    }
    if (have_prev && rel < config.tolerance) {
      if (stats != nullptr) stats->converged = true;
      HBD_HISTOGRAM_OBSERVE("krylov.iterations", m);
      HBD_HISTOGRAM_OBSERVE("krylov.relative_change", rel);
      return x;
    }
    x_prev = x;
    have_prev = true;

    // Prepare next basis block.
    Matrix b = qr_block(w, prior, deflation_rng);
    b_blocks.push_back(std::move(b));
    v.push_back(w);
    prior.push_back(&v.back());
    w.resize(n, s);
  }

  if (stats != nullptr) stats->converged = false;
  HBD_HISTOGRAM_OBSERVE("krylov.iterations", config.max_iterations);
  HBD_COUNTER_ADD("krylov.nonconverged", 1);
  return x_prev;
}

}  // namespace hbd
