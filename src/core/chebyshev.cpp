#include "core/chebyshev.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

SpectralBounds estimate_spectral_bounds(const BlockApply& apply,
                                        std::size_t dim, int iterations,
                                        std::uint64_t seed) {
  const std::size_t n = dim;
  const int m = std::min<int>(iterations, static_cast<int>(n));
  HBD_CHECK(m >= 1);

  // Plain single-vector Lanczos with full reorthogonalization (m is small).
  std::vector<std::vector<double>> v;
  std::vector<double> alpha, beta;
  Xoshiro256 rng(seed);
  std::vector<double> q(n);
  fill_gaussian(rng, q);
  scal(1.0 / nrm2(q), q);
  v.push_back(q);

  // Single-vector products run as n×1 blocks.
  Matrix vj(n, 1), wj(n, 1);
  const std::span<double> w{wj.data(), n};
  for (int j = 0; j < m; ++j) {
    std::copy(v[j].begin(), v[j].end(), vj.data());
    apply(vj, wj);
    if (j > 0) axpy(-beta[j - 1], v[j - 1], w);
    const double a = dot(v[j], w);
    alpha.push_back(a);
    axpy(-a, v[j], w);
    for (const auto& vb : v) axpy(-dot(vb, w), vb, w);  // reorthogonalize
    const double b = nrm2(w);
    if (b < 1e-12) break;
    beta.push_back(b);
    std::vector<double> next(w.begin(), w.end());
    scal(1.0 / b, next);
    v.push_back(std::move(next));
  }

  const std::size_t t = alpha.size();
  Matrix tri(t, t);
  for (std::size_t i = 0; i < t; ++i) {
    tri(i, i) = alpha[i];
    if (i + 1 < t) {
      tri(i, i + 1) = beta[i];
      tri(i + 1, i) = beta[i];
    }
  }
  const EigenSym eig = eigen_sym(tri);

  SpectralBounds out;
  // Ritz values underestimate the extremes; widen with safety margins.
  out.max = eig.values.back() * 1.1;
  out.min = std::max(eig.values.front() * 0.5, 1e-8 * out.max);
  return out;
}

namespace {

/// Chebyshev coefficients of √x mapped onto [a, b], computed with the
/// Chebyshev–Gauss quadrature; returns enough terms for the requested
/// uniform tolerance (relative to √b).
std::vector<double> sqrt_coefficients(const SpectralBounds& bounds,
                                      double tolerance, int max_terms,
                                      int* used, double* tail) {
  const int quad = 512;
  std::vector<double> fvals(quad);
  for (int j = 0; j < quad; ++j) {
    const double theta =
        std::numbers::pi * (static_cast<double>(j) + 0.5) / quad;
    const double x = 0.5 * (bounds.max - bounds.min) * std::cos(theta) +
                     0.5 * (bounds.max + bounds.min);
    fvals[j] = std::sqrt(x);
  }
  std::vector<double> c(std::min(max_terms, quad));
  for (std::size_t k = 0; k < c.size(); ++k) {
    double s = 0.0;
    for (int j = 0; j < quad; ++j) {
      const double theta =
          std::numbers::pi * (static_cast<double>(j) + 0.5) / quad;
      s += fvals[j] * std::cos(static_cast<double>(k) * theta);
    }
    c[k] = 2.0 * s / quad;
  }
  // Truncate once the running coefficient tail drops below tolerance·√b.
  const double scale = std::sqrt(bounds.max);
  std::size_t m = c.size();
  for (std::size_t k = 2; k < c.size(); ++k) {
    if (std::abs(c[k]) + std::abs(c[k - 1]) < tolerance * scale) {
      m = k + 1;
      break;
    }
  }
  *used = static_cast<int>(m);
  *tail = m < c.size() ? std::abs(c[m]) : 0.0;
  c.resize(m);
  return c;
}

}  // namespace

Matrix chebyshev_sqrt_apply(const BlockApply& apply, const Matrix& z,
                            const SpectralBounds& bounds,
                            const ChebyshevConfig& config,
                            ChebyshevStats* stats) {
  const std::size_t n = z.rows();
  const std::size_t s = z.cols();
  HBD_CHECK(bounds.max > bounds.min && bounds.min > 0.0);

  int terms = 0;
  double tail = 0.0;
  const std::vector<double> c = sqrt_coefficients(
      bounds, config.tolerance, config.max_terms, &terms, &tail);
  if (stats != nullptr) {
    stats->terms = terms;
    stats->coeff_tail = tail;
    // Per-term convergence curve: the uniform-error contribution of each
    // kept coefficient relative to the spectral scale √λ_max.
    const double scale = std::sqrt(bounds.max);
    stats->relative_coefficients.assign(c.begin(), c.end());
    for (double& rc : stats->relative_coefficients)
      rc = std::abs(rc) / scale;
  }
  HBD_HISTOGRAM_OBSERVE("chebyshev.terms", terms);

  // Affine map Ã = (2M − (b+a)I)/(b−a); recurrence T_{k+1} = 2ÃT_k − T_{k−1}.
  const double alpha = 2.0 / (bounds.max - bounds.min);
  const double beta = -(bounds.max + bounds.min) / (bounds.max - bounds.min);
  const std::size_t total = n * s;

  Matrix t_prev = z;              // T_0 Z = Z
  Matrix t_curr(n, s), x(n, s), tmp(n, s);
  // T_1 Z = Ã Z
  apply(z, tmp);
  for (std::size_t i = 0; i < total; ++i)
    t_curr.data()[i] = alpha * tmp.data()[i] + beta * z.data()[i];

  // X = c0/2·T0 + c1·T1 + …
  for (std::size_t i = 0; i < total; ++i)
    x.data()[i] = 0.5 * c[0] * t_prev.data()[i] +
                  (c.size() > 1 ? c[1] * t_curr.data()[i] : 0.0);

  for (std::size_t k = 2; k < c.size(); ++k) {
    apply(t_curr, tmp);
    for (std::size_t i = 0; i < total; ++i) {
      const double next = 2.0 * (alpha * tmp.data()[i] +
                                 beta * t_curr.data()[i]) -
                          t_prev.data()[i];
      t_prev.data()[i] = t_curr.data()[i];
      t_curr.data()[i] = next;
      x.data()[i] += c[k] * next;
    }
  }
  if (stats != nullptr)
    obs::guard_finite({x.data(), total}, "chebyshev.sqrt", /*step=*/-1,
                      &stats->relative_coefficients);
  else
    obs::guard_finite({x.data(), total}, "chebyshev.sqrt", /*step=*/-1);
  return x;
}

}  // namespace hbd
