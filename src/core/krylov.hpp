// Block Krylov subspace computation of Brownian displacements (paper
// Sec. III-B, ref. [8]): given an SPD mobility operator M available only via
// products, approximate M^{1/2} Z for a block of λ_RPY Gaussian vectors at
// once.  Block Lanczos builds an orthonormal basis V = [V₁ … V_m] with a
// block-tridiagonal projection T = Vᵀ M V and uses
//     M^{1/2} Z ≈ V · T^{1/2} · E₁ · R₁    (Z = V₁ R₁),
// iterating until the relative change of the approximation drops below the
// tolerance e_k.  Using one subspace for the whole block needs fewer total
// iterations than vector-by-vector Lanczos, and each iteration applies M to
// a block (multi-vector SpMV in the real-space part).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace hbd {

/// Y = M X for a row-major 3n×s block X — the only access the matrix-free
/// square roots (Krylov here, Chebyshev in core/chebyshev.hpp) need to an
/// SPD mobility.  Build it where it is used (a lambda over the operator's
/// block apply), so it never outlives an operator rebuild.
using BlockApply = std::function<void(const Matrix& x, Matrix& y)>;

struct KrylovConfig {
  double tolerance = 1e-2;  ///< relative-change stopping criterion (e_k)
  int max_iterations = 200;
  /// Full reorthogonalization keeps the basis numerically orthonormal; the
  /// extra GEMMs are cheap next to the PME applies.
  bool full_reorthogonalization = true;
};

struct KrylovStats {
  int iterations = 0;
  double relative_change = 0.0;
  bool converged = false;
  /// Per-iteration relative change ‖X_m − X_{m−1}‖_F/‖X_m‖_F (Eq. 9), one
  /// entry per iteration from the second on — the full convergence curve,
  /// fed to the health monitor and attached to NumericalExceptions.
  std::vector<double> relative_changes;
  /// Most negative eigenvalue seen across the projected matrices T_m
  /// (roundoff makes it slightly negative; large negative values mean the
  /// operator lost positive semidefiniteness).
  double min_projected_eigenvalue = 0.0;
};

/// Returns X ≈ M^{1/2} Z (Z is 3n×s, row-major; `apply` is M on blocks of
/// Z's shape).  Throws a
/// NumericalException (obs/health.hpp) if the projected matrix loses
/// positive semidefiniteness beyond roundoff or the iterate turns
/// NaN/Inf — with the per-iteration convergence series attached.
Matrix krylov_sqrt_apply(const BlockApply& apply, const Matrix& z,
                         const KrylovConfig& config = {},
                         KrylovStats* stats = nullptr);

}  // namespace hbd
