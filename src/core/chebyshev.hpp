// Chebyshev-polynomial (Fixman) computation of Brownian displacements — the
// classical matrix-free alternative the paper cites (ref. [25]): approximate
// M^{1/2} z by a Chebyshev expansion of √λ over the spectral interval
// [λ_min, λ_max] of the mobility, applied through the three-term recurrence.
// Unlike the Krylov method it needs spectral bounds up front, which are
// estimated here with a short Lanczos run.  Provided as a baseline for the
// ablation benchmarks (Krylov vs Chebyshev iteration counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/krylov.hpp"
#include "linalg/dense_matrix.hpp"

namespace hbd {

/// Spectral interval estimate of an SPD operator.
struct SpectralBounds {
  double min = 0.0;
  double max = 0.0;
};

/// Estimates [λ_min, λ_max] of the dim×dim operator `apply` with
/// `iterations` of (block-size-1) Lanczos plus safety margins (Chebyshev
/// needs the true spectrum enclosed).
SpectralBounds estimate_spectral_bounds(const BlockApply& apply,
                                        std::size_t dim, int iterations = 20,
                                        std::uint64_t seed = 271828);

struct ChebyshevConfig {
  double tolerance = 1e-2;  ///< uniform-approximation target for √λ
  int max_terms = 300;
};

struct ChebyshevStats {
  int terms = 0;           ///< expansion length actually used
  double coeff_tail = 0.0; ///< magnitude of the first dropped coefficient
  /// Per-term convergence curve |c_k|/√λ_max — the Chebyshev analogue of
  /// the Krylov relative-change series, fed to the health monitor.
  std::vector<double> relative_coefficients;
};

/// X ≈ M^{1/2} Z via the Chebyshev expansion over `bounds` (Z is 3n×s).
Matrix chebyshev_sqrt_apply(const BlockApply& apply, const Matrix& z,
                            const SpectralBounds& bounds,
                            const ChebyshevConfig& config = {},
                            ChebyshevStats* stats = nullptr);

}  // namespace hbd
