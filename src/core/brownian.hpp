// Brownian displacement samplers.  The fluctuation–dissipation theorem
// requires ⟨g gᵀ⟩ = 2 kB T M Δt (paper Eq. 1); every sampler draws a block
// of λ_RPY displacement vectors from the same mobility:
//
//   * CholeskyBrownianSampler — the conventional route: M = S Sᵀ once, then
//     D = √(2 kB T Δt) · S Z  (Algorithm 1, lines 5–7);
//   * krylov_sqrt_apply (core/krylov.hpp) — the matrix-free route: block
//     Lanczos approximation of M^{1/2} Z (Algorithm 2, line 6);
//   * sample_wavespace_block — the PSE split of the PME mobility.
#pragma once

#include "common/rng.hpp"
#include "core/krylov.hpp"
#include "linalg/dense_matrix.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

/// Draws the i.i.d. standard Gaussian block Z (3n×s, row-major).
Matrix gaussian_block(Xoshiro256& rng, std::size_t dim, std::size_t count);

/// Cholesky-based sampler over an explicit dense mobility matrix.  The
/// factorization is performed once at construction (reused for all blocks
/// drawn from this matrix).
class CholeskyBrownianSampler {
 public:
  explicit CholeskyBrownianSampler(const Matrix& mobility);
  /// Returns D (3n×s): s displacement vectors with covariance
  /// 2 kB T Δt M per column.
  Matrix sample_block(const Matrix& z, double two_kbt_dt) const;

 private:
  Matrix factor_;  // lower-triangular S
};

/// PSE-style split sample (Fiore et al., arXiv:1611.09322) of D (3n×s) with
/// per-column covariance two_kbt_dt·M̃: the far-field displacement is
/// sampled directly in reciprocal space — mesh noise scaled by m_α(k)^{1/2}
/// inside the batched FFT pipeline, ~half a reciprocal apply per block —
/// while Lanczos runs only on the sparse near field, whose
/// self-term-dominated spectrum converges in a few iterations.  The two
/// noise streams are independent (`z` drives the near field, `wave_rng` the
/// mesh noise), so the covariance cross-term vanishes in expectation and
/// ⟨D Dᵀ⟩ = 2 kB T Δt (M_real + M_recip) per column, exactly the
/// fluctuation–dissipation requirement (docs/theory.md §11).  `wave_rng`
/// must be a substream disjoint from whatever produced `z` (see
/// hbd::substream); it is advanced by 3s u64 draws.  `stats` receives the
/// near-field Lanczos convergence.
Matrix sample_wavespace_block(PmeOperator& pme, const Matrix& z,
                              double two_kbt_dt, const KrylovConfig& config,
                              Xoshiro256& wave_rng,
                              KrylovStats* stats = nullptr);

/// Relative error of the sampled Brownian covariance: draws `blocks` blocks
/// of `width` displacement samples at unit 2·kBT·Δt (so cov = M̃) and
/// compares the batch-averaged quadratic form ⟨(xᵀD)²⟩ against the exact
/// xᵀ M̃ x for a few fixed unit probe vectors x; returns the max over
/// probes of |mean − exact| / exact.  All RNG derives from `seed` only
/// (the caller step-seeds it), so probing never perturbs a trajectory.
/// The sampling estimator itself has relative std ≈ sqrt(2 / (blocks·width)).
double measure_sample_covariance_error(PmeOperator& pme,
                                       const KrylovConfig& krylov,
                                       BrownianMethod method,
                                       std::size_t blocks = 8,
                                       std::size_t width = 16,
                                       std::uint64_t seed = 7);

}  // namespace hbd
