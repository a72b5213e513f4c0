// Beenakker's Ewald summation of the RPY tensor (paper Sec. II-B, ref. [22]).
// The periodic mobility splits as  M = M_real + M_recip + M_self  with a
// splitting parameter ξ (the paper's α):
//
//   M_real : pairwise tensors decaying like erfc(ξr)/exp(−ξ²r²) in real
//            space (summed over images within a cutoff),
//   M_recip: a lattice sum over wave vectors k ≠ 0 with Gaussian decay
//            exp(−k²/4ξ²),
//   M_self : a constant diagonal correction.
//
// All quantities are scaled by 6πηa (units of the single-particle mobility).
// The total must be independent of ξ — the test suite checks this.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "ewald/rpy.hpp"
#include "linalg/dense_matrix.hpp"

namespace hbd {

/// Real-space pair coefficients (f, g) of Beenakker's M^(1)(r) so that the
/// tensor is f·I + g·r̂r̂ᵀ.  `r` is a minimum-image (or image-shifted)
/// distance, `a` the particle radius, `xi` the Ewald splitting parameter.
PairCoeffs beenakker_real(double r, double a, double xi);

/// Reciprocal-space scalar m_ξ(k) of M^(2)(k) = (I − k̂k̂ᵀ)·m_ξ(|k|)
/// (paper Eq. 5).  `k2` is |k|².  The caller divides by the box volume.
double beenakker_recip(double k2, double a, double xi);

/// Self term M^(0) = (1 − 6ξa/√π + 40 ξ³a³/(3√π)) (coefficient of I).
double beenakker_self(double a, double xi);

// ---- Positively split (PSE) kernel ------------------------------------------
// Beenakker's wave scalar carries the truncated RPY finite-size factor
// (a − a³k²/3) — the two-term Taylor expansion of the exact factor
// a·sinc²(ka) = a·(sin ka / ka)², which is negative for ka > √3.  The PSE
// variant (EwaldKernel::pse, after Fiore et al. arXiv:1611.09322) keeps the
// exact sinc² factor instead: since (1 + x + x²/2)e^{−x} ≤ 1, *both* Ewald
// halves then have nonnegative spectra for every splitting ξ — including
// overlapping pairs, whose RPY branch is exactly the sinc² kernel — so the
// wave part has a real square root (wave-space Brownian sampling) and the
// truncated near-field sum stays positive definite for the split Lanczos.
// The split stays an identity: the real-space pair/self terms are corrected
// by the short-ranged residual Δ(r) = FT⁻¹ of (pse_recip − beenakker_recip).

/// Reciprocal-space scalar of the PSE split:
/// a·sinc²(ka)·(1 + k²/4ξ²)·(6π/k²)·exp(−k²/4ξ²) ≥ 0.  Uses the exact RPY
/// form factor sinc²(ka) and the Hasimoto splitting polynomial (1 + x),
/// whose product with e^{−x} never exceeds 1 — so the complementary
/// real-part spectrum is nonnegative too (both halves PSD at every ξ).
double pse_recip(double k2, double a, double xi);

/// Tabulated real-space correction of the PSE split.  The residual spectrum
/// d(k) = pse_recip − beenakker_recip is smooth (O(k⁴a⁴) at small k) and
/// Gaussian-damped, so its transform Δ(r) = Δf(r)·I + Δg(r)·r̂r̂ᵀ is a
/// short-ranged smooth pair tensor, evaluated once per operator by radial
/// Simpson quadrature
///   Δf = (1/2π²)∫ k² d(k) [j₀(kr) − j₁(kr)/(kr)] dk,
///   Δg = (1/2π²)∫ k² d(k) [3 j₁(kr)/(kr) − j₀(kr)] dk
/// on an `npts`-point grid over [0, rmax] and linearly interpolated during
/// assembly:  pse_real(r) = beenakker_real(r) − Δ(r),
///            pse_self    = beenakker_self    − Δf(0).
/// Each grid point integrates serially (parallel only across points), so the
/// table is bitwise deterministic for any thread count.
class PseRealDelta {
 public:
  PseRealDelta() = default;
  PseRealDelta(double a, double xi, double rmax, std::size_t npts = 8192);

  bool empty() const { return f_.empty(); }
  /// Δ coefficients at pair distance r (clamped into [0, rmax]).
  PairCoeffs delta(double r) const;
  /// Δf(0): the correction to subtract from the Ewald self term.
  double self_delta() const { return self_; }

 private:
  double rmax_ = 0.0, inv_dr_ = 0.0, self_ = 0.0;
  std::vector<double> f_, g_;
};

// ---- Oseen / Stokeslet kernel ------------------------------------------------
// The prior PME-for-Stokes codes the paper contrasts against (refs. [15–17])
// summed the Oseen (Stokeslet) tensor rather than RPY.  The Oseen kernel is
// the a³ → 0 limit of the RPY tensor (point forces, no finite-size
// correction), so by linearity its Ewald split is Beenakker's with the a³
// terms dropped.  Provided for baseline comparisons; the BD drivers use RPY.

/// Real-space Ewald coefficients of the scaled Oseen tensor.
PairCoeffs oseen_real(double r, double a, double xi);

/// Reciprocal-space scalar of the Oseen Ewald sum (Hasimoto function).
double oseen_recip(double k2, double a, double xi);

/// Oseen self term (1 − 6ξa/√π).
double oseen_self(double a, double xi);

/// Scaled free-space Oseen pair tensor (3a/4r)(I + r̂r̂ᵀ).
PairCoeffs oseen_pair(double r, double a);

/// Overlap correction: for r < 2a the plain RPY/Beenakker split must be
/// supplemented by Δ(r) = RPY_overlap(r) − RPY_standard(r), applied to the
/// real-space part (ξ-independent, so the Ewald identity is preserved).
PairCoeffs rpy_overlap_correction(double r, double a);

/// Parameters of a direct (non-mesh) Ewald summation.
struct EwaldParams {
  double xi = 1.0;     ///< splitting parameter (paper's α), units 1/length
  double rcut = 0.0;   ///< real-space cutoff; images with |r+lL| > rcut dropped
  int kmax = 0;        ///< reciprocal sum over integer h with |h|∞ ≤ kmax
};

/// Chooses ξ, rcut and kmax so both half-sums are converged to ~`tol`
/// relative accuracy for a cubic box of width `box`.
EwaldParams ewald_params_for_tolerance(double box, double a, double tol);

/// Dense scaled periodic mobility matrix (3n×3n) via direct Ewald summation
/// — the conventional-BD matrix (Algorithm 1, line 4) and the high-accuracy
/// reference for measuring PME error e_p.  Block (i, j) sums the real-space
/// images |r_ij + lL| ≤ rcut, the wave vectors 0 < |h|∞ ≤ kmax, and the self
/// (i == j) or overlap (|r_ij| < 2a) term.  The reciprocal half is evaluated
/// through per-particle structure factors, O(n·N_k) trig calls in all.
/// Writes into `m` (resized only when its shape differs), so a caller can
/// reuse one allocation across rebuilds.  Bitwise identical for any thread
/// count.
void ewald_mobility_dense(std::span<const Vec3> pos, double box, double a,
                          const EwaldParams& p, Matrix& m);
Matrix ewald_mobility_dense(std::span<const Vec3> pos, double box, double a,
                            const EwaldParams& p);

/// y = M x without forming M (direct Ewald): an O(n²) real-space pair loop
/// plus an O(n·N_k) structure-factor reciprocal half.  Reference operator
/// for tests and e_p probes against PME.
void ewald_mobility_apply(std::span<const Vec3> pos, double box, double a,
                          const EwaldParams& p, std::span<const double> x,
                          std::span<double> y);

}  // namespace hbd
