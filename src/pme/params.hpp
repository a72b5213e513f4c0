// PME parameter selection.  The paper (Sec. V-C, Table III) chooses, per
// particle count, the mesh K, spline order p, cutoff r_max and splitting α
// that minimize execution time subject to a PME relative-error target
// (e_p ≤ 5·10⁻³ there).  The full procedure is "beyond the scope" of the
// paper; this module implements it with two pieces (docs/theory.md §14):
//
//   * an error model e_p ≈ e_real + e_recip + e_interp — real-space
//     truncation at r_max, reciprocal truncation at the mesh Nyquist
//     frequency, and B-spline interpolation — whose constants are fitted
//     to e_p measured against reference_pme_params, so a chosen splitting
//     meets its target when measured;
//   * a cost sweep: among the cutoffs r_max, the one whose cheapest
//     admissible (ξ, K) minimizes the CPU-only Eq. 10 step cost
//     (PmePerfModel::t_pme_step) on the paper's host, westmere_ep().
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "pme/pme_operator.hpp"

namespace hbd {

/// Smallest integer ≥ `target` that is even and has only factors {2,3,5}
/// (fast FFT sizes).
std::size_t nice_fft_size(std::size_t target);

/// Chooses the fastest PME parameters for a cubic box of width `box`,
/// particles of radius `radius` and spline order `order` (4, 6, 8 or 10)
/// whose modeled e_p meets `ep_target`.  For a cutoff r_max, the mesh K is
/// the smallest FFT size for which some splitting ξ meets the target, and ξ
/// the splitting that meets it with the most margin.  `rmax_in_radii` pins
/// the cutoff (in particle radii, capped at box/2; throws when no K ≤ 1024
/// meets the target there); left unset, r_max is sweep_pme_cutoffs' argmin
/// of PmePerfModel::t_pme_step, priced on westmere_ep() for a suspension at
/// the paper's volume fraction Φ = 0.2 (PmeStepShape{}: λ = 16, six
/// block-Krylov iterations per update), so the choice never depends on
/// timing or on the host.
/// `precision` is forwarded into the returned params: FP32 storage adds a
/// value-rounding error floor of order 1e-7 per stream, far below any
/// reachable ep_target, so the selection itself is precision-independent.
PmeParams choose_pme_params(double box, double radius, double ep_target,
                            std::optional<double> rmax_in_radii = std::nullopt,
                            int order = 6,
                            Precision precision = Precision::fp64);

/// The cutoff sweep behind choose_pme_params, with the cost supplied by the
/// caller; lengths in particle radii (a = 1).  Visits r_max = 4a, 4.25a, …
/// up to box_a/2, each at the (ξ, K) choose_pme_params pins there, and
/// returns the candidate of least `cost` (ties keep the smaller cutoff).
/// Cutoffs where no K ≤ 1024 meets the target are skipped; it throws only
/// when none up to box_a/2 does.  Past the optimum the real-space work
/// grows as r³, so the sweep stops once a candidate costs twice the best.
/// tune_splitting balances its hybrid plan over the same candidates.
PmeParams sweep_pme_cutoffs(
    double box_a, double ep_target, int order,
    const std::function<double(const PmeParams&)>& cost);

/// The uncalibrated Gaussian-decay rule: ξ = s/(r_max − decay_shift) with
/// s = √ln(10/ep), and the smallest FFT mesh whose Nyquist frequency
/// reaches 1.3·2ξs.  It defines the high-resolution reference operator
/// (reference_pme_params) and the wavespace chooser, whose parameters stay
/// bitwise what this rule gives.  It misses its nominal target when the
/// real-space truncation dominates (e_p ≈ 2.9e-3 at ep = 1e-3, r_max = 5a).
PmeParams decay_rule_pme_params(double box, double radius, double ep_target,
                                double rmax_in_radii, int order,
                                double decay_shift = 0.0,
                                Precision precision = Precision::fp64);

/// Parameter choice for wave-space Brownian sampling
/// (BrownianMethod::wavespace): the decay rule at r_max = 7a with the PSE
/// decay shift, the positively-split kernel (EwaldKernel::pse) and
/// `brownian` preset to wavespace.  The split sampler needs both Ewald
/// halves positive semidefinite — the wave table for its direct square
/// root, the near-field sum for the split Lanczos — which Beenakker's
/// kernel cannot provide at any ξ (its wave scalar is negative for
/// ka > √3, and pushing ξ either way only moves the indefiniteness between
/// the halves); the PSE kernel's sinc²(ka) spectra are nonnegative for
/// every ξ, so no ξ restriction is needed.  The PSE real part decays as
/// exp(−ξ²(r−2a)²) — shifted outward by the particle diameter — so ξ is
/// derived from rmax − 2a.
PmeParams choose_pme_params_wavespace(double box, double radius,
                                      double ep_target, int order = 6,
                                      Precision precision = Precision::fp64);

/// Box width for n particles of radius a at volume fraction phi:
/// phi = n·(4/3)πa³ / L³.
double box_for_volume_fraction(std::size_t n, double radius, double phi);

}  // namespace hbd
