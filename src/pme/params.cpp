#include "pme/params.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "hybrid/perf_model.hpp"

namespace hbd {

std::size_t nice_fft_size(std::size_t target) {
  for (std::size_t k = std::max<std::size_t>(target, 4);; ++k) {
    if (k % 2 != 0) continue;
    std::size_t m = k;
    for (std::size_t f : {2u, 3u, 5u})
      while (m % f == 0) m /= f;
    if (m == 1) return k;
  }
}

namespace {

// ---- Error model (docs/theory.md §14) --------------------------------------
// All lengths in particle radii: xa = ξa, r = r_max/a, xh = ξ·L/K.  Each
// constant bounds every e_p measured against reference_pme_params on
// random suspensions (n = 500–2000, Φ = 0.05–0.3, ξa = 0.2–0.9, K = 12–96)
// in the range 2e-6 ≤ e_p ≤ 2e-2.

/// Real-space truncation: the Beenakker pair tensor's tail beyond r_max is
/// led by (3u² + 4ξ²a²u⁴)·e^{−u²}, u = ξ r_max; summing it over the
/// particles past the cutoff gives the (r_max/a)^{3/4} growth.  Fitted
/// 0.031–0.084 over the measurements (it grows ~Φ^{1/4}, so the bound holds
/// for Φ ≤ 0.3).
constexpr double kRealC = 0.084;

/// Reciprocal truncation at the mesh Nyquist frequency k_c = πK/L: the
/// wave weight's decay e^{−k_c²/4ξ²}.  Fitted where the coarsest meshes
/// saturate; below e_p ≈ 1e-2 interpolation dominates it.
constexpr double kRecipC = 0.25;

/// B-spline interpolation per order p: (c₁(ξa)^α + c₂(ξa)^{−γ})·(ξh)^q.  At
/// a fixed ξh the error is smallest near ξa ≈ 0.3: the particle-size
/// structure of the RPY wave factor grows it at larger ξa, and the larger
/// share of the mobility carried by the mesh grows it at smaller ξa.
/// Least-squares in log e_p with c₁, c₂ raised by the largest residual.
struct InterpFit {
  int order;
  double c1, alpha, c2, gamma, q;
};
constexpr InterpFit kInterpFit[] = {
    {4, 12.26, 5.5745, 3.48e-2, 1.5419, 4.7353},
    {6, 19.36, 4.1846, 6.753e-3, 2.6608, 7.7846},
    {8, 115.4, 4.3047, 5.001e-4, 5.0941, 11.0329},
    {10, 455.1, 4.3730, 1.061e-4, 6.7603, 13.4544},
};

const InterpFit& interp_fit(int order) {
  for (const InterpFit& f : kInterpFit)
    if (f.order == order) return f;
  HBD_CHECK_MSG(false, "no calibrated PME error model for spline order "
                           << order << " (use 4, 6, 8 or 10)");
  return kInterpFit[0];  // unreachable
}

double real_error(double xa, double r) {
  const double u = xa * r, u2 = u * u;
  return kRealC * std::pow(r, 0.75) * (3.0 * u2 + 4.0 * xa * xa * u2 * u2) *
         std::exp(-u2);
}

double mesh_error(double xa, double xh, const InterpFit& fit) {
  const double v = std::numbers::pi / (2.0 * xh);  // k_c / 2ξ
  return kRecipC * std::exp(-v * v) +
         (fit.c1 * std::pow(xa, fit.alpha) + fit.c2 * std::pow(xa, -fit.gamma)) *
             std::pow(xh, fit.q);
}

/// The fitted terms bound the configurations they were fitted on; another
/// configuration of the same (n, Φ) scatters by up to ~20% around them at
/// n = 64 (fewer particles, noisier norm ratio), so the chooser holds the
/// modeled e_p 25% under the target.
constexpr double kScatterMargin = 1.25;

/// The admissible splitting for a pinned cutoff: the smallest nice mesh K
/// for which some ξ meets the target, and at that mesh the ξ minimizing the
/// modeled error.
struct Split {
  double xi = 0.0;
  std::size_t mesh = 0;
};

/// Minimum over ξ of the modeled error at cutoff r and mesh spacing h (both
/// in radii); writes the minimizing ξa.  The real term falls and the mesh
/// term rises with ξ, so the sum is unimodal in ln ξ over u = ξr ∈ [1, 8].
double min_error(double r, double h, const InterpFit& fit, double* xa_out) {
  auto err = [&](double lx) {
    const double xa = std::exp(lx);
    return kScatterMargin * (real_error(xa, r) + mesh_error(xa, xa * h, fit));
  };
  double lo = std::log(1.0 / r), hi = std::log(8.0 / r);
  constexpr double kInvPhi = 0.6180339887498949;
  double m1 = hi - kInvPhi * (hi - lo), m2 = lo + kInvPhi * (hi - lo);
  double e1 = err(m1), e2 = err(m2);
  for (int it = 0; it < 48; ++it) {
    if (e1 <= e2) {
      hi = m2;
      m2 = m1;
      e2 = e1;
      m1 = hi - kInvPhi * (hi - lo);
      e1 = err(m1);
    } else {
      lo = m1;
      m1 = m2;
      e1 = e2;
      m2 = lo + kInvPhi * (hi - lo);
      e2 = err(m2);
    }
  }
  *xa_out = std::exp(0.5 * (lo + hi));
  return err(0.5 * (lo + hi));
}

/// The nice_fft_size values from 4 up to 1024, ascending.
const std::vector<std::size_t>& mesh_sizes() {
  static const std::vector<std::size_t> sizes = [] {
    std::vector<std::size_t> s;
    for (std::size_t k = nice_fft_size(4); k <= 1024; k = nice_fft_size(k + 1))
      s.push_back(k);
    return s;
  }();
  return sizes;
}

/// The admissible splitting at cutoff r, or nothing when no mesh up to
/// K = 1024 meets the target there.
std::optional<Split> split_for_cutoff(double box_a, double r, double ep_target,
                                      int order) {
  const InterpFit& fit = interp_fit(order);
  const auto& sizes = mesh_sizes();
  double xa = 0.0;
  if (min_error(r, box_a / static_cast<double>(sizes.back()), fit, &xa) >
      ep_target)
    return std::nullopt;
  // The modeled error at the best ξ falls monotonically with K: binary
  // search the smallest admissible size at or above the spline order.
  auto first = std::lower_bound(sizes.begin(), sizes.end(),
                                static_cast<std::size_t>(order));
  auto last = sizes.end();
  while (first != last) {
    const auto mid = first + (last - first) / 2;
    if (min_error(r, box_a / static_cast<double>(*mid), fit, &xa) <=
        ep_target)
      last = mid;
    else
      first = mid + 1;
  }
  Split s;
  s.mesh = *first;
  min_error(r, box_a / static_cast<double>(s.mesh), fit, &xa);
  s.xi = xa;  // per radius; scaled by the caller
  return s;
}

/// Volume fraction and run shape the cost sweep prices (paper Table III's
/// suspensions; PmeStepShape's defaults are λ = 16 with six block-Krylov
/// iterations per update).
constexpr double kPricedVolumeFraction = 0.2;

}  // namespace

PmeParams sweep_pme_cutoffs(
    double box_a, double ep_target, int order,
    const std::function<double(const PmeParams&)>& cost) {
  HBD_CHECK(ep_target > 0.0 && ep_target < 1.0);
  HBD_CHECK(box_a > 0.0);
  // Quarter-radius grid from 4a to box/2; ties keep the smaller cutoff.
  // The error target is unreachable below some cutoff and reachable above
  // it, so unreachable cutoffs are skipped.  Past the optimum the
  // real-space work grows as r³, so the sweep stops once a cutoff costs
  // twice the best.
  const double r_hi = 0.5 * box_a;
  std::optional<PmeParams> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int k = 0;; ++k) {
    const double r = std::min(4.0 + 0.25 * k, r_hi);
    if (const std::optional<Split> s =
            split_for_cutoff(box_a, r, ep_target, order)) {
      PmeParams p;
      p.order = order;
      p.rmax = r;
      p.xi = s->xi;
      p.mesh = s->mesh;
      const double t = cost(p);
      if (t < best_cost) {
        best_cost = t;
        best = p;
      }
      if (t > 2.0 * best_cost) break;
    }
    if (r >= r_hi) break;
  }
  HBD_CHECK_MSG(best,
                "PME error target " << ep_target
                                    << " unreachable with K <= 1024 at any "
                                       "cutoff up to box/2 = "
                                    << r_hi << "a");
  return *best;
}

PmeParams choose_pme_params(double box, double radius, double ep_target,
                            std::optional<double> rmax_in_radii, int order,
                            Precision precision) {
  HBD_CHECK(ep_target > 0.0 && ep_target < 1.0);
  HBD_CHECK(box > 0.0 && radius > 0.0);
  const double box_a = box / radius;
  PmeParams p;
  if (rmax_in_radii) {
    const double r = std::min(*rmax_in_radii, 0.5 * box_a);
    HBD_CHECK(r > 0.0);
    const std::optional<Split> s =
        split_for_cutoff(box_a, r, ep_target, order);
    HBD_CHECK_MSG(s, "PME error target "
                         << ep_target
                         << " unreachable with K <= 1024 at r_max = " << r
                         << "a");
    p.rmax = r;
    p.xi = s->xi;
    p.mesh = s->mesh;
  } else {
    // Priced on the paper's host for a suspension at kPricedVolumeFraction.
    const PmePerfModel model(westmere_ep());
    const double n_priced = kPricedVolumeFraction * box_a * box_a * box_a /
                            (4.0 / 3.0 * std::numbers::pi);
    const std::size_t n = std::max<std::size_t>(
        static_cast<std::size_t>(std::lround(n_priced)), 1);
    p = sweep_pme_cutoffs(box_a, ep_target, order, [&](const PmeParams& c) {
      return model.t_pme_step(n, box_a, c.rmax, c.mesh, order,
                              PmeStepShape{});
    });
  }
  p.order = order;
  p.precision = precision;
  p.rmax *= radius;
  p.xi /= radius;
  return p;
}

PmeParams decay_rule_pme_params(double box, double radius, double ep_target,
                                double rmax_in_radii, int order,
                                double decay_shift, Precision precision) {
  HBD_CHECK(ep_target > 0.0 && ep_target < 1.0);
  PmeParams p;
  p.order = order;
  p.precision = precision;
  p.rmax = std::min(rmax_in_radii * radius, 0.5 * box);

  // Real-space truncation: leading decay exp(−ξ²(r−shift)²); converge the
  // pair sum to ~ep/10 at the cutoff.
  const double reff = p.rmax - decay_shift;
  HBD_CHECK(reff > 0.0);
  const double s = std::sqrt(std::log(10.0 / ep_target));
  p.xi = s / reff;

  // Reciprocal truncation at the mesh Nyquist k_c = πK/L: decay
  // exp(−k²/4ξ²); require k_c ≥ 2ξs (plus 30% margin).
  const double kc = 2.0 * p.xi * s * 1.3;
  const std::size_t kmin =
      static_cast<std::size_t>(std::ceil(kc * box / std::numbers::pi));
  p.mesh = nice_fft_size(std::max<std::size_t>(kmin, order));
  return p;
}

PmeParams choose_pme_params_wavespace(double box, double radius,
                                      double ep_target, int order,
                                      Precision precision) {
  PmeParams p = decay_rule_pme_params(box, radius, ep_target, 7.0, order,
                                      2.0 * radius, precision);
  p.kernel = EwaldKernel::pse;
  p.brownian = BrownianMethod::wavespace;
  return p;
}

double box_for_volume_fraction(std::size_t n, double radius, double phi) {
  HBD_CHECK(phi > 0.0 && phi < 1.0);
  const double vol = static_cast<double>(n) * 4.0 / 3.0 * std::numbers::pi *
                     radius * radius * radius / phi;
  return std::cbrt(vol);
}

}  // namespace hbd
