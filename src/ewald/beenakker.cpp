#include "ewald/beenakker.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace hbd {

namespace {
constexpr double kInvSqrtPi = 0.5641895835477562869;  // 1/√π
}

PairCoeffs beenakker_real(double r, double a, double xi) {
  HBD_CHECK(r > 0.0);
  const double r2 = r * r;
  const double a3 = a * a * a;
  const double xi3 = xi * xi * xi;
  const double xi5 = xi3 * xi * xi;
  const double xi7 = xi5 * xi * xi;
  const double erfc_t = std::erfc(xi * r);
  const double gauss = std::exp(-xi * xi * r2) * kInvSqrtPi;

  PairCoeffs c;
  c.f = erfc_t * (0.75 * a / r + 0.5 * a3 / (r2 * r)) +
        gauss * (4.0 * xi7 * a3 * r2 * r2 + 3.0 * xi3 * a * r2 -
                 20.0 * xi5 * a3 * r2 - 4.5 * xi * a + 14.0 * xi3 * a3 +
                 xi * a3 / r2);
  c.g = erfc_t * (0.75 * a / r - 1.5 * a3 / (r2 * r)) +
        gauss * (-4.0 * xi7 * a3 * r2 * r2 - 3.0 * xi3 * a * r2 +
                 16.0 * xi5 * a3 * r2 + 1.5 * xi * a - 2.0 * xi3 * a3 -
                 3.0 * xi * a3 / r2);
  return c;
}

double beenakker_recip(double k2, double a, double xi) {
  HBD_CHECK(k2 > 0.0);
  const double a2 = a * a;
  const double ixi2 = 1.0 / (xi * xi);
  // (a − a³k²/3)(1 + k²/4ξ² + k⁴/8ξ⁴)·(6π/k²)·exp(−k²/4ξ²)
  return (a - a * a2 * k2 / 3.0) *
         (1.0 + 0.25 * k2 * ixi2 + 0.125 * k2 * k2 * ixi2 * ixi2) *
         (6.0 * std::numbers::pi / k2) * std::exp(-0.25 * k2 * ixi2);
}

double beenakker_self(double a, double xi) {
  const double xa = xi * a;
  return 1.0 - 6.0 * kInvSqrtPi * xa + 40.0 / 3.0 * kInvSqrtPi * xa * xa * xa;
}

double pse_recip(double k2, double a, double xi) {
  HBD_CHECK(k2 > 0.0);
  const double ixi2 = 1.0 / (xi * xi);
  const double ka = std::sqrt(k2) * a;
  // sinc(ka), series below the rounding knee of sin(x)/x.
  const double sinc =
      ka < 1e-4 ? 1.0 - ka * ka / 6.0 : std::sin(ka) / ka;
  // a·sinc²(ka)·(1 + k²/4ξ²)·(6π/k²)·exp(−k²/4ξ²).  Two deliberate
  // departures from beenakker_recip: the exact RPY form factor sinc²(ka)
  // replaces its 2-term Taylor (a − a³k²/3), which goes negative beyond
  // ka = √3, and the Hasimoto splitting polynomial (1 + x) replaces
  // Beenakker's (1 + x + 2x²), x = k²/4ξ².  Both are essential for the
  // positive split: the wave scalar is a product of nonnegative factors,
  // and the real-part spectrum 6πa·sinc²/k²·[1 − (1+x)e^{−x}] is
  // nonnegative because (1+x)e^{−x} ≤ 1 for x ≥ 0 — a bound Beenakker's
  // polynomial violates by up to 56% (at x = 3/2), which would push the
  // near field indefinite.
  return a * sinc * sinc * (1.0 + 0.25 * k2 * ixi2) *
         (6.0 * std::numbers::pi / k2) * std::exp(-0.25 * k2 * ixi2);
}

PseRealDelta::PseRealDelta(double a, double xi, double rmax,
                           std::size_t npts) {
  HBD_CHECK(a > 0.0 && xi > 0.0 && rmax > 0.0 && npts >= 2);
  rmax_ = rmax;
  inv_dr_ = static_cast<double>(npts - 1) / rmax;
  f_.resize(npts);
  g_.resize(npts);

  // k² d(k) vanishes as k⁴ at the origin and like exp(−k²/4ξ²) beyond a few
  // ξ; Simpson over [0, k_up] with k_up = 2ξ·√(ln 1e16) reaches the damping
  // floor.  ~2k oscillation periods per unit k·rmax keeps 2048 panels ample.
  const double k_up = 2.0 * xi * std::sqrt(std::log(1e16));
  constexpr std::size_t kPanels = 2048;  // even, Simpson pairs
  const double h = k_up / static_cast<double>(kPanels);
  const double dr = rmax / static_cast<double>(npts - 1);

#pragma omp parallel for schedule(static)
  for (std::size_t t = 0; t < npts; ++t) {
    const double r = static_cast<double>(t) * dr;
    double sf = 0.0, sg = 0.0;
    for (std::size_t q = 1; q <= kPanels; ++q) {  // integrand(0) = 0
      const double k = static_cast<double>(q) * h;
      const double d = pse_recip(k * k, a, xi) - beenakker_recip(k * k, a, xi);
      const double x = k * r;
      double j0, j1x;  // j₀(x) and j₁(x)/x
      if (x < 1e-4) {
        j0 = 1.0 - x * x / 6.0;
        j1x = 1.0 / 3.0 - x * x / 30.0;
      } else {
        j0 = std::sin(x) / x;
        j1x = (std::sin(x) / (x * x) - std::cos(x) / x) / x;
      }
      const double w = (q == kPanels) ? 1.0 : (q % 2 == 1 ? 4.0 : 2.0);
      sf += w * k * k * d * (j0 - j1x);
      sg += w * k * k * d * (3.0 * j1x - j0);
    }
    const double scale = h / (3.0 * 2.0 * std::numbers::pi * std::numbers::pi);
    f_[t] = sf * scale;
    g_[t] = sg * scale;
  }
  self_ = f_[0];
}

PairCoeffs PseRealDelta::delta(double r) const {
  HBD_CHECK(!f_.empty());
  const double x = std::clamp(r, 0.0, rmax_) * inv_dr_;
  const std::size_t lo =
      std::min(static_cast<std::size_t>(x), f_.size() - 2);
  const double w = x - static_cast<double>(lo);
  return {f_[lo] + w * (f_[lo + 1] - f_[lo]),
          g_[lo] + w * (g_[lo + 1] - g_[lo])};
}

PairCoeffs oseen_real(double r, double a, double xi) {
  HBD_CHECK(r > 0.0);
  const double r2 = r * r;
  const double xi3 = xi * xi * xi;
  const double erfc_t = std::erfc(xi * r);
  const double gauss = std::exp(-xi * xi * r2) * kInvSqrtPi;
  // Beenakker's real-space sum with every a³ term dropped.
  PairCoeffs c;
  c.f = erfc_t * (0.75 * a / r) +
        gauss * (3.0 * xi3 * a * r2 - 4.5 * xi * a);
  c.g = erfc_t * (0.75 * a / r) +
        gauss * (-3.0 * xi3 * a * r2 + 1.5 * xi * a);
  return c;
}

double oseen_recip(double k2, double a, double xi) {
  HBD_CHECK(k2 > 0.0);
  const double ixi2 = 1.0 / (xi * xi);
  return a * (1.0 + 0.25 * k2 * ixi2 + 0.125 * k2 * k2 * ixi2 * ixi2) *
         (6.0 * std::numbers::pi / k2) * std::exp(-0.25 * k2 * ixi2);
}

double oseen_self(double a, double xi) {
  return 1.0 - 6.0 * kInvSqrtPi * xi * a;
}

PairCoeffs oseen_pair(double r, double a) {
  HBD_CHECK(r > 0.0);
  const double v = 0.75 * a / r;
  return {v, v};
}

PairCoeffs rpy_overlap_correction(double r, double a) {
  if (r >= 2.0 * a) return {0.0, 0.0};
  const PairCoeffs overlap = rpy_pair(r, a);  // overlap branch for r < 2a
  const double ar = a / r;
  const double ar3 = ar * ar * ar;
  const PairCoeffs standard{0.75 * ar + 0.5 * ar3, 0.75 * ar - 1.5 * ar3};
  return {overlap.f - standard.f, overlap.g - standard.g};
}

EwaldParams ewald_params_for_tolerance(double box, double a, double tol) {
  HBD_CHECK(box > 0.0 && tol > 0.0 && tol < 1.0);
  EwaldParams p;
  // Balanced splitting: ξ = √π / L equalizes the asymptotic decay of the
  // two half-sums for a cubic box.
  p.xi = std::sqrt(std::numbers::pi) / box;
  // Real-space: leading error ~ exp(−ξ²r²); solve exp(−ξ²rcut²) = tol.
  const double s = std::sqrt(-std::log(tol));
  p.rcut = (s + 1.0) / p.xi;  // +1: margin for the polynomial prefactors
  // Reciprocal: error ~ exp(−k²/4ξ²) at k = 2π·kmax/L.
  const double kcut = 2.0 * p.xi * (s + 1.0);
  p.kmax = std::max(1, static_cast<int>(std::ceil(kcut * box /
                                                  (2.0 * std::numbers::pi))));
  (void)a;
  return p;
}

// ---- Direct Ewald assembly ---------------------------------------------------
// Same sums as the textbook per-pair evaluation (real images |r + lL| ≤ rcut,
// wave vectors |h|∞ ≤ kmax, self and overlap terms); only the evaluation
// order differs.  The pair-independent reciprocal factors are tabulated once
// per call and cos(k·(r_i − r_j)) is factored into per-particle structure
// factors, so the pair loop calls no transcendental function for the
// reciprocal half (docs/theory.md §2).

namespace {

/// Unique components xx, xy, xz, yy, yz, zz of a symmetric 3×3 block.
using Sym3 = std::array<double, 6>;

void add_pair_tensor(const Vec3& r, double r2, const PairCoeffs& c,
                     Sym3& out) {
  const double gr = c.g / r2;  // g r̂r̂ᵀ = (g/r²) r rᵀ
  out[0] += c.f + gr * r.x * r.x;
  out[1] += gr * r.x * r.y;
  out[2] += gr * r.x * r.z;
  out[3] += c.f + gr * r.y * r.y;
  out[4] += gr * r.y * r.z;
  out[5] += c.f + gr * r.z * r.z;
}

/// Real-space half for one displacement: images |r + lL| ≤ rcut, plus the
/// overlap correction for i ≠ j (the l = 0 image is skipped for i == j).
Sym3 real_space_sum(const Vec3& rij_in, bool self_pair, double box, double a,
                    const EwaldParams& p) {
  Sym3 out{};
  Vec3 rij = rij_in;  // minimum image
  for (int d = 0; d < 3; ++d) rij[d] -= box * std::round(rij[d] / box);
  const int lmax = static_cast<int>(std::ceil(p.rcut / box + 0.5));
  // Prune x- and (x, y)-shifts on partial squared distances against a bound
  // a hair above rcut², so no image the exact test below keeps is skipped.
  const double prune2 = p.rcut * p.rcut * (1.0 + 1e-12);
  for (int lx = -lmax; lx <= lmax; ++lx) {
    const double x = rij.x + box * lx;
    const double x2 = x * x;
    if (x2 > prune2) continue;
    for (int ly = -lmax; ly <= lmax; ++ly) {
      const double y = rij.y + box * ly;
      const double xy2 = x2 + y * y;
      if (xy2 > prune2) continue;
      for (int lz = -lmax; lz <= lmax; ++lz) {
        const double z = rij.z + box * lz;
        const double r2 = xy2 + z * z;
        if (r2 > prune2) continue;
        const double r = std::sqrt(r2);
        if (r > p.rcut) continue;
        if (self_pair && r == 0.0) continue;
        add_pair_tensor({x, y, z}, r2, beenakker_real(r, a, p.xi), out);
      }
    }
  }
  if (!self_pair) {
    const double r2 = norm2(rij);
    if (r2 < 4.0 * a * a)
      add_pair_tensor(rij, r2, rpy_overlap_correction(std::sqrt(r2), a), out);
  }
  return out;
}

/// Reciprocal half, factored.  Over the half space of wave vectors (k and −k
/// give the same even term) W_k = 2·m_ξ(k)/V·(I − k̂k̂ᵀ), so the reciprocal
/// part of block (i, j) is Σ_k W_k·(c_i c_j + s_i s_j) with c_i = cos(k·r_i),
/// s_i = sin(k·r_i).
struct RecipTable {
  std::size_t nk = 0;
  std::vector<Sym3> w;       ///< W_k per wave vector
  std::vector<double> trig;  ///< per particle: nk cosines, then nk sines
  Sym3 sum{};                ///< Σ_k W_k: the reciprocal part of a self block

  const double* cos_of(std::size_t i) const {
    return trig.data() + 2 * nk * i;
  }
  const double* sin_of(std::size_t i) const { return cos_of(i) + nk; }
};

RecipTable recip_table(std::span<const Vec3> pos, double box, double a,
                       const EwaldParams& p) {
  const double two_pi_over_l = 2.0 * std::numbers::pi / box;
  const double inv_v = 1.0 / (box * box * box);
  std::vector<Vec3> ks;
  RecipTable t;
  for (int hx = 0; hx <= p.kmax; ++hx) {
    for (int hy = -p.kmax; hy <= p.kmax; ++hy) {
      for (int hz = -p.kmax; hz <= p.kmax; ++hz) {
        // Half space: the first nonzero of (hx, hy, hz) is positive.
        if (hx == 0 && (hy < 0 || (hy == 0 && hz <= 0))) continue;
        const Vec3 k{two_pi_over_l * hx, two_pi_over_l * hy,
                     two_pi_over_l * hz};
        const double k2 = norm2(k);
        const double m = 2.0 * beenakker_recip(k2, a, p.xi) * inv_v;
        const double ik2 = 1.0 / k2;
        const Sym3 wk{m * (1.0 - k.x * k.x * ik2), m * (-k.x * k.y * ik2),
                      m * (-k.x * k.z * ik2),      m * (1.0 - k.y * k.y * ik2),
                      m * (-k.y * k.z * ik2),      m * (1.0 - k.z * k.z * ik2)};
        for (int c = 0; c < 6; ++c) t.sum[c] += wk[c];
        t.w.push_back(wk);
        ks.push_back(k);
      }
    }
  }
  t.nk = ks.size();
  const std::size_t n = pos.size(), nk = t.nk;
  t.trig.resize(2 * nk * n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    // Phases are lattice-periodic; wrapping keeps their arguments small.
    Vec3 r = pos[i];
    for (int d = 0; d < 3; ++d) r[d] -= box * std::floor(r[d] / box);
    double* c = &t.trig[2 * nk * i];
    for (std::size_t q = 0; q < nk; ++q) {
      const double phase = dot(ks[q], r);
      c[q] = std::cos(phase);
      c[nk + q] = std::sin(phase);
    }
  }
  return t;
}

/// Adds the reciprocal part of block (i, j), in the table's fixed k order.
void add_recip_pair(const RecipTable& t, std::size_t i, std::size_t j,
                    Sym3& out) {
  const double *ci = t.cos_of(i), *si = t.sin_of(i);
  const double *cj = t.cos_of(j), *sj = t.sin_of(j);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0, s5 = 0.0;
  for (std::size_t q = 0; q < t.nk; ++q) {
    const Sym3& w = t.w[q];
    const double phase = ci[q] * cj[q] + si[q] * sj[q];  // cos(k·(r_i − r_j))
    s0 += w[0] * phase;
    s1 += w[1] * phase;
    s2 += w[2] * phase;
    s3 += w[3] * phase;
    s4 += w[4] * phase;
    s5 += w[5] * phase;
  }
  out[0] += s0;
  out[1] += s1;
  out[2] += s2;
  out[3] += s3;
  out[4] += s4;
  out[5] += s5;
}

/// Real images l ≠ 0 of a particle with itself plus the self term M^(0);
/// the same for every particle.
Sym3 self_real_block(double box, double a, const EwaldParams& p) {
  Sym3 b = real_space_sum({0.0, 0.0, 0.0}, true, box, a, p);
  const double s0 = beenakker_self(a, p.xi);
  b[0] += s0;
  b[3] += s0;
  b[5] += s0;
  return b;
}

void store_block(Matrix& m, std::size_t i, std::size_t j, const Sym3& b) {
  const double full[9] = {b[0], b[1], b[2], b[1], b[3], b[4], b[2], b[4], b[5]};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      m(3 * i + r, 3 * j + c) = full[3 * r + c];
      m(3 * j + c, 3 * i + r) = full[3 * r + c];
    }
}

}  // namespace

void ewald_mobility_dense(std::span<const Vec3> pos, double box, double a,
                          const EwaldParams& p, Matrix& m) {
  const std::size_t n = pos.size();
  if (m.rows() != 3 * n || m.cols() != 3 * n) m.resize(3 * n, 3 * n);
  const RecipTable t = recip_table(pos, box, a, p);
  Sym3 self = self_real_block(box, a, p);
  for (int c = 0; c < 6; ++c) self[c] += t.sum[c];  // cos(0) = 1 for every k
  // Block (i, j) and its mirror are written by one thread, summed in a fixed
  // order: bitwise identical for any thread count.
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t i = 0; i < n; ++i) {
    store_block(m, i, i, self);
    for (std::size_t j = i + 1; j < n; ++j) {
      Sym3 b = real_space_sum(pos[i] - pos[j], false, box, a, p);
      add_recip_pair(t, i, j, b);
      store_block(m, i, j, b);
    }
  }
}

Matrix ewald_mobility_dense(std::span<const Vec3> pos, double box, double a,
                            const EwaldParams& p) {
  Matrix m;
  ewald_mobility_dense(pos, box, a, p, m);
  return m;
}

void ewald_mobility_apply(std::span<const Vec3> pos, double box, double a,
                          const EwaldParams& p, std::span<const double> x,
                          std::span<double> y) {
  const std::size_t n = pos.size();
  HBD_CHECK(x.size() == 3 * n && y.size() == 3 * n);
  const RecipTable t = recip_table(pos, box, a, p);
  const std::size_t nk = t.nk;
  const Sym3 self = self_real_block(box, a, p);

  // Structure factors of the force: C_k = Σ_j c_j x_j, S_k = Σ_j s_j x_j.
  std::vector<double> fc(3 * nk), fs(3 * nk);
#pragma omp parallel for schedule(static)
  for (std::size_t q = 0; q < nk; ++q) {
    double c[3] = {0.0, 0.0, 0.0}, s[3] = {0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double cj = t.cos_of(j)[q], sj = t.sin_of(j)[q];
      for (int d = 0; d < 3; ++d) {
        c[d] += cj * x[3 * j + d];
        s[d] += sj * x[3 * j + d];
      }
    }
    for (int d = 0; d < 3; ++d) {
      fc[3 * q + d] = c[d];
      fs[3 * q + d] = s[d];
    }
  }

  auto add_block_times = [](const Sym3& b, const double* v, double* s) {
    s[0] += b[0] * v[0] + b[1] * v[1] + b[2] * v[2];
    s[1] += b[1] * v[0] + b[3] * v[1] + b[4] * v[2];
    s[2] += b[2] * v[0] + b[4] * v[1] + b[5] * v[2];
  };
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t i = 0; i < n; ++i) {
    double s[3] = {0.0, 0.0, 0.0};
    add_block_times(self, &x[3 * i], s);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      add_block_times(real_space_sum(pos[i] - pos[j], false, box, a, p),
                      &x[3 * j], s);
    }
    // Σ_k W_k·(c_i C_k + s_i S_k): the j = i term is W_k x_i (c² + s² = 1).
    const double *ci = t.cos_of(i), *si = t.sin_of(i);
    for (std::size_t q = 0; q < nk; ++q) {
      const double v[3] = {ci[q] * fc[3 * q] + si[q] * fs[3 * q],
                           ci[q] * fc[3 * q + 1] + si[q] * fs[3 * q + 1],
                           ci[q] * fc[3 * q + 2] + si[q] * fs[3 * q + 2]};
      add_block_times(t.w[q], v, s);
    }
    y[3 * i] = s[0];
    y[3 * i + 1] = s[1];
    y[3 * i + 2] = s[2];
  }
}

}  // namespace hbd
