// Tests for the PME machinery: B-spline properties, interpolation-matrix
// algebra (spreading = Pᵀ, interpolation = P, adjointness, independent-set
// parallel spreading), the influence function, and — the central
// correctness check — PME(f) against the direct Ewald mobility product.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "ewald/beenakker.hpp"
#include "hybrid/perf_model.hpp"
#include "linalg/blas.hpp"
#include "obs/telemetry.hpp"
#include "pme/bspline.hpp"
#include "pme/influence.hpp"
#include "pme/interp_matrix.hpp"
#include "pme/lagrange.hpp"
#include "pme/params.hpp"
#include "pme/pme_operator.hpp"
#include "pme/realspace.hpp"
#include "pme/validate.hpp"

namespace hbd {
namespace {

std::vector<Vec3> random_positions(std::size_t n, double box,
                                   std::uint64_t seed) {
  std::vector<Vec3> pos(n);
  Xoshiro256 rng(seed);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  return pos;
}

// ---- B-splines --------------------------------------------------------------

class BsplineOrders : public ::testing::TestWithParam<int> {};

TEST_P(BsplineOrders, PartitionOfUnity) {
  const int p = GetParam();
  double w[16];
  for (double u : {0.0, 0.123, 0.5, 0.987, 3.7, -2.3, 100.42}) {
    bspline_weights(u, p, w);
    const double sum = std::accumulate(w, w + p, 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-13) << "u=" << u << " p=" << p;
    for (int j = 0; j < p; ++j) EXPECT_GE(w[j], -1e-15);
  }
}

TEST_P(BsplineOrders, WeightsMatchBsplineValue) {
  const int p = GetParam();
  const double u = 7.3125;
  double w[16];
  bspline_weights(u, p, w);
  const long base = bspline_base(u, p);
  for (int j = 0; j < p; ++j)
    EXPECT_NEAR(w[j], bspline_value(u - static_cast<double>(base + j), p),
                1e-12);
}

TEST_P(BsplineOrders, FirstMomentInterpolatesLinear) {
  // B-splines reproduce linear functions: Σ_k (base+k)·w_k = u − p/2
  // (cardinal B-spline centered at p/2).
  const int p = GetParam();
  const double u = 5.678;
  double w[16];
  bspline_weights(u, p, w);
  const long base = bspline_base(u, p);
  double m1 = 0.0;
  for (int j = 0; j < p; ++j) m1 += static_cast<double>(base + j) * w[j];
  EXPECT_NEAR(m1, u - 0.5 * p, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Orders, BsplineOrders, ::testing::Values(2, 4, 6, 8));

TEST(Bspline, ValueSymmetric) {
  // M_p(x) = M_p(p − x)
  for (int p : {4, 6}) {
    for (double x : {0.3, 1.1, 2.0}) {
      EXPECT_NEAR(bspline_value(x, p), bspline_value(p - x, p), 1e-13);
    }
  }
}

TEST(Bspline, BsqRejectsOddOrder) { EXPECT_THROW(bspline_bsq(32, 5), Error); }

TEST(Bspline, BsqPositiveFinite) {
  for (int p : {4, 6, 8}) {
    const auto bsq = bspline_bsq(64, p);
    for (double v : bsq) {
      EXPECT_GT(v, 0.0);
      EXPECT_TRUE(std::isfinite(v));
    }
    // b(0) normalizes to 1 (partition of unity at zero frequency).
    EXPECT_NEAR(bsq[0], 1.0, 1e-12);
  }
}

// ---- Interpolation matrix ---------------------------------------------------

TEST(InterpMatrix, SpreadConservesEachComponent) {
  // Σ_mesh Pᵀf = Σ_i f_i because each row of P sums to 1.
  const std::size_t n = 40, mesh = 24;
  const double box = 10.0;
  const auto pos = random_positions(n, box, 3);
  InterpMatrix p(pos, box, mesh, 6);
  std::vector<double> f(3 * n);
  Xoshiro256 rng(4);
  fill_gaussian(rng, f);
  std::vector<double> fx(mesh * mesh * mesh), fy(fx.size()), fz(fx.size());
  p.spread(f, fx.data(), fy.data(), fz.data());
  double sx = 0.0, sy = 0.0, sz = 0.0, tx = 0.0, ty = 0.0, tz = 0.0;
  for (std::size_t t = 0; t < fx.size(); ++t) {
    sx += fx[t];
    sy += fy[t];
    sz += fz[t];
  }
  for (std::size_t i = 0; i < n; ++i) {
    tx += f[3 * i];
    ty += f[3 * i + 1];
    tz += f[3 * i + 2];
  }
  EXPECT_NEAR(sx, tx, 1e-10);
  EXPECT_NEAR(sy, ty, 1e-10);
  EXPECT_NEAR(sz, tz, 1e-10);
}

TEST(InterpMatrix, SpreadInterpolateAdjoint) {
  // ⟨Pᵀf, U⟩ = ⟨f, P U⟩ for random f and U, component-wise.
  const std::size_t n = 25, mesh = 20;
  const double box = 8.0;
  const auto pos = random_positions(n, box, 7);
  InterpMatrix p(pos, box, mesh, 4);
  const std::size_t m3 = mesh * mesh * mesh;

  std::vector<double> f(3 * n), u(3 * n);
  std::vector<double> ux(m3), uy(m3), uz(m3);
  Xoshiro256 rng(8);
  fill_gaussian(rng, f);
  fill_gaussian(rng, ux);
  fill_gaussian(rng, uy);
  fill_gaussian(rng, uz);

  std::vector<double> fx(m3), fy(m3), fz(m3);
  p.spread(f, fx.data(), fy.data(), fz.data());
  p.interpolate(ux.data(), uy.data(), uz.data(), u);

  double lhs = 0.0;
  for (std::size_t t = 0; t < m3; ++t)
    lhs += fx[t] * ux[t] + fy[t] * uy[t] + fz[t] * uz[t];
  const double rhs = dot(f, u);
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(rhs) + 1e-9);
}

TEST(InterpMatrix, OnTheFlyMatchesPrecomputed) {
  const std::size_t n = 60, mesh = 30;
  const double box = 12.0;
  const auto pos = random_positions(n, box, 11);
  InterpMatrix pre(pos, box, mesh, 6, /*precompute=*/true);
  InterpMatrix otf(pos, box, mesh, 6, /*precompute=*/false);
  EXPECT_LT(otf.bytes(), pre.bytes());

  const std::size_t m3 = mesh * mesh * mesh;
  std::vector<double> f(3 * n);
  Xoshiro256 rng(12);
  fill_gaussian(rng, f);
  std::vector<double> a(m3), b(m3), c(m3), a2(m3), b2(m3), c2(m3);
  pre.spread(f, a.data(), b.data(), c.data());
  otf.spread(f, a2.data(), b2.data(), c2.data());
  for (std::size_t t = 0; t < m3; ++t) {
    ASSERT_NEAR(a[t], a2[t], 1e-13);
    ASSERT_NEAR(b[t], b2[t], 1e-13);
    ASSERT_NEAR(c[t], c2[t], 1e-13);
  }
  std::vector<double> u1(3 * n), u2(3 * n);
  pre.interpolate(a.data(), b.data(), c.data(), u1);
  otf.interpolate(a.data(), b.data(), c.data(), u2);
  for (std::size_t i = 0; i < 3 * n; ++i) ASSERT_NEAR(u1[i], u2[i], 1e-13);
}

TEST(InterpMatrix, SerialFallbackForTinyMesh) {
  // mesh = 8 with p = 6 cannot host two blocks of side ≥ 6 per dimension.
  const auto pos = random_positions(10, 4.0, 13);
  InterpMatrix p(pos, 4.0, 8, 6);
  EXPECT_EQ(p.num_independent_sets(), 1);
  // Spreading still works.
  std::vector<double> f(30, 1.0), fx(512), fy(512), fz(512);
  p.spread(f, fx.data(), fy.data(), fz.data());
  EXPECT_NEAR(std::accumulate(fx.begin(), fx.end(), 0.0), 10.0, 1e-10);
}

TEST(InterpMatrix, EightIndependentSetsForLargeMesh) {
  const auto pos = random_positions(50, 10.0, 17);
  InterpMatrix p(pos, 10.0, 48, 4);
  EXPECT_EQ(p.num_independent_sets(), 8);
}

TEST(InterpMatrix, PositionsOutsideBoxAreWrapped) {
  const std::size_t mesh = 16;
  const double box = 8.0;
  std::vector<Vec3> inside{{1.0, 2.0, 3.0}};
  std::vector<Vec3> outside{{1.0 + box, 2.0 - 3 * box, 3.0 + 2 * box}};
  InterpMatrix pi(inside, box, mesh, 4), po(outside, box, mesh, 4);
  std::vector<double> f{1.0, -2.0, 0.5};
  const std::size_t m3 = mesh * mesh * mesh;
  std::vector<double> a(m3), b(m3), c(m3), a2(m3), b2(m3), c2(m3);
  pi.spread(f, a.data(), b.data(), c.data());
  po.spread(f, a2.data(), b2.data(), c2.data());
  for (std::size_t t = 0; t < m3; ++t) ASSERT_EQ(a[t], a2[t]);
}

// ---- Influence function -----------------------------------------------------

TEST(Influence, ZeroModeKilled) {
  InfluenceFunction infl(16, 8.0, 1.0, 0.5, 4);
  EXPECT_EQ(infl.scalar_at(0, 0, 0), 0.0);
}

TEST(Influence, ScalarMatchesFormulaAtGenericPoint) {
  const std::size_t mesh = 16;
  const double box = 8.0, a = 1.0, xi = 0.5;
  const int p = 4;
  InfluenceFunction infl(mesh, box, a, xi, p);
  const auto bsq = bspline_bsq(mesh, p);
  const double two_pi_over_l = 2.0 * M_PI / box;
  // Point (3, 14, 5): h = (3, −2, 5).
  const double kx = two_pi_over_l * 3, ky = two_pi_over_l * -2,
               kz = two_pi_over_l * 5;
  const double k2 = kx * kx + ky * ky + kz * kz;
  const double expected = beenakker_recip(k2, a, xi) / (box * box * box) *
                          bsq[3] * bsq[14] * bsq[5];
  EXPECT_NEAR(infl.scalar_at(3, 14, 5), expected, 1e-15 + 1e-10 * expected);
}

TEST(Influence, ApplyProjectsOutLongitudinal) {
  // After application, the spectrum must be orthogonal to k at every mode.
  const std::size_t mesh = 12;
  InfluenceFunction infl(mesh, 6.0, 1.0, 0.8, 4);
  const std::size_t nzh = mesh / 2 + 1;
  std::vector<Complex> cx(mesh * mesh * nzh), cy(cx.size()), cz(cx.size());
  Xoshiro256 rng(23);
  for (std::size_t t = 0; t < cx.size(); ++t) {
    cx[t] = {rng.next_gaussian(), rng.next_gaussian()};
    cy[t] = {rng.next_gaussian(), rng.next_gaussian()};
    cz[t] = {rng.next_gaussian(), rng.next_gaussian()};
  }
  infl.apply(cx.data(), cy.data(), cz.data());
  const long k = static_cast<long>(mesh);
  for (std::size_t k1 = 0; k1 < mesh; ++k1) {
    const long h1 = static_cast<long>(k1) <= k / 2 ? k1 : k1 - k;
    for (std::size_t k2i = 0; k2i < mesh; ++k2i) {
      const long h2 = static_cast<long>(k2i) <= k / 2 ? k2i : k2i - k;
      for (std::size_t k3 = 0; k3 < nzh; ++k3) {
        const std::size_t t = (k1 * mesh + k2i) * nzh + k3;
        const Complex kdot = static_cast<double>(h1) * cx[t] +
                             static_cast<double>(h2) * cy[t] +
                             static_cast<double>(k3) * cz[t];
        EXPECT_LT(std::abs(kdot), 1e-10);
      }
    }
  }
}

// ---- Real-space operator ----------------------------------------------------

TEST(Realspace, MatchesPairwiseReference) {
  const std::size_t n = 30;
  const double box = 12.0, a = 1.0, xi = 0.6, rmax = 4.5;
  const auto pos = random_positions(n, box, 29);
  const Bcsr3Matrix m = build_realspace_operator(pos, box, a, xi, rmax);
  const Matrix dense = m.to_dense();
  EXPECT_LT(dense.asymmetry(), 1e-12);

  // Reference: brute-force pairs.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::array<double, 9> expected{};
      if (i == j) {
        const double s = beenakker_self(a, xi);
        expected = {s, 0, 0, 0, s, 0, 0, 0, s};
      } else {
        Vec3 d = pos[i] - pos[j];
        for (int c = 0; c < 3; ++c) d[c] -= box * std::round(d[c] / box);
        const double r = norm(d);
        if (r <= rmax) {
          PairCoeffs pc = beenakker_real(r, a, xi);
          if (r < 2.0 * a) {
            const PairCoeffs corr = rpy_overlap_correction(r, a);
            pc.f += corr.f;
            pc.g += corr.g;
          }
          pair_tensor(d, pc, expected);
        }
      }
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
          ASSERT_NEAR(dense(3 * i + r, 3 * j + c), expected[3 * r + c], 1e-12)
              << "i=" << i << " j=" << j;
    }
  }
}

TEST(Realspace, RejectsCutoffBeyondHalfBox) {
  const auto pos = random_positions(5, 8.0, 31);
  EXPECT_THROW(build_realspace_operator(pos, 8.0, 1.0, 0.5, 4.1), Error);
}

// ---- Full PME vs direct Ewald ----------------------------------------------

struct PmeAccuracyCase {
  std::size_t mesh;
  int order;
  double rmax;
  double max_error;  // expected e_p bound
};

class PmeAccuracy : public ::testing::TestWithParam<PmeAccuracyCase> {};

TEST_P(PmeAccuracy, MatchesDirectEwald) {
  const auto cfg = GetParam();
  const std::size_t n = 50;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 41);

  PmeParams pp;
  pp.mesh = cfg.mesh;
  pp.order = cfg.order;
  pp.rmax = std::min(cfg.rmax, 0.499 * box);
  // ξ from the cutoff: erfc-decay converged to ~1e-9 at rmax.
  pp.xi = std::sqrt(std::log(1e9)) / pp.rmax;

  PmeOperator pme(pos, box, a, pp);
  std::vector<double> f(3 * n), u_pme(3 * n), u_exact(3 * n);
  Xoshiro256 rng(42);
  fill_gaussian(rng, f);
  pme.apply(f, u_pme);

  const EwaldParams ep = ewald_params_for_tolerance(box, a, 1e-12);
  ewald_mobility_apply(pos, box, a, ep, f, u_exact);

  std::vector<double> diff(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = u_pme[i] - u_exact[i];
  const double rel = nrm2(diff) / nrm2(u_exact);
  EXPECT_LT(rel, cfg.max_error) << "K=" << cfg.mesh << " p=" << cfg.order;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PmeAccuracy,
    ::testing::Values(PmeAccuracyCase{32, 4, 6.0, 2e-2},
                      PmeAccuracyCase{48, 4, 6.0, 5e-3},
                      PmeAccuracyCase{48, 6, 6.0, 2e-3},
                      PmeAccuracyCase{64, 6, 6.0, 5e-4},
                      PmeAccuracyCase{64, 8, 6.0, 2e-4},
                      PmeAccuracyCase{96, 8, 6.0, 5e-5}));

TEST(Pme, OnTheFlyMatchesPrecomputed) {
  const std::size_t n = 40;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 51);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  PmeOperator pre(pos, box, a, pp);
  pp.precompute_interp = false;
  PmeOperator otf(pos, box, a, pp);
  std::vector<double> f(3 * n), u1(3 * n), u2(3 * n);
  Xoshiro256 rng(52);
  fill_gaussian(rng, f);
  pre.apply(f, u1);
  otf.apply(f, u2);
  for (std::size_t i = 0; i < 3 * n; ++i) ASSERT_NEAR(u1[i], u2[i], 1e-12);
}

TEST(Pme, OperatorIsSymmetric) {
  // ⟨g, M f⟩ = ⟨f, M g⟩.
  const std::size_t n = 35;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.1);
  const auto pos = random_positions(n, box, 61);
  PmeOperator pme(pos, box, a, choose_pme_params(box, a, 1e-3));
  std::vector<double> f(3 * n), g(3 * n), mf(3 * n), mg(3 * n);
  Xoshiro256 rng(62);
  fill_gaussian(rng, f);
  fill_gaussian(rng, g);
  pme.apply(f, mf);
  pme.apply(g, mg);
  const double lhs = dot(g, mf), rhs = dot(f, mg);
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs));
}

TEST(Pme, BlockApplyMatchesColumnwise) {
  const std::size_t n = 20, s = 5;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.15);
  const auto pos = random_positions(n, box, 71);
  PmeOperator pme(pos, box, a, choose_pme_params(box, a, 1e-3));

  Matrix f(3 * n, s), u(3 * n, s);
  Xoshiro256 rng(72);
  fill_gaussian(rng, {f.data(), 3 * n * s});
  pme.apply_block(f, u);

  std::vector<double> fc(3 * n), uc(3 * n);
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t i = 0; i < 3 * n; ++i) fc[i] = f(i, c);
    pme.apply(fc, uc);
    for (std::size_t i = 0; i < 3 * n; ++i)
      ASSERT_NEAR(u(i, c), uc[i], 1e-11) << "col " << c;
  }
}

// ---- Batched block reciprocal pipeline --------------------------------------

struct BatchedCase {
  std::size_t s;
  InterpKind kind;
};

class PmeBatched : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(PmeBatched, BlockApplyMatchesColumnwiseReference) {
  // The batched pipeline (spread_block → forward_batch → apply_batch →
  // inverse_batch → interpolate_block) must agree with the unbatched
  // column-by-column apply_real + apply_recip to ≤1e-12 relative error.
  const auto cfg = GetParam();
  const std::size_t n = 30, s = cfg.s;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.15);
  const auto pos = random_positions(n, box, 171);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.interp = cfg.kind;
  PmeOperator pme(pos, box, a, pp);

  Matrix f(3 * n, s), u(3 * n, s);
  Xoshiro256 rng(172);
  fill_gaussian(rng, {f.data(), 3 * n * s});
  pme.apply_block(f, u);

  std::vector<double> fc(3 * n), uk(3 * n), ur(3 * n);
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t i = 0; i < 3 * n; ++i) fc[i] = f(i, c);
    pme.apply_recip(fc, uk);
    pme.apply_real(fc, ur);
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const double ref = uk[i] + ur[i];
      const double d = u(i, c) - ref;
      err2 += d * d;
      ref2 += ref * ref;
    }
  }
  EXPECT_LT(std::sqrt(err2), 1e-12 * std::sqrt(ref2));
}

TEST_P(PmeBatched, RecipBlockMatchesRecipColumns) {
  const auto cfg = GetParam();
  const std::size_t n = 25, s = cfg.s;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 181);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.interp = cfg.kind;
  PmeOperator pme(pos, box, a, pp);

  Matrix f(3 * n, s), u(3 * n, s);
  Xoshiro256 rng(182);
  fill_gaussian(rng, {f.data(), 3 * n * s});
  pme.apply_recip_block(f, u);

  std::vector<double> fc(3 * n), uc(3 * n);
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t i = 0; i < 3 * n; ++i) fc[i] = f(i, c);
    pme.apply_recip(fc, uc);
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const double d = u(i, c) - uc[i];
      err2 += d * d;
      ref2 += uc[i] * uc[i];
    }
  }
  EXPECT_LT(std::sqrt(err2), 1e-12 * std::sqrt(ref2));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndKinds, PmeBatched,
    ::testing::Values(BatchedCase{1, InterpKind::bspline},
                      BatchedCase{4, InterpKind::bspline},
                      BatchedCase{16, InterpKind::bspline},
                      BatchedCase{1, InterpKind::lagrange},
                      BatchedCase{4, InterpKind::lagrange},
                      BatchedCase{16, InterpKind::lagrange}));

TEST(PmeBatchedDeterminism, RepeatedBlockApplyIsBitwiseIdentical) {
  const std::size_t n = 30, s = 6;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 191);
  PmeOperator pme(pos, box, a, choose_pme_params(box, a, 1e-3));
  Matrix f(3 * n, s), u1(3 * n, s), u2(3 * n, s);
  Xoshiro256 rng(192);
  fill_gaussian(rng, {f.data(), 3 * n * s});
  pme.apply_block(f, u1);
  pme.apply_block(f, u2);
  for (std::size_t i = 0; i < 3 * n * s; ++i)
    ASSERT_EQ(u1.data()[i], u2.data()[i]) << "i=" << i;
}

TEST(PmeBatched, OnTheFlyBlockMatchesPrecomputed) {
  const std::size_t n = 25, s = 5;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 201);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  PmeOperator pre(pos, box, a, pp);
  pp.precompute_interp = false;
  PmeOperator otf(pos, box, a, pp);
  Matrix f(3 * n, s), u1(3 * n, s), u2(3 * n, s);
  Xoshiro256 rng(202);
  fill_gaussian(rng, {f.data(), 3 * n * s});
  pre.apply_block(f, u1);
  otf.apply_block(f, u2);
  for (std::size_t i = 0; i < 3 * n * s; ++i)
    ASSERT_NEAR(u1.data()[i], u2.data()[i], 1e-12);
}

TEST(Pme, RealPlusRecipEqualsApply) {
  const std::size_t n = 25;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 81);
  PmeOperator pme(pos, box, a, choose_pme_params(box, a, 1e-3));
  std::vector<double> f(3 * n), u(3 * n), ur(3 * n), uk(3 * n);
  Xoshiro256 rng(82);
  fill_gaussian(rng, f);
  pme.apply(f, u);
  pme.apply_real(f, ur);
  pme.apply_recip(f, uk);
  for (std::size_t i = 0; i < 3 * n; ++i)
    ASSERT_NEAR(u[i], ur[i] + uk[i], 1e-12);
}

TEST(Pme, TimersAccumulatePhases) {
  const std::size_t n = 10;
  const double box = 10.0;
  const auto pos = random_positions(n, box, 91);
  PmeOperator pme(pos, box, 1.0, choose_pme_params(box, 1.0, 1e-2));
  std::vector<double> f(3 * n, 1.0), u(3 * n);
  pme.apply(f, u);
  const long expected = obs::kEnabled ? 1 : 0;
  for (const char* phase :
       {"spreading", "fft", "influence", "ifft", "interpolation"}) {
    EXPECT_EQ(pme.timers().count(phase), expected) << phase;
  }
  pme.clear_timers();
  EXPECT_EQ(pme.timers().count("fft"), 0);
}

// ---- Parameter selection ----------------------------------------------------

TEST(Params, NiceFftSizes) {
  EXPECT_EQ(nice_fft_size(4), 4u);
  EXPECT_EQ(nice_fft_size(5), 6u);
  EXPECT_EQ(nice_fft_size(33), 36u);
  EXPECT_EQ(nice_fft_size(65), 72u);
  EXPECT_EQ(nice_fft_size(97), 100u);
  EXPECT_EQ(nice_fft_size(129), 144u);
  EXPECT_EQ(nice_fft_size(257), 270u);
}

TEST(Params, VolumeFractionRoundTrip) {
  const double box = box_for_volume_fraction(1000, 1.0, 0.2);
  const double phi = 1000 * 4.0 / 3.0 * M_PI / (box * box * box);
  EXPECT_NEAR(phi, 0.2, 1e-12);
}

TEST(Params, TighterTargetGivesLargerMesh) {
  const double box = 30.0;
  const PmeParams loose = choose_pme_params(box, 1.0, 1e-2);
  const PmeParams tight = choose_pme_params(box, 1.0, 1e-5);
  EXPECT_GE(tight.mesh, loose.mesh);
  EXPECT_GT(tight.xi, 0.0);
  EXPECT_LE(loose.rmax, 0.5 * box);
}

// The chooser's contract, measured: on random suspensions over the grid
// n × Φ × ep, the e_p of the chosen parameters against the high-resolution
// reference stays at or below the target.
TEST(Params, ChosenParamsMeetTargetOnGrid) {
  for (const std::size_t n : {64u, 500u, 2000u}) {
    for (const double phi : {0.1, 0.2, 0.3}) {
      Xoshiro256 rng(2014);
      const ParticleSystem sys =
          suspension_at_volume_fraction(n, phi, 1.0, rng);
      const std::vector<Vec3> pos = sys.wrapped_positions();
      for (const double ep : {1e-2, 1e-3, 1e-4}) {
        const PmeParams pp = choose_pme_params(sys.box, 1.0, ep);
        const double measured = measure_pme_error(pos, sys.box, 1.0, pp);
        EXPECT_LE(measured, ep)
            << "n=" << n << " phi=" << phi << " rmax=" << pp.rmax
            << " xi=" << pp.xi << " K=" << pp.mesh;
      }
    }
  }
}

TEST(Params, PinnedCutoffIsHonoured) {
  const double box = 30.0;
  EXPECT_EQ(choose_pme_params(box, 1.0, 1e-3, 5.0).rmax, 5.0);
  EXPECT_EQ(choose_pme_params(box, 2.0, 1e-3, 5.0).rmax, 10.0);
  // Capped at the minimum-image bound.
  EXPECT_EQ(choose_pme_params(box, 1.0, 1e-3, 40.0).rmax, 15.0);
  // A pinned cutoff gets the same (ξ, K) as the unpinned choice at its r_max.
  const PmeParams free = choose_pme_params(box, 1.0, 1e-3);
  const PmeParams pinned = choose_pme_params(box, 1.0, 1e-3, free.rmax);
  EXPECT_EQ(pinned.xi, free.xi);
  EXPECT_EQ(pinned.mesh, free.mesh);
}

TEST(Params, ScalesWithRadius) {
  // Lengths in radii: doubling a and L doubles r_max and halves ξ, with
  // the same mesh.
  const PmeParams one = choose_pme_params(25.0, 1.0, 1e-3);
  const PmeParams two = choose_pme_params(50.0, 2.0, 1e-3);
  EXPECT_DOUBLE_EQ(two.rmax, 2.0 * one.rmax);
  EXPECT_DOUBLE_EQ(two.xi, 0.5 * one.xi);
  EXPECT_EQ(two.mesh, one.mesh);
}

TEST(Params, FreeCutoffMinimizesModeledStepCost) {
  // The unpinned cutoff is the argmin of the CPU-only step cost on
  // westmere_ep() at Φ = 0.2: no pinned cutoff prices cheaper.
  const double box = box_for_volume_fraction(500, 1.0, 0.2);
  const std::size_t n = 500;
  const PmePerfModel model(westmere_ep());
  auto cost = [&](const PmeParams& p) {
    return model.t_pme_step(n, box, p.rmax, p.mesh, p.order, PmeStepShape{});
  };
  const PmeParams best = choose_pme_params(box, 1.0, 1e-3);
  EXPECT_GT(best.rmax, 5.0);
  for (double r = 4.0; r <= 0.5 * box; r += 0.25)
    EXPECT_GE(cost(choose_pme_params(box, 1.0, 1e-3, r)), cost(best))
        << "r_max " << r;
  // Deterministic: a second call returns the identical parameters.
  const PmeParams again = choose_pme_params(box, 1.0, 1e-3);
  EXPECT_EQ(again.rmax, best.rmax);
  EXPECT_EQ(again.xi, best.xi);
  EXPECT_EQ(again.mesh, best.mesh);
}

// Wide boxes at tight targets: below some cutoff no mesh up to K = 1024
// meets the target (at 4a and ep = 1e-4, any box wider than ~160a).  The
// unpinned sweep skips those cutoffs, and only a pinned one throws.
TEST(Params, UnreachableCutoffsAreSkipped) {
  const double box = 250.0, ep = 1e-4;
  EXPECT_THROW(choose_pme_params(box, 1.0, ep, 4.0), Error);
  const PmeParams p = choose_pme_params(box, 1.0, ep);
  EXPECT_GT(p.rmax, 4.0);
  EXPECT_LE(p.mesh, 1024u);
  const PmeParams pinned = choose_pme_params(box, 1.0, ep, p.rmax);
  EXPECT_EQ(pinned.xi, p.xi);
  EXPECT_EQ(pinned.mesh, p.mesh);
  // A cost that never stops the sweep visits every reachable cutoff of the
  // quarter-radius grid, ending at box/2.
  std::vector<double> visited;
  sweep_pme_cutoffs(box, ep, 6, [&](const PmeParams& c) {
    visited.push_back(c.rmax);
    return 0.0;
  });
  ASSERT_FALSE(visited.empty());
  EXPECT_GT(visited.front(), 4.0);
  EXPECT_EQ(visited.back(), 0.5 * box);
  for (std::size_t i = 1; i < visited.size(); ++i)
    EXPECT_EQ(visited[i] - visited[i - 1], 0.25) << visited[i];
}

TEST(Params, UnreachableAtEveryCutoffThrows) {
  // No cutoff up to box/2 = 10a reaches 1e-15 with K <= 1024 (1e-12 needs
  // r_max = 10a and K = 500 here).
  EXPECT_NO_THROW(choose_pme_params(20.0, 1.0, 1e-12));
  EXPECT_THROW(choose_pme_params(20.0, 1.0, 1e-15), Error);
}

TEST(Params, UncalibratedOrderRejected) {
  EXPECT_THROW(choose_pme_params(30.0, 1.0, 1e-3, std::nullopt, 5), Error);
}

// ---- FP32 storage mode ------------------------------------------------------

TEST(Fp32Pme, MatchesFp64WithinRounding) {
  const std::size_t n = 40;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 211);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  PmeOperator p64(pos, box, a, pp);
  pp.precision = Precision::fp32;
  PmeOperator p32(pos, box, a, pp);
  std::vector<double> f(3 * n), u64(3 * n), u32(3 * n);
  Xoshiro256 rng(212);
  fill_gaussian(rng, f);
  p64.apply(f, u64);
  p32.apply(f, u32);
  std::vector<double> diff(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = u32[i] - u64[i];
  // One float rounding per stored value; far below the PME truncation error.
  EXPECT_LT(nrm2(diff) / nrm2(u64), 1e-5);
  EXPECT_GT(nrm2(diff), 0.0);  // the storage mode is actually engaged
}

TEST(Fp32Pme, OnTheFlyMatchesPrecomputedBitwise) {
  // Both paths compute the weight row in double and round it to float once,
  // so precompute on/off must agree bitwise under FP32 storage too.
  const std::size_t n = 30;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 221);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.precision = Precision::fp32;
  PmeOperator pre(pos, box, a, pp);
  pp.precompute_interp = false;
  PmeOperator otf(pos, box, a, pp);
  std::vector<double> f(3 * n), u1(3 * n), u2(3 * n);
  Xoshiro256 rng(222);
  fill_gaussian(rng, f);
  pre.apply_recip(f, u1);
  otf.apply_recip(f, u2);
  for (std::size_t i = 0; i < 3 * n; ++i) ASSERT_EQ(u1[i], u2[i]);
}

TEST(Fp32Pme, SymmetricStorageMatchesFull) {
  const std::size_t n = 40;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.25);
  const auto pos = random_positions(n, box, 231);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.precision = Precision::fp32;
  PmeOperator full(pos, box, a, pp);
  pp.storage = NearFieldStorage::symmetric;
  PmeOperator sym(pos, box, a, pp);
  std::vector<double> f(3 * n), uf(3 * n), us(3 * n);
  Xoshiro256 rng(232);
  fill_gaussian(rng, f);
  full.apply_real(f, uf);
  sym.apply_real(f, us);
  // Both store the identical floats (the symmetric build rounds each block
  // once; mirroring is exact), so only summation order differs.
  std::vector<double> diff(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = us[i] - uf[i];
  EXPECT_LT(nrm2(diff) / nrm2(uf), 1e-12);
}

TEST(Fp32Pme, ChosenParamsStillHitTarget) {
  // The ISSUE acceptance gate: FP32 storage keeps e_p ≤ 5e-3 at parameters
  // chosen for 1e-3 (measured against the high-accuracy direct Ewald sum).
  const std::size_t n = 40;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 101);  // as the FP64 gate above
  const PmeParams pp = choose_pme_params(box, a, 1e-3, 5.0, 6,
                                         Precision::fp32);
  PmeOperator pme(pos, box, a, pp);
  std::vector<double> f(3 * n), u_pme(3 * n), u_exact(3 * n);
  Xoshiro256 rng(102);
  fill_gaussian(rng, f);
  pme.apply(f, u_pme);
  const EwaldParams ep = ewald_params_for_tolerance(box, a, 1e-12);
  ewald_mobility_apply(pos, box, a, ep, f, u_exact);
  std::vector<double> diff(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = u_pme[i] - u_exact[i];
  EXPECT_LT(nrm2(diff) / nrm2(u_exact), 5e-3);
}

// ---- Lagrangian (original PME) interpolation ---------------------------------

class LagrangeOrders : public ::testing::TestWithParam<int> {};

TEST_P(LagrangeOrders, PartitionOfUnity) {
  const int p = GetParam();
  double w[16];
  for (double u : {0.0, 0.31, 0.77, 12.5, -3.2}) {
    lagrange_weights(u, p, w);
    double sum = 0.0;
    for (int j = 0; j < p; ++j) sum += w[j];
    EXPECT_NEAR(sum, 1.0, 1e-12) << "u=" << u;
  }
}

TEST_P(LagrangeOrders, ReproducesLinearExactly) {
  // Lagrange interpolation of order p reproduces polynomials of degree
  // < p exactly; in particular Σ (base+j)·w_j = u (no B-spline shift).
  const int p = GetParam();
  double w[16];
  for (double u : {4.2, 7.91, -1.5}) {
    lagrange_weights(u, p, w);
    const long base = lagrange_base(u, p);
    double m1 = 0.0;
    for (int j = 0; j < p; ++j) m1 += static_cast<double>(base + j) * w[j];
    EXPECT_NEAR(m1, u, 1e-10) << "u=" << u;
  }
}

TEST_P(LagrangeOrders, ExactAtMeshPoints) {
  // At integer u the stencil collapses onto the mesh point itself.
  const int p = GetParam();
  double w[16];
  lagrange_weights(6.0, p, w);
  const long base = lagrange_base(6.0, p);
  for (int j = 0; j < p; ++j)
    EXPECT_NEAR(w[j], (base + j == 6) ? 1.0 : 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Orders, LagrangeOrders, ::testing::Values(2, 4, 6, 8));

TEST(LagrangePme, MatchesDirectEwaldCoarsely) {
  const std::size_t n = 40;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 141);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.interp = InterpKind::lagrange;
  PmeOperator pme(pos, box, a, pp);
  std::vector<double> f(3 * n), u(3 * n), u_exact(3 * n);
  Xoshiro256 rng(142);
  fill_gaussian(rng, f);
  pme.apply(f, u);
  const EwaldParams ep = ewald_params_for_tolerance(box, a, 1e-12);
  ewald_mobility_apply(pos, box, a, ep, f, u_exact);
  std::vector<double> diff(3 * n);
  for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = u[i] - u_exact[i];
  // Lagrangian PME is valid but less accurate than SPME.
  EXPECT_LT(nrm2(diff) / nrm2(u_exact), 5e-2);
}

TEST(LagrangePme, SpmeMoreAccurateAtSameParameters) {
  // The paper's Sec. III-A claim: SPME beats original-PME Lagrangian
  // interpolation at negligible extra cost.
  const std::size_t n = 50;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.2);
  const auto pos = random_positions(n, box, 151);
  PmeParams pp = choose_pme_params(box, a, 1e-3);

  auto error_of = [&](InterpKind kind) {
    PmeParams q = pp;
    q.interp = kind;
    PmeOperator pme(pos, box, a, q);
    std::vector<double> f(3 * n), u(3 * n), u_exact(3 * n);
    Xoshiro256 rng(152);
    fill_gaussian(rng, f);
    pme.apply(f, u);
    const EwaldParams ep = ewald_params_for_tolerance(box, a, 1e-12);
    ewald_mobility_apply(pos, box, a, ep, f, u_exact);
    std::vector<double> diff(3 * n);
    for (std::size_t i = 0; i < 3 * n; ++i) diff[i] = u[i] - u_exact[i];
    return nrm2(diff) / nrm2(u_exact);
  };
  const double e_spme = error_of(InterpKind::bspline);
  const double e_lagr = error_of(InterpKind::lagrange);
  EXPECT_LT(e_spme, e_lagr);
}

TEST(LagrangePme, OperatorStillSymmetric) {
  const std::size_t n = 25;
  const double a = 1.0;
  const double box = box_for_volume_fraction(n, a, 0.15);
  const auto pos = random_positions(n, box, 161);
  PmeParams pp = choose_pme_params(box, a, 1e-3);
  pp.interp = InterpKind::lagrange;
  PmeOperator pme(pos, box, a, pp);
  std::vector<double> f(3 * n), g(3 * n), mf(3 * n), mg(3 * n);
  Xoshiro256 rng(162);
  fill_gaussian(rng, f);
  fill_gaussian(rng, g);
  pme.apply(f, mf);
  pme.apply(g, mg);
  EXPECT_NEAR(dot(g, mf), dot(f, mg), 1e-9 * std::abs(dot(g, mf)));
}

}  // namespace
}  // namespace hbd
