// Tests for the analysis utilities (radial distribution function) and the
// polydisperse RPY mobility.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/rdf.hpp"
#include "core/system.hpp"
#include "ewald/rpy.hpp"
#include "linalg/cholesky.hpp"

namespace hbd {
namespace {

// ---- RDF ---------------------------------------------------------------------

TEST(Rdf, IdealGasIsFlat) {
  // Uncorrelated uniform positions: g(r) ≈ 1 everywhere.
  Xoshiro256 rng(1);
  const double box = 20.0;
  std::vector<Vec3> pos(4000);
  for (auto& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  const Rdf rdf = compute_rdf(pos, box, 8.0, 32);
  for (std::size_t b = 2; b < rdf.g.size(); ++b)
    EXPECT_NEAR(rdf.g[b], 1.0, 0.15) << "r=" << rdf.r[b];
}

TEST(Rdf, ExcludedVolumeHole) {
  // Hard-sphere-like configuration: g(r) = 0 below contact.
  Xoshiro256 rng(2);
  const ParticleSystem sys = random_suspension(200, 16.0, 1.0, 2.0, rng);
  const Rdf rdf = compute_rdf(sys.positions, sys.box, 6.0, 30);
  for (std::size_t b = 0; b < rdf.g.size(); ++b) {
    if (rdf.r[b] < 1.8) {
      EXPECT_EQ(rdf.g[b], 0.0) << "r=" << rdf.r[b];
    }
  }
  // ...and approaches 1 well beyond contact.
  EXPECT_NEAR(rdf.g.back(), 1.0, 0.35);
}

TEST(Rdf, AccumulatorAveragesSnapshots) {
  Xoshiro256 rng(3);
  const double box = 12.0;
  RdfAccumulator acc(box, 5.0, 20);
  for (int s = 0; s < 3; ++s) {
    std::vector<Vec3> pos(300);
    for (auto& p : pos)
      p = {box * rng.next_double(), box * rng.next_double(),
           box * rng.next_double()};
    acc.add_snapshot(pos);
  }
  EXPECT_EQ(acc.snapshots(), 3u);
  const Rdf rdf = acc.result();
  double mean = 0.0;
  for (std::size_t b = 4; b < rdf.g.size(); ++b) mean += rdf.g[b];
  mean /= static_cast<double>(rdf.g.size() - 4);
  EXPECT_NEAR(mean, 1.0, 0.1);
}

TEST(Rdf, RejectsBadArguments) {
  EXPECT_THROW(RdfAccumulator(10.0, 6.0, 10), Error);  // rmax > box/2
  EXPECT_THROW(RdfAccumulator(10.0, 0.0, 10), Error);
}

// ---- Polydisperse RPY ----------------------------------------------------------

TEST(RpyPoly, ReducesToMonodisperse) {
  for (double r : {2.5, 4.0, 1.5, 0.8}) {
    const PairCoeffs mono = rpy_pair(r, 1.0);
    const PairCoeffs poly = rpy_pair_poly(r, 1.0, 1.0, 1.0);
    EXPECT_NEAR(mono.f, poly.f, 1e-13) << "r=" << r;
    EXPECT_NEAR(mono.g, poly.g, 1e-13) << "r=" << r;
  }
}

TEST(RpyPoly, ContinuousAcrossBranches) {
  const double ai = 1.0, aj = 1.7, aref = 1.0;
  // At r = ai+aj (contact).
  const PairCoeffs below = rpy_pair_poly((ai + aj) * (1 - 1e-10), ai, aj, aref);
  const PairCoeffs above = rpy_pair_poly((ai + aj) * (1 + 1e-10), ai, aj, aref);
  EXPECT_NEAR(below.f, above.f, 1e-7);
  EXPECT_NEAR(below.g, above.g, 1e-7);
  // At r = |ai−aj| (full immersion).
  const double d = aj - ai;
  const PairCoeffs in = rpy_pair_poly(d * (1 - 1e-10), ai, aj, aref);
  const PairCoeffs out = rpy_pair_poly(d * (1 + 1e-10), ai, aj, aref);
  EXPECT_NEAR(in.f, out.f, 1e-7);
  EXPECT_NEAR(in.g, out.g, 1e-7);
}

TEST(RpyPoly, FullyImmersedIsLargerSphereMobility) {
  const PairCoeffs c = rpy_pair_poly(0.2, 0.5, 2.0, 1.0);
  EXPECT_NEAR(c.f, 0.5, 1e-13);  // a_ref / max(ai, aj)
  EXPECT_NEAR(c.g, 0.0, 1e-13);
}

TEST(RpyPoly, SymmetricInRadii) {
  const PairCoeffs a = rpy_pair_poly(2.3, 0.8, 1.4, 1.0);
  const PairCoeffs b = rpy_pair_poly(2.3, 1.4, 0.8, 1.0);
  EXPECT_DOUBLE_EQ(a.f, b.f);
  EXPECT_DOUBLE_EQ(a.g, b.g);
}

TEST(RpyPoly, DenseMatrixSpdForRandomRadii) {
  Xoshiro256 rng(9);
  const double box = 24.0;
  std::vector<Vec3> pos(25);
  std::vector<double> radii(25);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = {box * rng.next_double(), box * rng.next_double(),
              box * rng.next_double()};
    radii[i] = 0.5 + 1.5 * rng.next_double();
  }
  const Matrix m = rpy_mobility_dense_poly(pos, radii, 1.0);
  EXPECT_LT(m.asymmetry(), 1e-13);
  EXPECT_NO_THROW(cholesky(m));  // positive definite even with overlaps
}

TEST(RpyPoly, SelfMobilityScalesInverselyWithRadius) {
  std::vector<Vec3> pos{{0, 0, 0}, {100, 0, 0}};
  std::vector<double> radii{2.0, 0.5};
  const Matrix m = rpy_mobility_dense_poly(pos, radii, 1.0);
  EXPECT_NEAR(m(0, 0), 0.5, 1e-13);  // a_ref/2
  EXPECT_NEAR(m(3, 3), 2.0, 1e-13);  // a_ref/0.5
}

}  // namespace
}  // namespace hbd
