// Tests for the persistent Verlet neighbor pipeline: the skin-padded
// NeighborList (rebuild vs O(n) revalidation), the in-place BCSR refresh of
// the real-space Ewald operator, the allocation-free PME update path, the
// steric force on its own list, and the amortized real-space perf-model terms.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/neighbor_list.hpp"
#include "common/rng.hpp"
#include "core/forces.hpp"
#include "core/system.hpp"
#include "ewald/beenakker.hpp"
#include "hybrid/perf_model.hpp"
#include "hybrid/scheduler.hpp"
#include "pme/pme_operator.hpp"
#include "pme/realspace.hpp"

namespace hbd {
namespace {

using PairSet = std::set<std::pair<std::size_t, std::size_t>>;

PairSet brute_force_pairs(std::span<const Vec3> pos, double box,
                          double cutoff) {
  PairSet pairs;
  const double cut2 = cutoff * cutoff;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = i + 1; j < pos.size(); ++j)
      if (norm2(minimum_image(pos[i], pos[j], box)) <= cut2)
        pairs.emplace(i, j);
  return pairs;
}

PairSet list_pairs(const NeighborList& list, std::span<const Vec3> pos,
                   double cutoff) {
  PairSet pairs;
  list.for_each_pair(pos, cutoff,
                     [&](std::size_t i, std::size_t j, const Vec3&, double) {
                       pairs.emplace(i, j);
                     });
  return pairs;
}

/// Jitters every particle by at most `max_step` (uniform in a cube).
void jitter(std::vector<Vec3>& pos, double max_step, Xoshiro256& rng) {
  for (Vec3& p : pos)
    for (int c = 0; c < 3; ++c)
      p[c] += max_step * (2.0 * rng.next_double() - 1.0);
}

TEST(NeighborList, MatchesBruteForce) {
  Xoshiro256 rng(42);
  const auto sys = suspension_at_volume_fraction(300, 0.2, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  const double cutoff = 2.5, skin = 0.4;

  NeighborList list(sys.box, cutoff, skin);
  EXPECT_TRUE(list.update(pos));
  EXPECT_EQ(list.particles(), pos.size());
  EXPECT_EQ(list.build_count(), 1u);
  EXPECT_EQ(list_pairs(list, pos, cutoff),
            brute_force_pairs(pos, sys.box, cutoff));
}

// At n = 2000 and a 5.5a padded radius the candidate bound exceeds the
// enumeration scratch cap many times over, so rows are enumerated in
// successive windows; the list must not depend on the windowing.
TEST(NeighborList, ScratchWindowsMatchBruteForce) {
  Xoshiro256 rng(43);
  const auto sys = suspension_at_volume_fraction(2000, 0.2, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  const double cutoff = 5.0;
  NeighborList list(sys.box, cutoff, 0.5);
  list.update(pos);
  EXPECT_EQ(list_pairs(list, pos, cutoff),
            brute_force_pairs(pos, sys.box, cutoff));
  // The retained scratch is capped at 2 MiB: the ~66k stored pairs take
  // under 4 MiB with vector slack, where an uncapped window over all ~250
  // candidates per row would alone retain 16 MiB.
  EXPECT_LT(list.bytes(), std::size_t{8} << 20);
}

// The chooser's cutoffs at n = 4000, Φ = 0.2: r_max ≈ L/4 leaves three
// cells per side, so every row's candidate bound is n − 1 and a 2 MiB
// window holds only 16 rows.  Windows then keep at least 16 rows per
// thread; the list is the brute-force pair set and bitwise independent of
// the thread count.
TEST(NeighborList, WideCutoffWindowsAcrossThreads) {
  Xoshiro256 rng(44);
  const auto sys = suspension_at_volume_fraction(4000, 0.2, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  const double cutoff = 11.0;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  NeighborList one(sys.box, cutoff, 0.5);
  one.update(pos);
  omp_set_num_threads(4);
  NeighborList four(sys.box, cutoff, 0.5);
  four.update(pos);
  omp_set_num_threads(saved);
  ASSERT_TRUE(std::ranges::equal(one.row_ptr(), four.row_ptr()));
  ASSERT_TRUE(std::ranges::equal(one.cols(), four.cols()));
  const auto d1 = one.pair_displacements(), d4 = four.pair_displacements();
  for (std::size_t t = 0; t < d1.size(); ++t)
    for (int c = 0; c < 3; ++c) ASSERT_EQ(d1[t][c], d4[t][c]) << t;
  EXPECT_EQ(list_pairs(four, pos, cutoff),
            brute_force_pairs(pos, sys.box, cutoff));
}

TEST(NeighborList, ColumnsSortedAndSymmetric) {
  Xoshiro256 rng(7);
  const auto sys = suspension_at_volume_fraction(200, 0.15, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  NeighborList list(sys.box, 3.0, 0.5);
  list.update(pos);

  const auto ptr = list.row_ptr();
  const auto cols = list.cols();
  for (std::size_t i = 0; i < list.particles(); ++i) {
    EXPECT_TRUE(std::is_sorted(cols.begin() + ptr[i], cols.begin() + ptr[i + 1]));
    for (std::size_t t = ptr[i]; t < ptr[i + 1]; ++t) {
      const std::size_t j = cols[t];
      EXPECT_NE(j, i);  // no self edges
      // Symmetry: i must appear in j's row.
      const auto jb = cols.begin() + ptr[j], je = cols.begin() + ptr[j + 1];
      EXPECT_TRUE(std::binary_search(jb, je, static_cast<std::uint32_t>(i)));
    }
  }
}

TEST(NeighborList, SubHalfSkinDriftRevalidatesWithoutRebuild) {
  Xoshiro256 rng(3);
  const auto sys = suspension_at_volume_fraction(250, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double cutoff = 2.5, skin = 0.6;

  NeighborList list(sys.box, cutoff, skin);
  list.update(pos);
  const std::uint32_t* stable_cols = list.cols().data();

  // Several sub-half-skin moves: no rebuild, storage untouched, and the
  // padded list still enumerates every bare-cutoff pair exactly.
  for (int step = 0; step < 4; ++step) {
    jitter(pos, 0.24 * skin / 2.0, rng);  // per-axis; |d| < 0.42·skin/2
    EXPECT_FALSE(list.update(pos));
    EXPECT_EQ(list.build_count(), 1u);
    EXPECT_EQ(list.cols().data(), stable_cols);
    EXPECT_EQ(list_pairs(list, pos, cutoff),
              brute_force_pairs(pos, sys.box, cutoff));
  }
  EXPECT_DOUBLE_EQ(list.mean_rebuild_interval(), 5.0);  // 5 updates, 1 build
}

TEST(NeighborList, DriftPastHalfSkinTriggersRebuild) {
  Xoshiro256 rng(11);
  const auto sys = suspension_at_volume_fraction(250, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double cutoff = 2.5, skin = 0.5;

  NeighborList list(sys.box, cutoff, skin);
  list.update(pos);
  pos[17].x += 0.51 * skin;  // just past the skin/2 bound
  EXPECT_TRUE(list.update(pos));
  EXPECT_EQ(list.build_count(), 2u);
  EXPECT_EQ(list_pairs(list, pos, cutoff),
            brute_force_pairs(pos, sys.box, cutoff));
}

TEST(NeighborList, PeriodicRewrapDoesNotCountAsDrift) {
  Xoshiro256 rng(13);
  const auto sys = suspension_at_volume_fraction(100, 0.1, 1.0, rng);
  auto pos = sys.wrapped_positions();
  pos[0] = {0.01, 0.5 * sys.box, 0.5 * sys.box};

  NeighborList list(sys.box, 2.5, 0.5);
  list.update(pos);
  // The particle crosses the boundary and re-enters on the far side: a
  // box-width coordinate jump but a tiny physical displacement.
  pos[0].x = sys.box - 0.01;
  EXPECT_FALSE(list.update(pos));
  EXPECT_EQ(list.build_count(), 1u);
}

TEST(NeighborList, ZeroSkinRebuildsOnAnyMotion) {
  Xoshiro256 rng(17);
  const auto sys = suspension_at_volume_fraction(64, 0.1, 1.0, rng);
  auto pos = sys.wrapped_positions();
  NeighborList list(sys.box, 2.5, 0.0);
  list.update(pos);
  pos[3].y += 1e-9;
  EXPECT_TRUE(list.update(pos));
  EXPECT_EQ(list.build_count(), 2u);
}

// ---- Partial rebuilds and skin auto-tuning ----------------------------------

/// Indices of the particles inside a thin horizontal slab — the
/// sedimentation-like inhomogeneous displacement fields below settle only
/// this subset, so drift violations concentrate in a few cells.
std::vector<std::size_t> slab_indices(std::span<const Vec3> pos, double lo,
                                      double hi) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < pos.size(); ++i)
    if (pos[i].z > lo && pos[i].z < hi) idx.push_back(i);
  return idx;
}

TEST(NeighborList, PartialRebuildInhomogeneousDriftStaysExact) {
  Xoshiro256 rng(53);
  const auto sys = suspension_at_volume_fraction(400, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double cutoff = 2.5, skin = 0.6;

  NeighborList list(sys.box, cutoff, skin);
  list.set_partial_rebuilds(true);
  EXPECT_TRUE(list.partial_rebuilds());
  list.update(pos);

  const auto movers =
      slab_indices(pos, 0.30 * sys.box, 0.38 * sys.box);
  ASSERT_FALSE(movers.empty());
  for (int step = 0; step < 24; ++step) {
    // The slab settles past the skin/3 threshold every few steps while the
    // bulk jitters well below it.
    for (std::size_t i : movers) pos[i].z -= 0.09 * skin;
    jitter(pos, 0.005 * skin, rng);
    list.update(pos);
    ASSERT_EQ(list_pairs(list, pos, cutoff),
              brute_force_pairs(pos, sys.box, cutoff));
  }
  EXPECT_GT(list.partial_build_count(), 0u);
  EXPECT_LT(list.mean_rebuild_fraction(), 1.0);
  EXPECT_LT(effective_rebuild_fraction(list), 1.0);

  // The symmetric CSR patch preserved sorted columns and both-direction
  // storage.
  const auto ptr = list.row_ptr();
  const auto cols = list.cols();
  for (std::size_t i = 0; i < list.particles(); ++i) {
    EXPECT_TRUE(
        std::is_sorted(cols.begin() + ptr[i], cols.begin() + ptr[i + 1]));
    for (std::size_t t = ptr[i]; t < ptr[i + 1]; ++t) {
      const std::size_t j = cols[t];
      EXPECT_NE(j, i);
      const auto jb = cols.begin() + ptr[j], je = cols.begin() + ptr[j + 1];
      EXPECT_TRUE(std::binary_search(jb, je, static_cast<std::uint32_t>(i)));
    }
  }
}

TEST(NeighborList, AutoSkinTunesWithinClampsAndStaysExact) {
  Xoshiro256 rng(61);
  const auto sys = suspension_at_volume_fraction(300, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double cutoff = 2.5, skin0 = 0.3;

  NeighborList list(sys.box, cutoff, skin0);
  list.enable_auto_skin(/*target_interval=*/25.0);
  EXPECT_TRUE(list.auto_skin());
  list.update(pos);

  for (int step = 0; step < 400; ++step) {
    jitter(pos, 0.02, rng);
    list.update(pos);
    if (step % 16 == 0) {
      ASSERT_EQ(list_pairs(list, pos, cutoff),
                brute_force_pairs(pos, sys.box, cutoff));
    }
  }
  // The measured drift re-targeted the skin away from the seed value but
  // inside the documented clamps; the list kept rebuilding (and stayed
  // exact at the bare cutoff throughout).
  EXPECT_NE(list.skin(), skin0);
  EXPECT_GE(list.skin(), 0.25 * skin0);
  EXPECT_LE(list.skin(), 4.0 * skin0);
  EXPECT_GT(list.full_build_count(), 1u);
  ASSERT_EQ(list_pairs(list, pos, cutoff),
            brute_force_pairs(pos, sys.box, cutoff));
}

// ---- Real-space operator refresh -------------------------------------------

TEST(RealspaceOperator, MatchesBruteForceDense) {
  Xoshiro256 rng(23);
  const auto sys = suspension_at_volume_fraction(80, 0.2, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  const double xi = 0.5;
  const double rmax = std::min(4.0, 0.49 * sys.box);

  RealspaceOperator op(sys.box, sys.radius, xi, rmax, /*skin=*/0.5);
  op.refresh(pos);
  const Matrix dense = op.matrix().to_dense();

  // O(n²) reference: Ewald self term on the diagonal, Beenakker real-space
  // tensor (plus the RPY overlap correction below contact) within rmax.
  const std::size_t n = pos.size();
  const double self = beenakker_self(sys.radius, xi);
  Matrix ref(3 * n, 3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) ref(3 * i + c, 3 * i + c) = self;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const Vec3 rij = minimum_image(pos[i], pos[j], sys.box);
      const double r = std::sqrt(norm2(rij));
      if (r > rmax) continue;
      PairCoeffs c = beenakker_real(r, sys.radius, xi);
      if (r < 2.0 * sys.radius) {
        const PairCoeffs corr = rpy_overlap_correction(r, sys.radius);
        c.f += corr.f;
        c.g += corr.g;
      }
      std::array<double, 9> b{};
      pair_tensor(rij, c, b);
      for (int u = 0; u < 3; ++u)
        for (int v = 0; v < 3; ++v)
          ref(3 * i + u, 3 * j + v) = b[3 * u + v];
    }
  }
  for (std::size_t r = 0; r < 3 * n; ++r)
    for (std::size_t c = 0; c < 3 * n; ++c)
      EXPECT_NEAR(dense(r, c), ref(r, c), 1e-14);
}

TEST(RealspaceOperator, RefreshMatchesFromScratchWithoutReallocating) {
  Xoshiro256 rng(29);
  const auto sys = suspension_at_volume_fraction(150, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double xi = 0.6, skin = 0.5;
  const double rmax = std::min(4.0, 0.49 * sys.box);

  RealspaceOperator op(sys.box, sys.radius, xi, rmax, skin);
  op.refresh(pos);
  EXPECT_EQ(op.pattern_builds(), 1u);
  const double* stable_values = op.matrix().values().data();
  const std::uint32_t* stable_cols = op.matrix().col_idx().data();

  // In-skin motion: values refreshed into the same pattern, no allocation,
  // and the operator equals a from-scratch build at the new positions.
  for (int step = 0; step < 3; ++step) {
    jitter(pos, 0.05 * skin, rng);
    op.refresh(pos);
    EXPECT_EQ(op.pattern_builds(), 1u);
    EXPECT_EQ(op.matrix().values().data(), stable_values);
    EXPECT_EQ(op.matrix().col_idx().data(), stable_cols);

    const Matrix fresh =
        build_realspace_operator(pos, sys.box, sys.radius, xi, rmax)
            .to_dense();
    const Matrix refreshed = op.matrix().to_dense();
    for (std::size_t r = 0; r < fresh.rows(); ++r)
      for (std::size_t c = 0; c < fresh.cols(); ++c)
        EXPECT_NEAR(refreshed(r, c), fresh(r, c), 1e-15);
  }

  // Drift past skin/2: the list (and pattern) rebuild and the operator is
  // still exact.
  pos[5].x += 0.6 * skin;
  op.refresh(pos);
  EXPECT_EQ(op.pattern_builds(), 2u);
  const Matrix fresh =
      build_realspace_operator(pos, sys.box, sys.radius, xi, rmax).to_dense();
  const Matrix rebuilt = op.matrix().to_dense();
  for (std::size_t r = 0; r < fresh.rows(); ++r)
    for (std::size_t c = 0; c < fresh.cols(); ++c)
      EXPECT_NEAR(rebuilt(r, c), fresh(r, c), 1e-15);
}

TEST(RealspaceOperator, SkinShellPairsHoldZeroBlocks) {
  Xoshiro256 rng(31);
  const auto sys = suspension_at_volume_fraction(100, 0.2, 1.0, rng);
  const auto pos = sys.wrapped_positions();
  const double xi = 0.5;
  const double rmax = std::min(3.0, 0.4 * sys.box);

  RealspaceOperator padded(sys.box, sys.radius, xi, rmax, /*skin=*/0.8);
  RealspaceOperator bare(sys.box, sys.radius, xi, rmax, /*skin=*/0.0);
  padded.refresh(pos);
  bare.refresh(pos);
  // More stored blocks with the skin, identical operator.
  EXPECT_GT(padded.matrix().nnz_blocks(), bare.matrix().nnz_blocks());
  const Matrix a = padded.matrix().to_dense();
  const Matrix b = bare.matrix().to_dense();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_DOUBLE_EQ(a(r, c), b(r, c));
}

TEST(RealspaceOperator, SymmetricStorageMatchesFullWithinEpsilon) {
  Xoshiro256 rng(67);
  const auto sys = suspension_at_volume_fraction(150, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double xi = 0.6, skin = 0.5;
  const double rmax = std::min(3.0, 0.45 * sys.box);

  RealspaceOperator full_op(sys.box, sys.radius, xi, rmax, skin,
                            NearFieldStorage::full);
  RealspaceOperator sym_op(sys.box, sys.radius, xi, rmax, skin,
                           NearFieldStorage::symmetric);
  EXPECT_EQ(sym_op.storage(), NearFieldStorage::symmetric);
  std::vector<double> f(3 * pos.size());
  fill_gaussian(rng, f);
  std::vector<double> uf(f.size()), us(f.size());

  for (int step = 0; step < 4; ++step) {
    full_op.refresh(pos);
    sym_op.refresh(pos);
    // Same logical operator, roughly half the stored blocks.
    EXPECT_EQ(sym_op.logical_nnz_blocks(), full_op.logical_nnz_blocks());
    EXPECT_LT(sym_op.stored_nnz_blocks(), full_op.stored_nnz_blocks());
    EXPECT_LT(sym_op.bytes(), full_op.bytes());

    full_op.apply(f, uf);
    sym_op.apply(f, us);
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < f.size(); ++k) {
      num += (us[k] - uf[k]) * (us[k] - uf[k]);
      den += uf[k] * uf[k];
    }
    EXPECT_LE(std::sqrt(num), 1e-13 * std::sqrt(den));
    jitter(pos, 0.1 * skin, rng);
  }

  // Dense round trips agree bitwise: the symmetric mode mirrors its upper
  // blocks, and the full assembly computes the mirror pair from the negated
  // displacement (an exactly symmetric tensor).
  full_op.refresh(pos);
  sym_op.refresh(pos);
  const Matrix df = full_op.to_dense();
  const Matrix ds = sym_op.to_dense();
  for (std::size_t r = 0; r < df.rows(); ++r)
    for (std::size_t c = 0; c < df.cols(); ++c)
      EXPECT_EQ(ds(r, c), df(r, c));

  // take_matrix() && round-trips symmetric storage to a full BCSR copy.
  Bcsr3Matrix back = std::move(sym_op).take_matrix();
  EXPECT_EQ(back.nnz_blocks(), full_op.matrix().nnz_blocks());
  const Matrix db = back.to_dense();
  for (std::size_t r = 0; r < df.rows(); ++r)
    for (std::size_t c = 0; c < df.cols(); ++c)
      EXPECT_EQ(db(r, c), df(r, c));
}

TEST(RealspaceOperator, PartialRebuildTrajectoryBitwiseMatchesFull) {
  // Two full-stored operators over identical trajectories — one list runs
  // cell-granular partial rebuilds, the reference rebuilds from scratch.
  // Their patterns may keep different skin-shell pairs, but those hold
  // exactly-zero blocks, which cannot perturb the row-serial accumulation
  // of the full kernel: the applies must agree bitwise at every step.
  Xoshiro256 rng(59);
  const auto sys = suspension_at_volume_fraction(200, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  const double xi = 0.6, skin = 0.6;
  const double rmax = std::min(2.5, 0.45 * sys.box);

  auto full_list = std::make_shared<NeighborList>(sys.box, rmax, skin);
  auto part_list = std::make_shared<NeighborList>(sys.box, rmax, skin);
  part_list->set_partial_rebuilds(true);
  RealspaceOperator full_op(sys.box, sys.radius, xi, rmax, full_list);
  RealspaceOperator part_op(sys.box, sys.radius, xi, rmax, part_list);

  std::vector<double> f(3 * pos.size());
  fill_gaussian(rng, f);
  std::vector<double> uf(f.size()), up(f.size());

  const auto movers =
      slab_indices(pos, 0.30 * sys.box, 0.38 * sys.box);
  ASSERT_FALSE(movers.empty());
  for (int step = 0; step < 12; ++step) {
    for (std::size_t i : movers) pos[i].z -= 0.09 * skin;
    full_op.refresh(pos);
    part_op.refresh(pos);
    full_op.apply(f, uf);
    part_op.apply(f, up);
    for (std::size_t k = 0; k < f.size(); ++k) ASSERT_EQ(uf[k], up[k]);
  }
  EXPECT_GT(part_list->partial_build_count(), 0u);
}

TEST(PmeOperator, UpdateMatchesFreshOperator) {
  Xoshiro256 rng(37);
  const auto sys = suspension_at_volume_fraction(120, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  PmeParams params;
  params.rmax = std::min(4.0, 0.49 * sys.box);
  params.xi = std::sqrt(std::log(1e4)) / params.rmax;
  params.skin = 0.5;

  PmeOperator persistent(pos, sys.box, sys.radius, params);
  jitter(pos, 0.1, rng);
  persistent.update(pos);
  PmeOperator fresh(pos, sys.box, sys.radius, params);

  std::vector<double> f(3 * pos.size()), u1(3 * pos.size()),
      u2(3 * pos.size());
  fill_gaussian(rng, f);
  persistent.apply(f, u1);
  fresh.apply(f, u2);
  for (std::size_t k = 0; k < u1.size(); ++k)
    EXPECT_NEAR(u1[k], u2[k], 1e-12);
}

TEST(PmeOperator, SymmetricStorageMatchesFullThroughPipeline) {
  Xoshiro256 rng(71);
  const auto sys = suspension_at_volume_fraction(120, 0.2, 1.0, rng);
  auto pos = sys.wrapped_positions();
  PmeParams params;
  params.rmax = std::min(4.0, 0.49 * sys.box);
  params.xi = std::sqrt(std::log(1e4)) / params.rmax;
  params.skin = 0.5;

  PmeParams sym_params = params;
  sym_params.storage = NearFieldStorage::symmetric;
  sym_params.partial_rebuilds = true;
  sym_params.auto_skin = true;

  PmeOperator full_pme(pos, sys.box, sys.radius, params);
  PmeOperator sym_pme(pos, sys.box, sys.radius, sym_params);
  // The operator owns its list here, so the params configured it.
  EXPECT_TRUE(sym_pme.realspace().neighbors().partial_rebuilds());
  EXPECT_TRUE(sym_pme.realspace().neighbors().auto_skin());
  EXPECT_FALSE(full_pme.realspace().neighbors().partial_rebuilds());

  std::vector<double> f(3 * pos.size()), uf(3 * pos.size()),
      us(3 * pos.size());
  fill_gaussian(rng, f);
  for (int step = 0; step < 3; ++step) {
    full_pme.apply(f, uf);
    sym_pme.apply(f, us);
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < f.size(); ++k) {
      num += (us[k] - uf[k]) * (us[k] - uf[k]);
      den += uf[k] * uf[k];
    }
    EXPECT_LE(std::sqrt(num), 1e-12 * std::sqrt(den));
    jitter(pos, 0.1, rng);
    full_pme.update(pos);
    sym_pme.update(pos);
  }
}

// ---- Steric force -----------------------------------------------------------

// The steric force enumerates its own 2a list; before, it reused the
// simulation's PME-cutoff list.  Both lists keep rows sorted ascending and
// the force applies the same r < 2a filter, so each particle sums the same
// pairs in the same order: the forces agree bitwise at any thread count.
TEST(RepulsiveHarmonic, OwnListMatchesSharedListBitwise) {
  Xoshiro256 rng(41);
  // Uniform (uncorrelated) positions so some pairs overlap and the contact
  // force is actually exercised.
  const double box = 12.0, radius = 1.0, k = 125.0;
  std::vector<Vec3> pos(200);
  for (Vec3& p : pos)
    p = {box * rng.next_double(), box * rng.next_double(),
         box * rng.next_double()};
  NeighborList shared(box, 5.0, 0.5);
  shared.update(pos);
  const double cutoff = 2.0 * radius;
  // The shared-list enumeration the force used to run.
  auto shared_forces = [&] {
    std::vector<double> f(3 * pos.size(), 0.0);
    shared.for_each_neighbor_of_all(
        pos, cutoff,
        [&](std::size_t i, std::size_t, const Vec3& rij, double r2) {
          const double r = std::sqrt(r2);
          if (r >= cutoff || r == 0.0) return;
          const double mag = k * (cutoff - r) / r;
          f[3 * i] += mag * rij.x;
          f[3 * i + 1] += mag * rij.y;
          f[3 * i + 2] += mag * rij.z;
        });
    return f;
  };

  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const RepulsiveHarmonic force(radius, k);
    std::vector<double> own(3 * pos.size(), 0.0);
    force.add_forces(pos, box, own);
    const std::vector<double> ref = shared_forces();
    double sum = 0.0;
    for (std::size_t c = 0; c < own.size(); ++c) {
      EXPECT_EQ(own[c], ref[c]) << "threads " << threads << " entry " << c;
      sum += std::abs(own[c]);
    }
    EXPECT_GT(sum, 0.0);  // φ = 0.25 guarantees contacts
  }
  omp_set_num_threads(saved);
}

// ---- Perf model -------------------------------------------------------------

TEST(PerfModel, RealspaceOverheadAmortizes) {
  const PmePerfModel model(westmere_ep());
  const std::size_t n = 100000;
  const double nbr = 40.0;

  EXPECT_GT(model.t_realspace_assembly(n, nbr), 0.0);
  EXPECT_GT(model.t_neighbor_rebuild(n, nbr), 0.0);

  const double t16 = model.t_realspace_overhead(n, nbr, 16, 256.0);
  const double t32 = model.t_realspace_overhead(n, nbr, 32, 256.0);
  const double t16_long = model.t_realspace_overhead(n, nbr, 16, 1024.0);
  EXPECT_GT(t16, 0.0);
  EXPECT_LT(t32, t16);       // longer mobility reuse → less assembly per step
  EXPECT_LT(t16_long, t16);  // rarer rebuilds → less rebuild cost per step
  EXPECT_DOUBLE_EQ(model.t_realspace_overhead(n, nbr, 0, 256.0), 0.0);
  EXPECT_DOUBLE_EQ(model.t_realspace_overhead(n, nbr, 16, 0.0), 0.0);

  // The amortized pipeline overhead stays below the per-step SpMV it rides
  // on for realistic intervals — the premise of the persistent design.
  EXPECT_LT(t16, model.t_realspace(n, nbr));
}

TEST(PerfModel, SymmetricStorageAndPartialRebuildsReduceModeledCost) {
  const PmePerfModel model(westmere_ep());
  const std::size_t n = 100000;
  const double nbr = 40.0;

  // Half storage: ~1.8x less traffic at this density on bandwidth-bound
  // hardware, never slower; flop count (logical blocks) unchanged, so the
  // block product converges to the same flop bound at large widths.
  EXPECT_LT(model.t_realspace(n, nbr, /*symmetric=*/true),
            model.t_realspace(n, nbr));
  EXPECT_GT(model.t_realspace(n, nbr) / model.t_realspace(n, nbr, true), 1.5);
  EXPECT_DOUBLE_EQ(model.t_realspace(n, nbr),
                   model.t_realspace_block(n, nbr, 1));
  EXPECT_DOUBLE_EQ(model.t_realspace(n, nbr, true),
                   model.t_realspace_block(n, nbr, 1, true));

  // Partial rebuilds shrink the re-enumeration term but not the O(n)
  // binning floor.
  EXPECT_LT(model.t_neighbor_rebuild(n, nbr, 0.2),
            model.t_neighbor_rebuild(n, nbr));
  EXPECT_GT(model.t_neighbor_rebuild(n, nbr, 0.0), 0.0);
  EXPECT_LT(model.t_realspace_overhead(n, nbr, 16, 256.0, 0.2),
            model.t_realspace_overhead(n, nbr, 16, 256.0));
  EXPECT_DOUBLE_EQ(model.t_neighbor_rebuild(n, nbr, 1.0),
                   model.t_neighbor_rebuild(n, nbr));
}

}  // namespace
}  // namespace hbd
