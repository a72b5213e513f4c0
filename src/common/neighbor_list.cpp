#include "common/neighbor_list.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"

namespace hbd {

namespace {
/// Soft scratch-buffer cap of the chunked enumeration sweep: rows are
/// processed in windows whose summed candidate bound stays below this
/// (2 MiB of Entry slots), so the retained scratch is independent of the
/// system size.  Rows enumerate independently, so the window size never
/// changes the list.
constexpr std::size_t kScratchEntries = std::size_t{1} << 16;

/// Rows per thread a window holds at least, whatever the cap: one
/// schedule(dynamic, 16) chunk each, so every thread has work even when
/// wide cutoffs make each row's candidate bound a large fraction of n.
constexpr std::size_t kMinWindowRowsPerThread = 16;
}  // namespace

NeighborList::NeighborList(double box, double cutoff, double skin)
    : box_(box), cutoff_(cutoff), skin_(skin), skin0_(skin) {
  HBD_CHECK(box > 0.0 && cutoff > 0.0 && skin >= 0.0);
}

void NeighborList::enable_auto_skin(double target_interval) {
  HBD_CHECK_MSG(target_interval >= 1.0,
                "auto-skin target interval must be at least one update");
  HBD_CHECK_MSG(skin0_ > 0.0,
                "auto-skin needs a positive constructed skin as scale");
  auto_skin_ = true;
  auto_skin_target_ = target_interval;
}

bool NeighborList::update(std::span<const Vec3> pos) {
  ++updates_;
  HBD_COUNTER_ADD("neighbor.updates", 1);
  last_rebuild_ = Rebuild::none;
  const Rebuild kind = classify(pos);
  if (kind == Rebuild::none) return false;
  // Interval between consecutive rebuilds, in update() calls: the measured
  // amortization factor for the model's neighbor-rebuild term (Sec. IV).
  if (builds_ > 0)
    HBD_HISTOGRAM_OBSERVE("neighbor.rebuild_interval",
                          static_cast<double>(updates_ - updates_at_build_));
  updates_at_build_ = updates_;
  if (kind == Rebuild::full) {
    retune_skin();
    rebuild_full(pos);
    updates_at_full_build_ = updates_;
  } else {
    rebuild_partial(pos);
  }
  return true;
}

NeighborList::Rebuild NeighborList::classify(std::span<const Vec3> pos) {
  last_max_drift2_ = 0.0;
  if (builds_ == 0 || pos.size() != ref_pos_.size()) return Rebuild::full;
  const std::size_t n = pos.size();
  // Drift thresholds: the padded list covers the bare cutoff while every
  // unevaluated pair's reference legs sum below the skin.  A full-only list
  // has two legs (skin/2 each); partial rebuilds introduce a third
  // (mixed references), hence skin/3.  Displacements are minimum-image so
  // boundary re-wrapping does not register as a box-width jump; at skin = 0
  // the bound degenerates to "any motion".
  const double theta = partial_enabled_ ? skin_ / 3.0 : skin_ / 2.0;
  const double limit2 = theta * theta;
  drift2_.resize(n);
  double max2 = 0.0;
#pragma omp parallel for schedule(static) reduction(max : max2)
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = norm2(minimum_image(pos[i], ref_pos_[i], box_));
    drift2_[i] = d2;
    max2 = std::max(max2, d2);
  }
  last_max_drift2_ = max2;
  if (max2 <= limit2) return Rebuild::none;
  if (!partial_enabled_ || skin_ <= 0.0 || cells_.num_cells_per_dim() == 1)
    return Rebuild::full;

  // Cell-granular violation set under the reference binning: any particle
  // past the threshold flags its cell, and every member of a flagged cell
  // is re-enumerated (so the invariant "all drifts ≤ θ after update" holds
  // for whole cells at a time).
  const std::size_t nc = cells_.num_cells_per_dim();
  cell_flag_.assign(nc * nc * nc, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (drift2_[i] > limit2) cell_flag_[cells_.cell_of_particle(i)] = 1;
  violated_.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (cell_flag_[cells_.cell_of_particle(i)])
      violated_.push_back(static_cast<std::uint32_t>(i));
  // A wide drift front re-enumerates most of the system anyway — the full
  // sweep is cheaper than patching at that point.
  if (10 * violated_.size() > 3 * n) return Rebuild::full;
  return Rebuild::partial;
}

void NeighborList::retune_skin() {
  if (!auto_skin_ || full_builds_ == 0) return;
  const double interval =
      static_cast<double>(updates_ - updates_at_full_build_);
  if (interval <= 0.0 || last_max_drift2_ <= 0.0) return;
  // Diffusive drift grows like δ̂·√I, so the rebuild that just triggered
  // measures δ̂ ≈ d_max/√I; EWMA for robustness against single-interval
  // noise.  The skin that makes the NEXT interval hit the target is then
  // k·δ̂·√I_target with k the drift-threshold divisor (ROADMAP: s* ∝
  // step·√I).
  const double sample = std::sqrt(last_max_drift2_ / interval);
  delta_hat_ = delta_hat_ > 0.0 ? 0.7 * delta_hat_ + 0.3 * sample : sample;
  const double k = partial_enabled_ ? 3.0 : 2.0;
  double s = k * delta_hat_ * std::sqrt(auto_skin_target_);
  s = std::clamp(s, 0.25 * skin0_, 4.0 * skin0_);
  // Keep the padded radius within the minimum-image bound.
  s = std::min(s, 0.5 * box_ - cutoff_);
  if (s > 0.0) skin_ = s;
  HBD_GAUGE_SET("neighbor.skin", skin_);
}

std::size_t NeighborList::candidate_bound(std::size_t i) const {
  if (cells_.num_cells_per_dim() == 1) return cells_.particles() - 1;
  const auto stencil = cells_.full_stencil(cells_.cell_of_particle(i));
  const auto start = cells_.cell_start();
  std::size_t b = 0;
  for (const std::uint32_t o : stencil) b += start[o + 1] - start[o];
  return b - 1;  // own cell counted i itself
}

std::size_t NeighborList::enumerate_row(std::span<const Vec3> pos,
                                        std::size_t i, Entry* out) const {
  const double pad2 = (cutoff_ + skin_) * (cutoff_ + skin_);
  const Vec3 pi = pos[i];
  std::size_t k = 0;
  if (cells_.num_cells_per_dim() == 1) {
    // All-pairs fallback emits ascending ids — no sort needed.
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if (j == i) continue;
      const Vec3 d = minimum_image(pi, pos[j], box_);
      if (norm2(d) <= pad2) out[k++] = {d, static_cast<std::uint32_t>(j)};
    }
    return k;
  }
  const auto stencil = cells_.full_stencil(cells_.cell_of_particle(i));
  const auto start = cells_.cell_start();
  const auto members = cells_.cell_particles();
  for (const std::uint32_t o : stencil) {
    for (std::size_t v = start[o]; v < start[o + 1]; ++v) {
      const std::uint32_t j = members[v];
      if (j == i) continue;
      const Vec3 d = minimum_image(pi, pos[j], box_);
      if (norm2(d) <= pad2) out[k++] = {d, j};
    }
  }
  std::sort(out, out + k,
            [](const Entry& a, const Entry& b) { return a.j < b.j; });
  return k;
}

void NeighborList::rebuild_full(std::span<const Vec3> pos) {
  HBD_TRACE_SCOPE("neighbor.rebuild");
  HBD_COUNTER_ADD("neighbor.rebuilds", 1);
  const std::size_t n = pos.size();
  cells_.rebuild(pos, box_, cutoff_ + skin_);

  // Fused single-sweep CSR assembly: per row, gather the stencil
  // candidates, distance-filter, and emit {id, displacement} sorted — one
  // geometry pass, against the seed's separate count/fill/value passes.
  // Rows are chunked so the padded per-row scratch stays bounded.
  row_ptr_.resize(n + 1);
  row_ptr_[0] = 0;
  cols_.clear();
  rij_.clear();
  const std::size_t min_rows =
      kMinWindowRowsPerThread *
      static_cast<std::size_t>(std::max(max_threads(), 1));
  std::size_t r0 = 0;
  while (r0 < n) {
    chunk_off_.clear();
    std::size_t r1 = r0, total = 0;
    while (r1 < n) {
      const std::size_t b = candidate_bound(r1);
      if (r1 - r0 >= min_rows && total + b > kScratchEntries) break;
      chunk_off_.push_back(total);
      total += b;
      ++r1;
    }
    if (scratch_.size() < total) scratch_.resize(total);
    counts_.resize(r1 - r0);
#pragma omp parallel for schedule(dynamic, 16)
    for (std::size_t i = r0; i < r1; ++i)
      counts_[i - r0] =
          enumerate_row(pos, i, scratch_.data() + chunk_off_[i - r0]);
    for (std::size_t i = r0; i < r1; ++i)
      row_ptr_[i + 1] = row_ptr_[i] + counts_[i - r0];
    cols_.resize(row_ptr_[r1]);
    rij_.resize(row_ptr_[r1]);
#pragma omp parallel for schedule(dynamic, 16)
    for (std::size_t i = r0; i < r1; ++i) {
      const Entry* src = scratch_.data() + chunk_off_[i - r0];
      std::size_t t = row_ptr_[i];
      for (std::size_t k = 0; k < counts_[i - r0]; ++k, ++t) {
        cols_[t] = src[k].j;
        rij_[t] = src[k].d;
      }
    }
    r0 = r1;
  }

  ref_pos_.assign(pos.begin(), pos.end());
  ++builds_;
  ++full_builds_;
  last_rebuild_ = Rebuild::full;
  HBD_GAUGE_SET("neighbor.pairs", row_ptr_[n]);
}

void NeighborList::rebuild_partial(std::span<const Vec3> pos) {
  HBD_TRACE_SCOPE("neighbor.rebuild_partial");
  HBD_COUNTER_ADD("neighbor.partial_rebuilds", 1);
  const std::size_t n = pos.size();
  const std::size_t na = violated_.size();
  // Re-bin everything (cheap, O(n)) so the re-enumerated rows see exact
  // current candidates through the standard 27-cell stencil.
  cells_.rebuild(pos, box_, cutoff_ + skin_);

  chunk_off_.resize(na);
  std::size_t total = 0;
  for (std::size_t a = 0; a < na; ++a) {
    chunk_off_[a] = total;
    total += candidate_bound(violated_[a]);
  }
  if (scratch_.size() < total) scratch_.resize(total);
  counts_.resize(na);
#pragma omp parallel for schedule(dynamic, 16)
  for (std::size_t a = 0; a < na; ++a)
    counts_[a] =
        enumerate_row(pos, violated_[a], scratch_.data() + chunk_off_[a]);

  in_set_.assign(n, 0);
  row_slot_.resize(n);
  for (std::size_t a = 0; a < na; ++a) {
    in_set_[violated_[a]] = 1;
    row_slot_[violated_[a]] = static_cast<std::uint32_t>(a);
  }

  // Symmetry patch: every old entry pointing into the re-enumerated set is
  // dropped from the kept rows, and each re-enumerated pair with a kept
  // partner is merged back in — the listed-pair set stays symmetric.
  additions_.clear();
  for (std::size_t a = 0; a < na; ++a) {
    const std::uint32_t i = violated_[a];
    const Entry* row = scratch_.data() + chunk_off_[a];
    for (std::size_t k = 0; k < counts_[a]; ++k) {
      if (in_set_[row[k].j]) continue;
      additions_.push_back(
          {Vec3{-row[k].d.x, -row[k].d.y, -row[k].d.z}, row[k].j, i});
    }
  }
  std::sort(additions_.begin(), additions_.end(),
            [](const Addition& a, const Addition& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  add_begin_.assign(n + 1, 0);
  for (const Addition& a : additions_) ++add_begin_[a.row + 1];
  for (std::size_t j = 0; j < n; ++j) add_begin_[j + 1] += add_begin_[j];

  new_counts_.resize(n);
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t j = 0; j < n; ++j) {
    if (in_set_[j]) {
      new_counts_[j] = counts_[row_slot_[j]];
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t t = row_ptr_[j]; t < row_ptr_[j + 1]; ++t)
      kept += in_set_[cols_[t]] ? 0u : 1u;
    new_counts_[j] = kept + (add_begin_[j + 1] - add_begin_[j]);
  }

  row_ptr_alt_.resize(n + 1);
  row_ptr_alt_[0] = 0;
  for (std::size_t j = 0; j < n; ++j)
    row_ptr_alt_[j + 1] = row_ptr_alt_[j] + new_counts_[j];
  cols_alt_.resize(row_ptr_alt_[n]);
  rij_alt_.resize(row_ptr_alt_[n]);

#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t t = row_ptr_alt_[j];
    if (in_set_[j]) {
      const std::size_t a = row_slot_[j];
      const Entry* row = scratch_.data() + chunk_off_[a];
      for (std::size_t k = 0; k < counts_[a]; ++k, ++t) {
        cols_alt_[t] = row[k].j;
        rij_alt_[t] = row[k].d;
      }
      continue;
    }
    // Merge kept old entries with the row's additions; the id sets are
    // disjoint (kept ids are outside the re-enumerated set, added inside),
    // so the merge emits strictly ascending columns.
    std::size_t s = row_ptr_[j];
    std::size_t a = add_begin_[j];
    const std::size_t s_end = row_ptr_[j + 1], a_end = add_begin_[j + 1];
    while (s < s_end || a < a_end) {
      if (s < s_end && in_set_[cols_[s]]) {
        ++s;
        continue;
      }
      const bool take_old =
          a == a_end || (s < s_end && cols_[s] < additions_[a].col);
      if (take_old) {
        cols_alt_[t] = cols_[s];
        rij_alt_[t] = rij_[s];
        ++s;
      } else {
        cols_alt_[t] = additions_[a].col;
        rij_alt_[t] = additions_[a].d;
        ++a;
      }
      ++t;
    }
  }

  row_ptr_.swap(row_ptr_alt_);
  cols_.swap(cols_alt_);
  rij_.swap(rij_alt_);
  for (const std::uint32_t i : violated_) ref_pos_[i] = pos[i];
  ++builds_;
  partial_rows_total_ += na;
  last_rebuild_ = Rebuild::partial;
  HBD_COUNTER_ADD("neighbor.partial_rows", na);
  HBD_GAUGE_SET("neighbor.pairs", row_ptr_[n]);
}

}  // namespace hbd
