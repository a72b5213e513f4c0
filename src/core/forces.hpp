// Deterministic force fields for BD simulations.  The paper's benchmark
// model uses a short-range repulsive harmonic potential evaluated with
// Verlet cell lists (Sec. V-A); bonded springs and constant external fields
// support the polymer and sedimentation examples.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/neighbor_list.hpp"
#include "common/vec3.hpp"

namespace hbd {

/// Interface: accumulates forces (interleaved 3n layout) for wrapped or
/// unwrapped positions in a cubic periodic box.
class ForceField {
 public:
  virtual ~ForceField() = default;
  virtual void add_forces(std::span<const Vec3> pos, double box,
                          std::span<double> f) const = 0;

  /// Stable type tag recorded in flight-recorder bundles so core/replay can
  /// reconstruct the field ("repulsive_harmonic", "uniform", ...).  Types
  /// without a replay constructor keep the default — replay then refuses
  /// with a clear error instead of silently diverging.
  virtual const char* name() const { return "unsupported"; }

  /// Form taking the simulation's PME-cutoff neighbor list.  The list is
  /// not consulted: pair forces enumerate their own cutoff-sized lists
  /// (RepulsiveHarmonic), so a wide mobility cutoff costs them nothing.
  void add_forces(std::span<const Vec3> pos, double box, std::span<double> f,
                  const NeighborList* /*neighbors*/) const {
    add_forces(pos, box, f);
  }
};

/// Paper Sec. V-A: repulsive harmonic contact force
///   f_ij = k·(2a − r)·r̂_ij   for r ≤ 2a (pushing i away from j), else 0,
/// with spring constant k = 125 in reduced units.
class RepulsiveHarmonic : public ForceField {
 public:
  RepulsiveHarmonic(double radius, double spring_k = 125.0)
      : radius_(radius), k_(spring_k) {}
  /// Enumerates pairs on a private persistent list at cutoff 2a with a
  /// 0.5a skin, so steady-state stepping re-enumerates only every
  /// O(skin / step) calls.  Rows are sorted ascending, so the per-particle
  /// summation order (and the forces, bitwise) match any wider list's.  Not
  /// thread-safe across concurrent calls (the list is mutable state).
  void add_forces(std::span<const Vec3> pos, double box,
                  std::span<double> f) const override;
  using ForceField::add_forces;
  const char* name() const override { return "repulsive_harmonic"; }
  double radius() const { return radius_; }
  double spring_k() const { return k_; }

 private:
  /// Revalidates (or creates) the private list for `pos`.
  const NeighborList& own_list(std::span<const Vec3> pos, double box) const;

  double radius_;
  double k_;
  mutable std::optional<NeighborList> own_;
};

/// Harmonic bonds f = −k·(r − r0)·r̂ between listed particle pairs
/// (bead-spring polymers).
class HarmonicBonds : public ForceField {
 public:
  struct Bond {
    std::size_t i, j;
    double rest_length;
    double k;
  };
  explicit HarmonicBonds(std::vector<Bond> bonds) : bonds_(std::move(bonds)) {}
  void add_forces(std::span<const Vec3> pos, double box,
                  std::span<double> f) const override;

 private:
  std::vector<Bond> bonds_;
};

/// Constant per-particle force (e.g. gravity minus buoyancy for
/// sedimentation).
class UniformForce : public ForceField {
 public:
  explicit UniformForce(Vec3 force) : force_(force) {}
  void add_forces(std::span<const Vec3> pos, double box,
                  std::span<double> f) const override;
  const char* name() const override { return "uniform"; }
  Vec3 force() const { return force_; }

 private:
  Vec3 force_;
};

/// Sums several force fields.
class CompositeForce : public ForceField {
 public:
  void add(std::shared_ptr<const ForceField> ff) {
    fields_.push_back(std::move(ff));
  }
  void add_forces(std::span<const Vec3> pos, double box,
                  std::span<double> f) const override;

 private:
  std::vector<std::shared_ptr<const ForceField>> fields_;
};

}  // namespace hbd
