#include "core/forces.hpp"

#include <cmath>

#include "common/cell_list.hpp"
#include "common/error.hpp"

namespace hbd {

const NeighborList& RepulsiveHarmonic::own_list(std::span<const Vec3> pos,
                                                double box) const {
  // Recreated when the box changes (a force field may be shared between
  // simulations); particle count changes and position jumps are absorbed by
  // update() itself.
  const double cutoff = 2.0 * radius_;
  if (!own_ || own_->box() != box) own_.emplace(box, cutoff, 0.5 * radius_);
  own_->update(pos);
  return *own_;
}

void RepulsiveHarmonic::add_forces(std::span<const Vec3> pos, double box,
                                   std::span<double> f) const {
  HBD_CHECK(f.size() == 3 * pos.size());
  const double cutoff = 2.0 * radius_;
  // The sweep visits each pair from both sides, so accumulating only into
  // row i is race-free and captures the full pair force.
  own_list(pos, box).for_each_neighbor_of_all(
      pos, cutoff,
      [&](std::size_t i, std::size_t, const Vec3& rij, double r2) {
        const double r = std::sqrt(r2);
        if (r >= cutoff || r == 0.0) return;
        const double mag = k_ * (cutoff - r) / r;  // along rij = r_i − r_j
        f[3 * i] += mag * rij.x;
        f[3 * i + 1] += mag * rij.y;
        f[3 * i + 2] += mag * rij.z;
      });
}

void HarmonicBonds::add_forces(std::span<const Vec3> pos, double box,
                               std::span<double> f) const {
  HBD_CHECK(f.size() == 3 * pos.size());
  for (const Bond& b : bonds_) {
    const Vec3 rij = minimum_image(pos[b.i], pos[b.j], box);
    const double r = norm(rij);
    if (r == 0.0) continue;
    const double mag = -b.k * (r - b.rest_length) / r;
    f[3 * b.i] += mag * rij.x;
    f[3 * b.i + 1] += mag * rij.y;
    f[3 * b.i + 2] += mag * rij.z;
    f[3 * b.j] -= mag * rij.x;
    f[3 * b.j + 1] -= mag * rij.y;
    f[3 * b.j + 2] -= mag * rij.z;
  }
}

void UniformForce::add_forces(std::span<const Vec3> pos, double /*box*/,
                              std::span<double> f) const {
  HBD_CHECK(f.size() == 3 * pos.size());
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < pos.size(); ++i) {
    f[3 * i] += force_.x;
    f[3 * i + 1] += force_.y;
    f[3 * i + 2] += force_.z;
  }
}

void CompositeForce::add_forces(std::span<const Vec3> pos, double box,
                                std::span<double> f) const {
  for (const auto& ff : fields_) ff->add_forces(pos, box, f);
}

}  // namespace hbd
