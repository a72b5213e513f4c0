// Abstraction over mobility operators so the Brownian samplers and BD
// drivers are agnostic to whether the mobility is a dense Ewald matrix or
// the matrix-free PME operator.
#pragma once

#include <cstdint>
#include <span>

#include "common/error.hpp"
#include "linalg/dense_matrix.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

/// SPD linear operator applied to blocks of vectors (row-major 3n×s).
class MobilityOperator {
 public:
  virtual ~MobilityOperator() = default;
  virtual std::size_t dim() const = 0;
  /// y = M x for a block of vectors.
  virtual void apply_block(const Matrix& x, Matrix& y) = 0;
  /// y = M x for a single vector.
  virtual void apply(std::span<const double> x, std::span<double> y) = 0;
};

/// Dense (conventional Ewald BD) mobility.
class DenseMobility final : public MobilityOperator {
 public:
  explicit DenseMobility(Matrix m) : m_(std::move(m)) {}
  std::size_t dim() const override { return m_.rows(); }
  void apply_block(const Matrix& x, Matrix& y) override;
  void apply(std::span<const double> x, std::span<double> y) override;
  const Matrix& matrix() const { return m_; }
  /// Moves the matrix out (for reassembly in place); the operator is left
  /// empty.
  Matrix take_matrix() && { return std::move(m_); }

 private:
  Matrix m_;
};

/// Near-field-only view of the PME operator: y = (M_real + M_self) x using
/// the sparse BCSR kernels (full or symmetric storage).  The wave-space
/// Brownian sampler runs block Lanczos on this part only — the self term
/// dominates its spectrum, so a handful of iterations converge, while the
/// far field is sampled directly in reciprocal space.  The split sampler
/// pairs this with EwaldKernel::pse, whose real-space spectrum is
/// nonnegative for every ξ, so the operator is positive definite up to
/// cutoff truncation; the Lanczos SPD guard (min projected eigenvalue)
/// backstops it.
class NearFieldMobility final : public MobilityOperator {
 public:
  explicit NearFieldMobility(const PmeOperator& pme)
      : pme_(pme), generation_(pme.generation()), dim_(3 * pme.particles()) {}
  std::size_t dim() const override { return dim_; }
  void apply_block(const Matrix& x, Matrix& y) override {
    check_fresh();
    pme_.apply_real_block(x, y);
  }
  void apply(std::span<const double> x, std::span<double> y) override {
    check_fresh();
    pme_.apply_real(x, y);
  }

 private:
  /// A view outliving an operator rebuild would silently apply different
  /// mobility values than the caller captured it against — construct a
  /// fresh view after every update() instead.
  void check_fresh() const {
    HBD_CHECK_MSG(pme_.generation() == generation_ &&
                      3 * pme_.particles() == dim_,
                  "stale NearFieldMobility view: the PME operator was "
                  "rebuilt (generation " << pme_.generation() << " vs "
                  << generation_ << ") after this view was constructed");
  }

  const PmeOperator& pme_;
  std::uint64_t generation_;
  std::size_t dim_;
};

/// Matrix-free PME mobility (borrows the operator; the view is validated
/// against the operator's rebuild generation on every apply, so a rebuilt
/// operator cannot be driven through a stale view).
class PmeMobility final : public MobilityOperator {
 public:
  explicit PmeMobility(PmeOperator& pme)
      : pme_(pme), generation_(pme.generation()), dim_(3 * pme.particles()) {}
  std::size_t dim() const override { return dim_; }
  void apply_block(const Matrix& x, Matrix& y) override {
    check_fresh();
    pme_.apply_block(x, y);
  }
  void apply(std::span<const double> x, std::span<double> y) override {
    check_fresh();
    pme_.apply(x, y);
  }

 private:
  void check_fresh() const {
    HBD_CHECK_MSG(pme_.generation() == generation_ &&
                      3 * pme_.particles() == dim_,
                  "stale PmeMobility view: the PME operator was rebuilt "
                  "(generation " << pme_.generation() << " vs " << generation_
                  << ") after this view was constructed");
  }

  PmeOperator& pme_;
  std::uint64_t generation_;
  std::size_t dim_;
};

}  // namespace hbd
