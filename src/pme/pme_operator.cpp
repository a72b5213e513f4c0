#include "pme/pme_operator.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "pme/realspace.hpp"

namespace hbd {

PmeOperator::PmeOperator(std::span<const Vec3> pos, double box, double radius,
                         const PmeParams& params,
                         std::shared_ptr<NeighborList> neighbors)
    : n_(pos.size()),
      box_(box),
      radius_(radius),
      params_(params),
      real_(neighbors ? RealspaceOperator(box, radius, params.xi, params.rmax,
                                          std::move(neighbors), params.storage,
                                          params.precision, params.kernel)
                      : RealspaceOperator(box, radius, params.xi, params.rmax,
                                          params.skin, params.storage,
                                          params.precision, params.kernel)),
      interp_(pos, box, params.mesh, params.order, params.precompute_interp,
              params.interp, params.precision),
      influence_(params.mesh, box, radius, params.xi, params.order,
                 params.interp == InterpKind::bspline, params.kernel),
      fft_(params.mesh, params.mesh, params.mesh) {
  // The partial-rebuild / auto-skin knobs belong to whoever owns the list;
  // when the operator constructed its own, the params configure it here.
  if (real_.shared_neighbors().use_count() == 1) {
    if (params.partial_rebuilds) real_.neighbors().set_partial_rebuilds(true);
    if (params.auto_skin && params.skin > 0.0)
      real_.neighbors().enable_auto_skin(params.auto_skin_interval);
  }
  real_.refresh(pos);
  const std::size_t m3 = params.mesh * params.mesh * params.mesh;
  for (auto& m : mesh_) m.resize(m3);
  for (auto& s : spec_) s.resize(fft_.complex_size());
  scratch_.resize(3 * n_);
}

void PmeOperator::update(std::span<const Vec3> pos) {
  HBD_CHECK(pos.size() == n_);
  // Position-dependent state only: the real-space matrix values refresh in
  // place through the persistent neighbor list, the interpolation weights
  // and independent-set schedule are recomputed into existing storage.  The
  // influence table, FFT plans, and mesh/batch buffers depend only on the
  // (fixed) mesh and box and are untouched.
  HBD_TRACE_SCOPE("pme.update");
  {
    HBD_TRACE_SCOPE("pme.update.realspace");
    real_.refresh(pos);
  }
  {
    HBD_TRACE_SCOPE("pme.update.interp");
    interp_.rebuild(pos);
  }
}

std::uint64_t PmeOperator::spread_traffic_bytes(std::size_t s) const {
  const double k3 = static_cast<double>(params_.mesh) *
                    static_cast<double>(params_.mesh) *
                    static_cast<double>(params_.mesh);
  const double p3 = static_cast<double>(params_.order) *
                    static_cast<double>(params_.order) *
                    static_cast<double>(params_.order);
  const double sd = static_cast<double>(s);
  // Per nonzero of P: a 4 B column index plus one sizeof(Real) weight; the
  // mesh itself stays FP64 (it feeds the FFT directly).
  const double pnz = 4.0 + static_cast<double>(value_bytes(params_.precision));
  return static_cast<std::uint64_t>(
      24.0 * sd * k3 + (pnz + 24.0 * sd) * p3 * static_cast<double>(n_));
}

std::uint64_t PmeOperator::interp_traffic_bytes(std::size_t s) const {
  const double p3 = static_cast<double>(params_.order) *
                    static_cast<double>(params_.order) *
                    static_cast<double>(params_.order);
  const double pnz = 4.0 + static_cast<double>(value_bytes(params_.precision));
  return static_cast<std::uint64_t>((pnz + 24.0 * static_cast<double>(s)) *
                                    p3 * static_cast<double>(n_));
}

void PmeOperator::ensure_batch_capacity(std::size_t s) {
  const std::size_t m3 = params_.mesh * params_.mesh * params_.mesh;
  if (batch_mesh_.size() < 3 * s * m3) batch_mesh_.resize(3 * s * m3);
  if (batch_spec_.size() < 3 * s * fft_.complex_size())
    batch_spec_.resize(3 * s * fft_.complex_size());
}

void PmeOperator::apply_real(std::span<const double> f,
                             std::span<double> u) const {
  real_.apply(f, u);
}

void PmeOperator::apply_real_block(const Matrix& f, Matrix& u) const {
  real_.apply_block(f, u);
}

void PmeOperator::apply_recip(std::span<const double> f,
                              std::span<double> u) {
  HBD_CHECK(f.size() == 3 * n_ && u.size() == 3 * n_);
  HBD_TRACE_SCOPE("pme.recip");
  counts_.single += 1;
  {
    HBD_TRACE_SCOPE("pme.recip.spread");
    ScopedPhase t(&timers_, "spreading");
    interp_.spread(f, mesh_[0].data(), mesh_[1].data(), mesh_[2].data());
  }
  {
    HBD_TRACE_SCOPE("pme.recip.fft");
    ScopedPhase t(&timers_, "fft");
    for (int c = 0; c < 3; ++c)
      fft_.forward(mesh_[c].data(), spec_[c].data());
  }
  HBD_COUNTER_ADD("pme.fft.forward", 3);
  {
    HBD_TRACE_SCOPE("pme.recip.influence");
    ScopedPhase t(&timers_, "influence");
    influence_.apply(spec_[0].data(), spec_[1].data(), spec_[2].data());
  }
  {
    HBD_TRACE_SCOPE("pme.recip.ifft");
    ScopedPhase t(&timers_, "ifft");
    for (int c = 0; c < 3; ++c)
      fft_.inverse(spec_[c].data(), mesh_[c].data());
  }
  HBD_COUNTER_ADD("pme.fft.inverse", 3);
  {
    HBD_TRACE_SCOPE("pme.recip.interp");
    ScopedPhase t(&timers_, "interpolation");
    interp_.interpolate(mesh_[0].data(), mesh_[1].data(), mesh_[2].data(), u);
  }
  HBD_COUNTER_ADD("pme.spread.bytes", spread_traffic_bytes(1));
  HBD_COUNTER_ADD("pme.interp.bytes", interp_traffic_bytes(1));
}

void PmeOperator::apply(std::span<const double> f, std::span<double> u) {
  HBD_CHECK(f.size() == 3 * n_ && u.size() == 3 * n_);
  // Reciprocal part into u, then accumulate the sparse real part.
  apply_recip(f, u);
  {
    HBD_TRACE_SCOPE("pme.real.spmv");
    ScopedPhase t(&timers_, "realspace");
    real_.apply(f, {scratch_.data(), scratch_.size()});
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < 3 * n_; ++i) u[i] += scratch_[i];
}

void PmeOperator::recip_block(const Matrix& f, Matrix& u, bool accumulate) {
  const std::size_t s = f.cols();
  ensure_batch_capacity(s);
  HBD_TRACE_SCOPE("pme.recip");
  counts_.block += 1;
  counts_.block_columns += s;
  {
    HBD_TRACE_SCOPE("pme.recip.spread");
    ScopedPhase t(&timers_, "spreading");
    interp_.spread_block(f, batch_mesh_.data());
  }
  {
    HBD_TRACE_SCOPE("pme.recip.fft");
    ScopedPhase t(&timers_, "fft");
    fft_.forward_batch(batch_mesh_.data(), batch_spec_.data(), 3 * s);
  }
  HBD_COUNTER_ADD("pme.fft.forward", 3 * s);
  {
    HBD_TRACE_SCOPE("pme.recip.influence");
    ScopedPhase t(&timers_, "influence");
    influence_.apply_batch(batch_spec_.data(), s);
  }
  {
    HBD_TRACE_SCOPE("pme.recip.ifft");
    ScopedPhase t(&timers_, "ifft");
    fft_.inverse_batch(batch_spec_.data(), batch_mesh_.data(), 3 * s);
  }
  HBD_COUNTER_ADD("pme.fft.inverse", 3 * s);
  {
    HBD_TRACE_SCOPE("pme.recip.interp");
    ScopedPhase t(&timers_, "interpolation");
    interp_.interpolate_block(batch_mesh_.data(), u, accumulate);
  }
  HBD_COUNTER_ADD("pme.spread.bytes", spread_traffic_bytes(s));
  HBD_COUNTER_ADD("pme.interp.bytes", interp_traffic_bytes(s));
}

std::size_t PmeOperator::wave_noise_doubles() const {
  return 6 * fft_.complex_size();
}

void PmeOperator::sample_recip_block(std::span<const double> noise, Matrix& u,
                                     bool accumulate) {
  const std::size_t s = u.cols();
  const std::size_t nspec = fft_.complex_size();
  HBD_CHECK(u.rows() == 3 * n_ && noise.size() >= 3 * s * 2 * nspec);
  ensure_batch_capacity(s);
  // The whole sample runs under its own phase so the drift audit's
  // per-phase accounting of the deterministic pipeline stays clean — the
  // apply counts for spreading/fft/influence/ifft/interpolation do not
  // include wave-sample work.
  HBD_TRACE_SCOPE("pme.wave_sample");
  ScopedPhase phase(&timers_, "wave_sample");
  counts_.wave += 1;
  counts_.wave_columns += s;
  const std::size_t b = 3 * s;
  {
    // Pack the per-component noise chunks into the interleaved batch
    // layout spec[t*3s + 3j + c].
    HBD_TRACE_SCOPE("pme.wave_sample.pack");
#pragma omp parallel for schedule(static)
    for (std::size_t t = 0; t < nspec; ++t) {
      Complex* out = batch_spec_.data() + t * b;
      for (std::size_t m = 0; m < b; ++m) {
        const double* src = noise.data() + m * 2 * nspec + 2 * t;
        out[m] = Complex(src[0], src[1]);
      }
    }
  }
  {
    HBD_TRACE_SCOPE("pme.wave_sample.sqrt_influence");
    influence_.apply_sqrt_batch(batch_spec_.data(), s);
  }
  {
    HBD_TRACE_SCOPE("pme.wave_sample.ifft");
    fft_.inverse_batch(batch_spec_.data(), batch_mesh_.data(), b);
  }
  HBD_COUNTER_ADD("pme.fft.inverse", b);
  {
    HBD_TRACE_SCOPE("pme.wave_sample.interp");
    interp_.interpolate_block(batch_mesh_.data(), u, accumulate);
  }
  HBD_COUNTER_ADD("pme.interp.bytes", interp_traffic_bytes(s));
}

void PmeOperator::sample_recip_block(Xoshiro256& rng, Matrix& u,
                                     bool accumulate) {
  const std::size_t s = u.cols();
  const std::size_t chunk = 2 * fft_.complex_size();
  if (wave_noise_.size() < 3 * s * chunk) wave_noise_.resize(3 * s * chunk);
  // One substream seed per component mesh, drawn sequentially from the
  // wave stream (fixed consumption: 3s u64 per call), then each chunk
  // fills independently — the noise is a pure function of the stream
  // state, bitwise identical for any thread count.
  std::vector<std::uint64_t> seeds(3 * s);
  for (auto& sd : seeds) sd = rng.next_u64();
  {
    HBD_TRACE_SCOPE("pme.wave_sample.noise");
    ScopedPhase phase(&timers_, "wave_sample");
#pragma omp parallel for schedule(static)
    for (std::size_t m = 0; m < 3 * s; ++m) {
      Xoshiro256 sub(seeds[m]);
      fill_gaussian(sub, {wave_noise_.data() + m * chunk, chunk});
    }
  }
  sample_recip_block({wave_noise_.data(), 3 * s * chunk}, u, accumulate);
}

void PmeOperator::apply_recip_block(const Matrix& f, Matrix& u) {
  HBD_CHECK(f.rows() == 3 * n_ && u.rows() == 3 * n_ &&
            f.cols() == u.cols());
  recip_block(f, u, /*accumulate=*/false);
}

void PmeOperator::apply_block(const Matrix& f, Matrix& u) {
  HBD_CHECK(f.rows() == 3 * n_ && u.rows() == 3 * n_ &&
            f.cols() == u.cols());
  // Real-space: one multi-vector BCSR product.
  {
    HBD_TRACE_SCOPE("pme.real.spmv");
    ScopedPhase t(&timers_, "realspace");
    real_.apply_block(f, u);
  }
  // Reciprocal: all s columns in one batched pass per phase.
  recip_block(f, u, /*accumulate=*/true);
}

std::size_t PmeOperator::bytes() const {
  const std::size_t m3 = params_.mesh * params_.mesh * params_.mesh;
  return 3 * m3 * sizeof(double) + 3 * fft_.complex_size() * sizeof(Complex) +
         batch_mesh_.size() * sizeof(double) +
         batch_spec_.size() * sizeof(Complex) + scratch_.size() * sizeof(double) +
         wave_noise_.size() * sizeof(double) +
         interp_.bytes() + influence_.bytes() + real_.bytes() +
         real_.neighbors().bytes();
}

}  // namespace hbd
