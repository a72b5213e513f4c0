#include "core/backend.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "ewald/kernel.hpp"
#include "ewald/rpy.hpp"
#include "linalg/blas.hpp"
#include "obs/telemetry.hpp"
#include "pme/params.hpp"

namespace hbd {

namespace {

constexpr const char* kTierNames[kMobilityTierCount] = {
    "tea", "pse_wavespace", "pme_krylov", "dense"};

/// Mean over columns of ‖got_c − expected_c‖₂/‖expected_c‖₂ — the same
/// column statistic as the pme/validate e_p probe.
double mean_column_relative_error(const Matrix& got, const Matrix& expected) {
  const std::size_t rows = got.rows(), cols = got.cols();
  double total = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    double diff2 = 0.0, ref2 = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double d = got(r, c) - expected(r, c);
      diff2 += d * d;
      ref2 += expected(r, c) * expected(r, c);
    }
    total += ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0;
  }
  return total / static_cast<double>(cols);
}

}  // namespace

const char* mobility_tier_name(MobilityTier tier) {
  return kTierNames[static_cast<std::size_t>(tier)];
}

MobilityTier parse_mobility_tier(std::string_view name) {
  for (std::size_t t = 0; t < kMobilityTierCount; ++t)
    if (name == kTierNames[t]) return static_cast<MobilityTier>(t);
  HBD_CHECK_MSG(false, "unknown mobility tier \"" << std::string(name)
                       << "\" (expected tea, pse_wavespace, pme_krylov, or "
                          "dense)");
  return MobilityTier::pme_krylov;  // unreachable
}

double tier_default_ep(MobilityTier tier) {
  switch (tier) {
    case MobilityTier::tea: return kTeaDeclaredEp;
    case MobilityTier::pse_wavespace: return 1e-3;
    case MobilityTier::pme_krylov: return 1e-3;
    case MobilityTier::dense: return 1e-6;
  }
  return 1e-3;
}

// ---- MobilityBackend --------------------------------------------------------

void MobilityBackend::apply_block(const Matrix& f, Matrix& u) {
  const std::size_t d = dim(), s = f.cols();
  std::vector<double> fc(d), uc(d);
  for (std::size_t c = 0; c < s; ++c) {
    for (std::size_t r = 0; r < d; ++r) fc[r] = f(r, c);
    apply(fc, uc);
    for (std::size_t r = 0; r < d; ++r) u(r, c) = uc[r];
  }
}

// ---- DenseCholeskyBackend ---------------------------------------------------

DenseCholeskyBackend::DenseCholeskyBackend(std::size_t n, double box,
                                           double radius)
    : n_(n),
      box_(box),
      radius_(radius),
      params_(ewald_params_for_tolerance(
          box, radius, tier_default_ep(MobilityTier::dense))) {
  stats_.converged = true;
}

void DenseCholeskyBackend::rebuild(std::span<const Vec3> wrapped) {
  HBD_CHECK(wrapped.size() == n_);
  HBD_TRACE_SCOPE("ewald.mobility");
  // Reassemble in place into the previous matrix's storage; the factor is
  // released first, so the peak holds one 3n×3n matrix.
  sampler_.reset();  // refactored lazily on the next sample
  ewald_mobility_dense(wrapped, box_, radius_, params_, mobility_);
}

void DenseCholeskyBackend::apply(std::span<const double> f,
                                 std::span<double> u) {
  gemv(1.0, mobility_, f, 0.0, u);
}

void DenseCholeskyBackend::apply_block(const Matrix& f, Matrix& u) {
  gemm(false, false, 1.0, mobility_, f, 0.0, u);
}

Matrix DenseCholeskyBackend::sample_block(const Matrix& z, double two_kbt_dt,
                                          Xoshiro256* /*wave_rng*/) {
  // Cholesky consumes no RNG, so factoring lazily here (after the caller
  // drew z) leaves the trajectory stream's draw sequence untouched —
  // athermal runs simply never pay for the factorization.
  if (!sampler_) sampler_.emplace(mobility_);
  stats_ = {};
  stats_.converged = true;
  return sampler_->sample_block(z, two_kbt_dt);
}

std::size_t DenseCholeskyBackend::bytes() const {
  const std::size_t d = 3 * n_;
  return 2 * d * d * sizeof(double);  // mobility + Cholesky factor
}

// ---- PmeBackendBase ---------------------------------------------------------

PmeBackendBase::PmeBackendBase(std::size_t n, double box, double radius,
                               PmeParams params, KrylovConfig krylov,
                               std::shared_ptr<NeighborList> nlist)
    : n_(n),
      box_(box),
      radius_(radius),
      params_(params),
      krylov_(krylov),
      nlist_(std::move(nlist)) {}

void PmeBackendBase::rebuild(std::span<const Vec3> wrapped) {
  if (!pme_)
    pme_.emplace(wrapped, box_, radius_, params_, nlist_);
  else
    pme_->update(wrapped);
}

void PmeBackendBase::apply(std::span<const double> f, std::span<double> u) {
  pme_->apply(f, u);
}

void PmeBackendBase::apply_block(const Matrix& f, Matrix& u) {
  pme_->apply_block(f, u);
}

std::size_t PmeBackendBase::bytes() const { return pme_ ? pme_->bytes() : 0; }

Matrix PmeKrylovBackend::sample_block(const Matrix& z, double two_kbt_dt,
                                      Xoshiro256* /*wave_rng*/) {
  HBD_TRACE_SCOPE("krylov.sample");
  stats_ = {};
  Matrix d = krylov_sqrt_apply(
      [this](const Matrix& x, Matrix& y) { pme_->apply_block(x, y); }, z,
      krylov_, &stats_);
  scal(std::sqrt(two_kbt_dt), {d.data(), d.rows() * d.cols()});
  return d;
}

Matrix PseWavespaceBackend::sample_block(const Matrix& z, double two_kbt_dt,
                                         Xoshiro256* wave_rng) {
  HBD_CHECK_MSG(wave_rng != nullptr,
                "wavespace backend needs the wave-space RNG substream");
  stats_ = {};
  Matrix d = sample_wavespace_block(*pme_, z, two_kbt_dt, krylov_, *wave_rng,
                                    &stats_);
  HBD_COUNTER_ADD("wavespace.samples", 1);
  HBD_COUNTER_ADD("wavespace.nearfield.iterations", stats_.iterations);
  // Clamped spectral mass is expected at PD-safe splittings and its
  // isotropic part is compensated in the near-field shift; the residual
  // bias is what the covariance probe watches.
  HBD_GAUGE_SET("wavespace.clamped_fraction", pme_->wave_clamped_fraction());
  return d;
}

// ---- TeaBackend -------------------------------------------------------------

TeaBackend::TeaBackend(std::size_t n, double box, double radius)
    : n_(n), box_(box), radius_(radius) {
  // Hasimoto-corrected periodic self mobility: the lattice sum of the RPY
  // tensor evaluated at the particle itself, the value the Ewald diagonal
  // converges to.
  const double aL = radius_ / box_;
  h_ = 1.0 - 2.837297 * aL +
       (4.0 * std::numbers::pi / 3.0) * aL * aL * aL;
  // Assembly tolerance: well under the declared truncation-expansion error
  // so the budget is spent on the TEA square root, not on a sloppy D.  The
  // min-image free-space RPY is NOT a valid shortcut here — the bare 1/r
  // Oseen term is conditionally convergent and its minimum-image truncation
  // carries an O(1) error against the periodic mobility.
  eparams_ = ewald_params_for_tolerance(
      box, radius, std::clamp(0.2 * kTeaDeclaredEp, 1e-6, 1e-2));
  stats_.converged = true;
}

void TeaBackend::rebuild(std::span<const Vec3> wrapped) {
  HBD_CHECK(wrapped.size() == n_);
  HBD_TRACE_SCOPE("tea.rebuild");
  const std::size_t d = 3 * n_;

  // O(n²) pairwise direct Ewald assembly of the periodic RPY mobility at
  // the loose tier tolerance, in place in the previous D's storage (one
  // 3n×3n matrix at the peak).  The analytic Hasimoto h replaces the
  // numerically summed self blocks (they agree to the assembly tolerance;
  // the analytic value keeps diag(B Bᵀ) = h exact below).
  Matrix& m = d_;
  ewald_mobility_dense(wrapped, box_, radius_, eparams_, m);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c)
        m(3 * i + r, 3 * i + c) = r == c ? h_ : 0.0;

  // Per-DOF squared off-diagonal row mass S_r = Σ_{l≠r} D_rl² and the
  // signed off-diagonal total for the mean coupling ε̄.  Row-parallel with
  // a sequential final reduction — deterministic for any thread count.
  std::vector<double> s(d, 0.0);
  std::vector<double> rowsum(d, 0.0);
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < d; ++r) {
    const double* row = m.data() + r * d;
    const std::size_t self = 3 * (r / 3);
    double s2 = 0.0, s1 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      if (c >= self && c < self + 3) continue;  // skip the self 3×3 block
      s2 += row[c] * row[c];
      s1 += row[c];
    }
    s[r] = s2;
    rowsum[r] = s1;
  }

  // Geyer–Winter β from the normalized mean coupling ε̄ = ⟨D_il/D_ii⟩ over
  // the N′(N′−1) off-diagonal entries (N′ = 3n): with
  // x = (N′−1)ε̄² − (N′−2)ε̄, β = (1 − √(1−x))/x, → 1/2 as x → 0.
  // 1−x < 0 means the mean coupling is too strong for the truncated
  // expansion (dense suspensions); β is clamped at the x = 1 root and
  // flagged — the e_p probe is the authority there (docs/theory.md §13).
  const double np = static_cast<double>(d);
  double total = 0.0;
  for (std::size_t r = 0; r < d; ++r) total += rowsum[r];  // deterministic
  const double pairs = np * (np - 1.0);
  const double eps = n_ > 1 ? total / (h_ * pairs) : 0.0;
  const double x = (np - 1.0) * eps * eps - (np - 2.0) * eps;
  clamped_ = false;
  if (std::abs(x) < 1e-12) {
    beta_ = 0.5;
  } else {
    double disc = 1.0 - x;
    if (disc < 0.0) {
      disc = 0.0;
      clamped_ = true;
    }
    beta_ = (1.0 - std::sqrt(disc)) / x;
  }

  // Per-DOF normalizers Ĉ_r = [1 + β² S_r / h²]^{-1/2}: with them the
  // diagonal of the sampled covariance equals h·two_kbt_dt exactly.
  c_.assign(d, 1.0);
  const double b2h2 = beta_ * beta_ / (h_ * h_);
  for (std::size_t r = 0; r < d; ++r)
    c_[r] = 1.0 / std::sqrt(1.0 + b2h2 * s[r]);
}

void TeaBackend::apply(std::span<const double> f, std::span<double> u) {
  HBD_TRACE_SCOPE("tea.apply");
  gemv(1.0, d_, f, 0.0, u);
}

void TeaBackend::apply_block(const Matrix& f, Matrix& u) {
  HBD_TRACE_SCOPE("tea.apply");
  gemm(false, false, 1.0, d_, f, 0.0, u);
}

Matrix TeaBackend::sample_block(const Matrix& z, double two_kbt_dt,
                                Xoshiro256* /*wave_rng*/) {
  HBD_TRACE_SCOPE("tea.sample");
  const std::size_t d = 3 * n_, s = z.cols();
  if (dz_.rows() != d || dz_.cols() != s) dz_.resize(d, s);
  apply_block(z, dz_);  // D z, diagonal h included
  Matrix y(d, s);
  // y = Ĉ ∘ [(1−β)·h·z + β·D z] / √h — the Geyer–Winter corrected
  // square-root surrogate; diag(B Bᵀ) = h exactly by the Ĉ normalization.
  const double scale = std::sqrt(two_kbt_dt / h_);
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < d; ++r) {
    const double cr = c_[r] * scale;
    const double* zr = z.data() + r * s;
    const double* dzr = dz_.data() + r * s;
    double* yr = y.data() + r * s;
    for (std::size_t c = 0; c < s; ++c)
      yr[c] = cr * ((1.0 - beta_) * h_ * zr[c] + beta_ * dzr[c]);
  }
  stats_ = {};
  stats_.converged = true;
  return y;
}

std::size_t TeaBackend::bytes() const {
  return d_.rows() * d_.cols() * sizeof(double) +
         c_.size() * sizeof(double) +
         dz_.rows() * dz_.cols() * sizeof(double);
}

// ---- Probes -----------------------------------------------------------------

double measure_backend_error(MobilityBackend& backend, PmeOperator& reference,
                             std::size_t samples, std::uint64_t seed) {
  const std::size_t d = backend.dim();
  HBD_CHECK(d == 3 * reference.particles());
  Matrix f(d, std::max<std::size_t>(samples, 1));
  Xoshiro256 rng(seed);
  fill_gaussian(rng, {f.data(), f.rows() * f.cols()});
  Matrix u(f.rows(), f.cols()), u_ref(f.rows(), f.cols());
  backend.apply_block(f, u);
  reference.apply_block(f, u_ref);
  return mean_column_relative_error(u, u_ref);
}

// ---- TierPolicy -------------------------------------------------------------

TierPolicy::TierPolicy(ErrorBudget budget, Config config)
    : budget_(budget), config_(config) {}

bool TierPolicy::barred(MobilityTier tier) const {
  return barred_[static_cast<std::size_t>(tier)];
}

MobilityTier TierPolicy::choose(std::span<const Candidate> candidates) {
  HBD_CHECK_MSG(!candidates.empty(), "TierPolicy::choose needs candidates");
  const Candidate* cheapest = nullptr;  // cheapest unbarred within budget
  const Candidate* finest = nullptr;    // lowest declared error, unbarred
  const Candidate* finest_any = nullptr;
  const Candidate* current = nullptr;
  for (const Candidate& c : candidates) {
    if (!finest_any || c.declared_ep < finest_any->declared_ep)
      finest_any = &c;
    if (has_current_ && c.tier == current_) current = &c;
    if (barred(c.tier)) continue;
    if (!finest || c.declared_ep < finest->declared_ep) finest = &c;
    if (c.declared_ep <= budget_.ep &&
        (!cheapest || c.cost < cheapest->cost))
      cheapest = &c;
  }
  // Infeasible budget: fall back to the finest tier rather than failing —
  // the probes will report what was actually achieved.
  const Candidate* pick = cheapest ? cheapest : (finest ? finest : finest_any);

  if (!has_current_) {
    has_current_ = true;
    current_ = pick->tier;
    dwell_ = 0;
    return current_;
  }
  if (pick->tier == current_) {
    ++dwell_;
    return current_;
  }
  // Promotion — the active tier is barred, gone, or no longer inside the
  // budget — happens immediately: accuracy violations must not linger.
  const bool current_ok =
      current != nullptr && !barred(current_) &&
      current->declared_ep <= budget_.ep;
  if (!current_ok) {
    current_ = pick->tier;
    dwell_ = 0;
    ++switches_;
    return current_;
  }
  // Demotion (a cheaper feasible tier appeared): hysteresis — require a
  // minimum dwell on the current tier and a margin under the budget, so a
  // tier sitting at the boundary cannot ping-pong.
  if (dwell_ + 1 < config_.min_dwell ||
      pick->declared_ep > config_.demote_margin * budget_.ep) {
    ++dwell_;
    return current_;
  }
  current_ = pick->tier;
  dwell_ = 0;
  ++switches_;
  return current_;
}

bool TierPolicy::record_probe(MobilityTier active, double ep) {
  if (ep <= budget_.ep) return false;
  // Permanent bar: the measured error of this tier's configuration violated
  // the budget, so the policy must never route back to it (no oscillation
  // across the budget boundary).
  barred_[static_cast<std::size_t>(active)] = true;
  return true;
}

// ---- Factory ----------------------------------------------------------------

PmeParams pme_params_for_tier(MobilityTier tier, double box, double radius,
                              double ep_target, int order,
                              Precision precision) {
  switch (tier) {
    case MobilityTier::pme_krylov:
      return choose_pme_params(box, radius, ep_target, std::nullopt, order,
                               precision);
    case MobilityTier::pse_wavespace:
      return choose_pme_params_wavespace(box, radius, ep_target, order,
                                         precision);
    default:
      HBD_CHECK_MSG(false, "tier " << mobility_tier_name(tier)
                           << " is meshless: no PME parameters to choose");
      return PmeParams{};  // unreachable
  }
}

void validate_tier_params(MobilityTier tier, const PmeParams& params) {
  if (tier == MobilityTier::pme_krylov) {
    HBD_CHECK_MSG(params.brownian == BrownianMethod::krylov,
                  "tier pme_krylov requires BrownianMethod::krylov but params "
                  "select wavespace sampling — use tier pse_wavespace (or "
                  "choose_pme_params) for a consistent pairing");
  } else if (tier == MobilityTier::pse_wavespace) {
    HBD_CHECK_MSG(params.brownian == BrownianMethod::wavespace,
                  "tier pse_wavespace requires BrownianMethod::wavespace but "
                  "params select krylov sampling — use tier pme_krylov (or "
                  "choose_pme_params_wavespace) for a consistent pairing");
    HBD_CHECK_MSG(params.kernel == EwaldKernel::pse,
                  "tier pse_wavespace requires the positively split kernel "
                  "(EwaldKernel::pse): the Beenakker wave scalar is negative "
                  "for ka > sqrt(3), so the wave-space square root does not "
                  "exist — choose_pme_params_wavespace sets the pairing");
  }
}

std::unique_ptr<MobilityBackend> make_mobility_backend(
    MobilityTier tier, std::size_t n, double box, double radius,
    const PmeParams& pme_params, const KrylovConfig& krylov,
    std::shared_ptr<NeighborList> nlist) {
  switch (tier) {
    case MobilityTier::dense:
      return std::make_unique<DenseCholeskyBackend>(n, box, radius);
    case MobilityTier::tea:
      return std::make_unique<TeaBackend>(n, box, radius);
    case MobilityTier::pme_krylov:
      validate_tier_params(tier, pme_params);
      HBD_CHECK_MSG(nlist != nullptr,
                    "PME tiers need the shared neighbor list");
      return std::make_unique<PmeKrylovBackend>(n, box, radius, pme_params,
                                                krylov, std::move(nlist));
    case MobilityTier::pse_wavespace:
      validate_tier_params(tier, pme_params);
      HBD_CHECK_MSG(nlist != nullptr,
                    "PME tiers need the shared neighbor list");
      return std::make_unique<PseWavespaceBackend>(
          n, box, radius, pme_params, krylov, std::move(nlist));
  }
  HBD_CHECK_MSG(false, "unknown mobility tier");
  return nullptr;  // unreachable
}

}  // namespace hbd
