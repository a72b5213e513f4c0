// Fidelity-tiered mobility backends (the serving seam over the paper's
// engines).  The paper's central trade (Tables II–III, Eq. 10) is accuracy
// vs. cost: loosened tolerances buy 6–20× speedups.  MobilityBackend puts
// one interface over the four ways this codebase can realize M̃·x and
// M̃^{1/2}·Z, ordered coarse → fine:
//
//   * TeaBackend          — Geyer–Winter truncated-expansion approximation
//     (arXiv:0801.3212): O(n²) pairwise Ewald-summed RPY with a β-corrected,
//     diagonal-normalized square root — no Cholesky, no Krylov, no mesh
//     (docs/theory.md §13);
//   * PseWavespaceBackend — PME + PSE split sampling (far field drawn
//     directly in wave space, Lanczos on the sparse near field);
//   * PmeKrylovBackend    — PME + full-operator block Krylov (the paper's
//     Algorithm 2, the default);
//   * DenseCholeskyBackend— dense Ewald mobility + Cholesky (Algorithm 1).
//
// The BD driver delegates operator construction, deterministic application,
// and Brownian sampling to the active backend; TierPolicy maps a caller's
// ErrorBudget to the cheapest tier whose declared error fits, validated
// online by the e_p health probes with hysteretic promotion on violation.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/neighbor_list.hpp"
#include "common/rng.hpp"
#include "core/brownian.hpp"
#include "core/krylov.hpp"
#include "ewald/beenakker.hpp"
#include "linalg/dense_matrix.hpp"
#include "pme/pme_operator.hpp"

namespace hbd {

/// Fidelity tiers in cost order (cheapest first).  The enum value doubles
/// as the registry gauge encoding (`bd.tier`) and the stream-record field.
enum class MobilityTier {
  tea = 0,            ///< Geyer–Winter TEA, O(n²) pairwise, ~5e-2 error
  pse_wavespace = 1,  ///< PME + wave-space split sampling
  pme_krylov = 2,     ///< PME + full-operator block Krylov (default)
  dense = 3,          ///< dense Ewald + Cholesky (premium reference)
};
inline constexpr std::size_t kMobilityTierCount = 4;

const char* mobility_tier_name(MobilityTier tier);
/// Parses "tea" / "pse_wavespace" / "pme_krylov" / "dense" (throws
/// hbd::Error on anything else) — the HBD_TIER / replay-bundle encoding.
MobilityTier parse_mobility_tier(std::string_view name);

/// Factory-default declared relative mobility error of a tier: what a
/// backend built by make_mobility_backend with default parameters promises.
/// TEA's bound is the min-image truncation residual after the Hasimoto
/// diagonal correction (docs/theory.md §13); the PME tiers inherit the
/// parameter chooser's e_p target; dense's doubles as its Ewald truncation
/// tolerance.
double tier_default_ep(MobilityTier tier);

/// TEA's declared relative mobility error (the bench gate bound).
inline constexpr double kTeaDeclaredEp = 5e-2;

/// A caller's accuracy requirement: the largest relative mobility error
/// e_p = ‖u − u_exact‖/‖u_exact‖ the run is willing to accept.
struct ErrorBudget {
  double ep = 1e-3;
};

/// One mobility engine: owns operator construction/refresh, deterministic
/// M̃·x application, and Brownian M̃^{1/2}·Z sampling for its tier.  The BD
/// driver calls rebuild() every λ_RPY steps, sample_block() once per
/// rebuild, and apply() once per step; backends replicate the pre-seam call
/// sequences exactly, so the default tiers are bitwise identical to the
/// hard-wired engines they wrap.
class MobilityBackend {
 public:
  virtual ~MobilityBackend() = default;

  virtual MobilityTier tier() const = 0;
  virtual std::size_t dim() const = 0;

  /// Constructs (first call) or refreshes the operator at the wrapped
  /// positions — PmeOperator::update semantics for the PME tiers.
  virtual void rebuild(std::span<const Vec3> wrapped) = 0;

  /// u = M̃ f for one interleaved 3n vector.
  virtual void apply(std::span<const double> f, std::span<double> u) = 0;
  /// U = M̃ F for a row-major 3n×s block; the default loops apply().
  virtual void apply_block(const Matrix& f, Matrix& u);

  /// D (3n×s) with per-column covariance two_kbt_dt·M̃.  `z` is the
  /// trajectory-stream Gaussian block — drawn by the driver for every tier,
  /// so the trajectory stream's draw sequence is tier-independent.
  /// `wave_rng` is the disjoint wave-space substream; only the wavespace
  /// tier consumes it (3s u64 draws per block), every other tier ignores
  /// it, so it may be null for them.
  virtual Matrix sample_block(const Matrix& z, double two_kbt_dt,
                              Xoshiro256* wave_rng) = 0;

  /// Convergence stats of the last sample_block (zero iterations and
  /// converged=true for the non-iterative tiers).
  const KrylovStats& last_stats() const { return stats_; }

  /// Resident bytes of the mobility representation.
  virtual std::size_t bytes() const = 0;

  /// The underlying PME operator (null for the TEA and dense tiers — the
  /// drift audit and wave gauges guard on this).
  virtual PmeOperator* pme() { return nullptr; }

  /// The relative mobility error this backend's configuration declares;
  /// TierPolicy routes against it, the e_p probes validate it.
  virtual double declared_ep() const = 0;

 protected:
  KrylovStats stats_;
};

/// Algorithm 1's engine: dense Ewald-summed RPY mobility + Cholesky, with
/// the Ewald sums truncated at tier_default_ep(dense).
class DenseCholeskyBackend final : public MobilityBackend {
 public:
  DenseCholeskyBackend(std::size_t n, double box, double radius);

  MobilityTier tier() const override { return MobilityTier::dense; }
  std::size_t dim() const override { return 3 * n_; }
  void rebuild(std::span<const Vec3> wrapped) override;
  void apply(std::span<const double> f, std::span<double> u) override;
  void apply_block(const Matrix& f, Matrix& u) override;
  Matrix sample_block(const Matrix& z, double two_kbt_dt,
                      Xoshiro256* wave_rng) override;
  std::size_t bytes() const override;
  double declared_ep() const override {
    return tier_default_ep(MobilityTier::dense);
  }

  const Matrix& matrix() const { return mobility_; }

 private:
  std::size_t n_;
  double box_, radius_;
  EwaldParams params_;
  Matrix mobility_;
  /// Factored lazily on the first sample after a rebuild (athermal runs
  /// never pay for it); Cholesky consumes no RNG, so the deferral does not
  /// perturb the trajectory stream.
  std::optional<CholeskyBrownianSampler> sampler_;
};

/// Shared PME-tier state: the operator (built on the shared neighbor list
/// at the first rebuild, refreshed in place afterwards) and the Krylov
/// configuration of the sampler.
class PmeBackendBase : public MobilityBackend {
 public:
  PmeBackendBase(std::size_t n, double box, double radius, PmeParams params,
                 KrylovConfig krylov, std::shared_ptr<NeighborList> nlist);

  std::size_t dim() const override { return 3 * n_; }
  void rebuild(std::span<const Vec3> wrapped) override;
  void apply(std::span<const double> f, std::span<double> u) override;
  void apply_block(const Matrix& f, Matrix& u) override;
  std::size_t bytes() const override;
  PmeOperator* pme() override { return pme_ ? &*pme_ : nullptr; }
  double declared_ep() const override { return tier_default_ep(tier()); }
  const PmeParams& params() const { return params_; }

 protected:
  std::size_t n_;
  double box_, radius_;
  PmeParams params_;
  KrylovConfig krylov_;
  std::shared_ptr<NeighborList> nlist_;
  std::optional<PmeOperator> pme_;
};

/// Algorithm 2's engine: full-operator block Lanczos sampling.
class PmeKrylovBackend final : public PmeBackendBase {
 public:
  using PmeBackendBase::PmeBackendBase;
  MobilityTier tier() const override { return MobilityTier::pme_krylov; }
  Matrix sample_block(const Matrix& z, double two_kbt_dt,
                      Xoshiro256* wave_rng) override;
};

/// PSE split sampling: far field drawn directly in wave space from the
/// disjoint wave substream, Lanczos on the sparse near field only.
class PseWavespaceBackend final : public PmeBackendBase {
 public:
  using PmeBackendBase::PmeBackendBase;
  MobilityTier tier() const override { return MobilityTier::pse_wavespace; }
  Matrix sample_block(const Matrix& z, double two_kbt_dt,
                      Xoshiro256* wave_rng) override;
};

/// Geyer–Winter truncated-expansion approximation (arXiv:0801.3212) over
/// the periodic Ewald-summed RPY tensor: rebuild assembles D pairwise (a
/// loose-tolerance direct Ewald sum — min-image truncation of the bare
/// 1/r Oseen term has O(1) error, so the lattice sum is NOT optional) with
/// the analytic Hasimoto diagonal D_ii = h·I,
/// h = 1 − 2.837297(a/L) + (4π/3)(a/L)³ (docs/theory.md §13).
/// Sampling is a single O(n²) dense apply:
///
///   y = Ĉ ∘ [(1−β)·h·z + β·D z] / √h,
///   Ĉ_i = [1 + β² S_i / h²]^{-1/2},  S_i = Σ_{l≠i} D_il²,
///
/// with β the Geyer–Winter root of the normalized mean coupling ε̄ — the
/// diagonal of the sampled covariance equals h exactly by construction,
/// and no factorization or iteration is ever performed.
class TeaBackend final : public MobilityBackend {
 public:
  TeaBackend(std::size_t n, double box, double radius);

  MobilityTier tier() const override { return MobilityTier::tea; }
  std::size_t dim() const override { return 3 * n_; }
  void rebuild(std::span<const Vec3> wrapped) override;
  void apply(std::span<const double> f, std::span<double> u) override;
  void apply_block(const Matrix& f, Matrix& u) override;
  Matrix sample_block(const Matrix& z, double two_kbt_dt,
                      Xoshiro256* wave_rng) override;
  std::size_t bytes() const override;
  double declared_ep() const override { return kTeaDeclaredEp; }

  /// Hasimoto-corrected periodic self mobility h (the TEA diagonal).
  double hasimoto() const { return h_; }
  /// The Geyer–Winter β of the last rebuild (→ 1/2 at weak coupling).
  double beta() const { return beta_; }
  /// True when 1 − x went negative in the β root (dense suspensions where
  /// the truncated expansion breaks down; β is clamped to 1/x and the e_p
  /// probe is the authority — docs/theory.md §13).
  bool beta_clamped() const { return clamped_; }

 private:
  std::size_t n_;
  double box_, radius_;
  double h_ = 1.0;
  double beta_ = 0.5;
  bool clamped_ = false;
  EwaldParams eparams_;  // loose-tolerance direct-Ewald assembly params
  Matrix d_;               // assembled periodic RPY mobility
  std::vector<double> c_;  // per-index TEA normalizers Ĉ (3n)
  Matrix dz_;              // D·z scratch for sample_block
};

/// e_p of a backend measured against a live high-resolution PME reference
/// (both targeted at the same positions): mean over `samples` random force
/// columns of the per-column norm ratio, exactly the
/// measure_pme_error_operators probe generalized to any backend — on a PME
/// tier the two produce identical values.
double measure_backend_error(MobilityBackend& backend, PmeOperator& reference,
                             std::size_t samples = 4, std::uint64_t seed = 7);

/// Budget → tier routing with hysteresis.  choose() picks the cheapest
/// candidate whose declared error fits the budget; record_probe() bars a
/// tier whose *measured* e_p violated the budget, so the next choose()
/// promotes past it and never returns (no ping-pong across the boundary).
/// Demotions additionally require a minimum dwell and a relative margin
/// under the budget, so a tier sitting at the boundary cannot oscillate.
class TierPolicy {
 public:
  struct Config {
    /// Rebuilds the active tier must have dwelt before a demotion or
    /// lateral move is allowed (promotions are immediate).
    int min_dwell = 2;
    /// A cheaper tier is adopted only when its declared error leaves this
    /// relative margin under the budget (declared ≤ margin·budget) once a
    /// tier is already active; the hysteresis band that blocks boundary
    /// oscillation.  The *initial* choice admits declared == budget.
    double demote_margin = 0.999;
  };

  struct Candidate {
    MobilityTier tier;
    double declared_ep;
    double cost;  ///< modeled per-step seconds (hybrid/perf_model)
  };

  explicit TierPolicy(ErrorBudget budget) : TierPolicy(budget, Config{}) {}
  TierPolicy(ErrorBudget budget, Config config);

  /// Routes one rebuild.  Never throws on an infeasible budget: when no
  /// candidate fits, the finest (lowest declared error) tier is returned.
  MobilityTier choose(std::span<const Candidate> candidates);

  /// Online validation: feeds one probed e_p of the active tier.  Returns
  /// true (and bars the tier) when the probe violated the budget.
  bool record_probe(MobilityTier active, double ep);

  bool barred(MobilityTier tier) const;
  std::uint64_t switches() const { return switches_; }
  const ErrorBudget& budget() const { return budget_; }

 private:
  ErrorBudget budget_;
  Config config_;
  std::array<bool, kMobilityTierCount> barred_{};
  bool has_current_ = false;
  MobilityTier current_ = MobilityTier::pme_krylov;
  int dwell_ = 0;
  std::uint64_t switches_ = 0;
};

/// The single place kernel/params pairing is chosen (hoisted from the
/// per-call-site choose_pme_params vs choose_pme_params_wavespace ternary):
/// pme_krylov → choose_pme_params (Beenakker kernel, krylov sampling);
/// pse_wavespace → choose_pme_params_wavespace (PSE kernel, wavespace
/// sampling).  Throws hbd::Error for the meshless tiers.
PmeParams pme_params_for_tier(MobilityTier tier, double box, double radius,
                              double ep_target, int order = 6,
                              Precision precision = Precision::fp64);

/// Structured pairing enforcement: pme_krylov requires
/// BrownianMethod::krylov; pse_wavespace requires BrownianMethod::wavespace
/// AND EwaldKernel::pse (the wave-space square root needs a nonnegative
/// spectrum).  Throws hbd::Error naming the mismatch; no-op for the
/// meshless tiers.
void validate_tier_params(MobilityTier tier, const PmeParams& params);

/// Builds a backend for `tier`, declaring tier_default_ep(tier).  PME tiers
/// are validated with validate_tier_params and share `nlist` (cutoff ≥
/// params.rmax); the meshless tiers ignore `pme_params` and `nlist`.
std::unique_ptr<MobilityBackend> make_mobility_backend(
    MobilityTier tier, std::size_t n, double box, double radius,
    const PmeParams& pme_params, const KrylovConfig& krylov,
    std::shared_ptr<NeighborList> nlist);

}  // namespace hbd
