// The matrix-free mobility operator u = M̃ f (paper Sec. III–IV):
//
//   M̃ = M_real (sparse BCSR, includes the self term on the diagonal)
//      + M_recip (PME: spread → 3×FFT → influence → 3×IFFT → interpolate)
//
// in units of the single-particle mobility μ0 = 1/(6πηa).  One operator is
// constructed per mobility update (every λ_RPY steps, Algorithm 2 line 4)
// and applied many times: once per Krylov iteration per right-hand side and
// once per time step for the deterministic velocity.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/precision.hpp"
#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "fft/fft.hpp"
#include "linalg/dense_matrix.hpp"
#include "common/neighbor_list.hpp"
#include "ewald/kernel.hpp"
#include "pme/influence.hpp"
#include "pme/interp_matrix.hpp"
#include "pme/realspace.hpp"
#include "sparse/bcsr3.hpp"

namespace hbd {

class Xoshiro256;

/// Brownian sampling route of the matrix-free driver (Algorithm 2 line 6):
/// block Lanczos on the full operator (the paper's method, default), or the
/// PSE-style split of Fiore et al. (arXiv:1611.09322) — the far field is
/// sampled directly in wave space at ~one reciprocal apply per block and
/// Lanczos runs only on the sparse near field, whose tight spectrum
/// converges in a few iterations.
enum class BrownianMethod { krylov, wavespace };

inline const char* brownian_method_name(BrownianMethod m) {
  return m == BrownianMethod::wavespace ? "wavespace" : "krylov";
}

/// Numerical parameters of a PME mobility operator.
struct PmeParams {
  std::size_t mesh = 32;  ///< FFT mesh dimension K (even, smooth factors)
  int order = 6;          ///< interpolation order p (even)
  double rmax = 4.0;      ///< real-space cutoff (≤ box/2)
  double xi = 0.5;        ///< Ewald splitting parameter (paper's α)
  /// Verlet skin added to rmax for the persistent neighbor list: update()
  /// refreshes the real-space values in place and only re-enumerates pairs
  /// when a particle drifts past skin/2.  Skin pairs hold zero blocks, so
  /// the operator itself is independent of the skin.
  double skin = 0.5;
  bool precompute_interp = true;  ///< store P vs recompute on the fly
  /// SPME B-splines (default) or original-PME Lagrangian interpolation.
  InterpKind interp = InterpKind::bspline;
  /// Near-field storage: full BCSR (default) or symmetric half storage
  /// with the colored deterministic kernels (half the SpMV/SpMM traffic).
  NearFieldStorage storage = NearFieldStorage::full;
  /// Cell-granular partial neighbor rebuilds (drift threshold skin/3).
  /// Applied to the operator-owned list; a shared list is configured by
  /// its owner.
  bool partial_rebuilds = false;
  /// Skin auto-tuning towards `auto_skin_interval` updates per full
  /// rebuild (NeighborList::enable_auto_skin).  Same ownership caveat.
  bool auto_skin = false;
  double auto_skin_interval = 64.0;
  /// Storage precision of the near-field block values and interpolation
  /// weights (accumulation is always FP64).  FP32 halves the value stream
  /// of the bandwidth-bound phases; runs are gated by the e_p health
  /// probes.  A build with -DHBD_FP32_DEFAULT=ON flips the default.
#ifdef HBD_FP32_DEFAULT
  Precision precision = Precision::fp32;
#else
  Precision precision = Precision::fp64;
#endif
  /// Brownian sampling route (see BrownianMethod).  The default keeps the
  /// full-operator block-Krylov path bitwise identical to prior releases;
  /// wavespace enables the split sampler and its covariance health probe.
  BrownianMethod brownian = BrownianMethod::krylov;
  /// Ewald split (see EwaldKernel): Beenakker's kernel (default, bitwise
  /// identical to prior releases) or the positively-split PSE variant that
  /// wave-space sampling requires (choose_pme_params_wavespace sets it).
  EwaldKernel kernel = EwaldKernel::beenakker;
};

class PmeOperator {
 public:
  /// `neighbors` optionally shares a simulation-owned NeighborList with the
  /// real-space assembly (cutoff ≥ params.rmax); by default the operator
  /// owns a private list with params.skin.
  PmeOperator(std::span<const Vec3> pos, double box, double radius,
              const PmeParams& params,
              std::shared_ptr<NeighborList> neighbors = nullptr);

  /// Re-targets the operator at new positions of the same particles: the
  /// real-space matrix is refreshed in place through the persistent neighbor
  /// list and the interpolation weights are recomputed; the FFT plans,
  /// influence table, and all mesh/batch buffers are reused.  This is the
  /// per-mobility-update path (Algorithm 2 line 4) — no allocation in steady
  /// state.
  void update(std::span<const Vec3> pos);

  std::size_t particles() const { return n_; }
  const PmeParams& params() const { return params_; }
  double box() const { return box_; }
  double radius() const { return radius_; }

  /// u = M̃ f for one interleaved 3n vector.
  void apply(std::span<const double> f, std::span<double> u);

  /// U = M̃ F for a block of vectors (row-major 3n×s).  The real-space part
  /// runs as one BCSR multi-vector product; the reciprocal part runs the
  /// batched pipeline — all 3s mesh components are spread, transformed,
  /// scaled, and interpolated in one pass per phase, so the interpolation
  /// weights P and the influence function are read once per block apply
  /// instead of s times.
  void apply_block(const Matrix& f, Matrix& u);

  /// Real-space part only: u = (M_real + M_self) f.
  void apply_real(std::span<const double> f, std::span<double> u) const;
  void apply_real_block(const Matrix& f, Matrix& u) const;

  /// Reciprocal-space part only: u = M_recip f.
  void apply_recip(std::span<const double> f, std::span<double> u);

  /// Reciprocal-space part only for a block of vectors: U = M_recip F
  /// through the batched pipeline (overwrites U).
  void apply_recip_block(const Matrix& f, Matrix& u);

  /// Doubles of mesh noise consumed per sampled column by
  /// sample_recip_block: 2 (re, im) × 3 components × half-spectrum points.
  std::size_t wave_noise_doubles() const;

  /// Far-field Brownian sample U(:,j) = M_recip^{1/2} η_j for a block of
  /// columns (PSE split, Fiore et al. arXiv:1611.09322): the unit Gaussian
  /// mesh noise is scaled by sqrt(m_α(k)/2) and projected in reciprocal
  /// space (InfluenceFunction::apply_sqrt_batch), inverse-transformed, and
  /// interpolated back to the particles — the covariance of each column is
  /// exactly M_recip at the cost of roughly half a reciprocal apply (no
  /// spreading, no forward transforms).  `noise` holds iid N(0,1) doubles,
  /// 2·complex_size() per component: component c of column j occupies
  /// noise[(3j + c)·2·nspec ..), interleaved (re, im) per stored mode.
  void sample_recip_block(std::span<const double> noise, Matrix& u,
                          bool accumulate);

  /// Convenience overload drawing the noise from `rng`: 3s substream seeds
  /// are drawn sequentially (fixed consumption: 3s u64 per call), then each
  /// component mesh fills in parallel from its own generator — bitwise
  /// deterministic for any thread count.
  void sample_recip_block(Xoshiro256& rng, Matrix& u, bool accumulate);

  /// Clamped-to-retained spectral mass of the wave-space sqrt application
  /// (the ka > √3 modes where the Beenakker scalar is negative, with
  /// relative mass ~exp(−3/(4ξ²a²)) — O(1) at production splittings).
  /// Identically zero for EwaldKernel::pse, which is why wave-space
  /// sampling uses that kernel (choose_pme_params_wavespace).
  double wave_clamped_fraction() const {
    return influence_.sample_negative_fraction();
  }

  /// Phase timings (spreading / fft / influence / ifft / interpolation)
  /// accumulated over all apply calls — the Fig. 5 breakdown.
  const PhaseTimers& timers() const { return timers_; }
  void clear_timers() {
    timers_.clear();
    counts_ = {};
  }

  /// Apply-call counters accumulated alongside timers(): the drift audit
  /// scales the per-apply Eq. 10 predictions by these to model one audit
  /// window.  Reset by clear_timers().
  struct ApplyCounts {
    std::uint64_t single = 0;        ///< single-vector reciprocal sweeps
    std::uint64_t block = 0;         ///< batched block applies
    std::uint64_t block_columns = 0; ///< summed widths of the block applies
    std::uint64_t wave = 0;          ///< wave-space sample blocks
    std::uint64_t wave_columns = 0;  ///< summed widths of the wave samples
  };
  const ApplyCounts& apply_counts() const { return counts_; }

  /// Resident bytes of the operator (meshes + P + influence + M_real).
  std::size_t bytes() const;

  /// Full-stored near-field matrix (NearFieldStorage::full only; symmetric
  /// consumers go through realspace()).
  const Bcsr3Matrix& realspace_matrix() const { return real_.matrix(); }
  const RealspaceOperator& realspace() const { return real_; }
  const InterpMatrix& interp_matrix() const { return interp_; }

 private:
  /// Runs the batched reciprocal pipeline; with `accumulate` the result is
  /// added onto u (apply_block stacks it on the real-space part).
  void recip_block(const Matrix& f, Matrix& u, bool accumulate);

  /// Grows the persistent batch buffers to hold 3s meshes/spectra.
  void ensure_batch_capacity(std::size_t s);

  /// Modeled memory traffic of one s-column spread / interpolation pass
  /// (Eq. 10 byte counts), fed to the telemetry byte counters.
  std::uint64_t spread_traffic_bytes(std::size_t s) const;
  std::uint64_t interp_traffic_bytes(std::size_t s) const;

  std::size_t n_;
  double box_, radius_;
  PmeParams params_;

  RealspaceOperator real_;
  InterpMatrix interp_;
  InfluenceFunction influence_;
  Fft3d fft_;

  // Mesh work buffers (F_θ / U_θ and their spectra).
  aligned_vector<double> mesh_[3];
  aligned_vector<Complex> spec_[3];

  // Batched-pipeline buffers (3s interleaved meshes/spectra), lazily grown
  // to the widest block seen and reused across applies — no per-call
  // allocation on the Krylov hot path.
  aligned_vector<double> batch_mesh_;
  aligned_vector<Complex> batch_spec_;

  // Scratch for the real-space accumulation in apply(), sized once.
  aligned_vector<double> scratch_;

  // Wave-space sampling noise buffer (rng overload of sample_recip_block),
  // lazily grown to the widest block seen.
  aligned_vector<double> wave_noise_;

  PhaseTimers timers_;
  ApplyCounts counts_;
};

}  // namespace hbd
