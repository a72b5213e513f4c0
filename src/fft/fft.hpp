// FFT substrate.  The paper computes the PME reciprocal-space sum with MKL's
// in-place real 3-D FFTs; this environment has no FFT library, so the
// library carries its own plan-based implementation:
//
//   * mixed-radix complex 1-D FFT (any length whose prime factors are ≤ 13),
//     computed by an iterative Stockham autosort transform (see Fft1dPlan),
//   * real-to-complex / complex-to-real 1-D wrappers via the half-length
//     complex trick (even lengths),
//   * 3-D r2c/c2r transforms storing only the half spectrum
//     (nx × ny × (nz/2+1)), matching the memory-halving layout the paper
//     exploits for the influence function (Sec. IV-B.3).
//
// Conventions: the forward transform is  X[k] = Σ_j x[j] e^{-2πi jk/N}  and
// the inverse is the unnormalized conjugate sum  x[j] = Σ_k X[k] e^{+2πi jk/N},
// so forward∘inverse = N·identity.  PME needs exactly these unnormalized
// sums (the 1/L³ volume factor is explicit in the Ewald formulas).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/aligned.hpp"

namespace hbd {

using Complex = std::complex<double>;

/// Plan for complex 1-D FFTs of a fixed length n.  Immutable after
/// construction and safe to share across threads; each call site provides
/// its own workspace.
///
/// Algorithm: n is factored radix 4 first, then 2, 3, 5, 7, 11, 13, and the
/// transform runs one Stockham autosort stage per factor.  A stage of radix
/// p combines p interleaved transforms of length l into transforms of length
/// l·p: with m = n/(l·p),
///
///   out[(k + l·u)·m + s] = Σ_t ω_p^{t·u} · ω_{l·p}^{t·k} · in[(k·p + t)·m + s]
///
/// for k < l, u < p, s < m.  The output is already in natural order (no
/// bit-reversal pass) and the innermost loop over s is unit-stride with a
/// fixed twiddle.  Each stage owns a contiguous table of its ω_{l·p}^{t·k}
/// (k ≥ 1; k = 0 needs none); radices 2, 3, 4, 5 have dedicated butterflies
/// and 7, 11, 13 a generic one over a precomputed ω_p table.
///
/// Data is held in split form (real parts in one array, imaginary parts in
/// another), so the unit-stride loops vectorize without shuffles.  A call
/// transforms `lines` interleaved sequences at once: element j of sequence
/// q is (re[j·lines + q], im[j·lines + q]).  That is the same stage loop
/// with s running over m·lines, so every sequence sees exactly the
/// arithmetic of a single-line call: results are bitwise independent of
/// `lines`.
class Fft1dPlan {
 public:
  explicit Fft1dPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Required workspace length (in doubles) for a call on `lines`
  /// sequences: the stages ping-pong between (re, im) and the workspace,
  /// which must not overlap either array.
  std::size_t workspace_size(std::size_t lines = 1) const {
    return 2 * n_ * lines;
  }

  /// In-place forward transform (sign −1 in the exponent) of `lines`
  /// interleaved sequences of n_·lines split-complex elements.
  void forward(double* re, double* im, double* workspace,
               std::size_t lines = 1) const;
  /// In-place unnormalized inverse transform (sign +1).
  void inverse(double* re, double* im, double* workspace,
               std::size_t lines = 1) const;

 private:
  struct Stage {
    std::size_t radix;    // p
    std::size_t l;        // length of the transforms this stage combines
    std::size_t twiddle;  // offset of this stage's table in twiddles_
  };

  template <bool Forward>
  void transform(double* re, double* im, double* workspace,
                 std::size_t lines) const;

  std::size_t n_;
  std::vector<Stage> stages_;
  // Per stage: ω_{l·p}^{t·k} at [(k−1)·(p−1) + t−1], then, for radices
  // above 5, the p roots ω_p^j.  Forward-direction values; the inverse
  // conjugates them inside the butterflies.
  aligned_vector<Complex> twiddles_;
};

/// Reference O(n²) DFT used by the test suite.
void dft_naive(const Complex* in, Complex* out, std::size_t n, bool forward);

/// 3-D transforms between a real nx×ny×nz array (row-major, z fastest) and
/// the complex half spectrum nx×ny×(nz/2+1).  nz must be even.
///
/// Besides the single-mesh transforms, the plan exposes batched variants
/// that transform `batch` meshes stored interleaved (mesh index fastest:
/// element (t, q) of the batch lives at data[t*batch + q]).  The batched
/// entry points run one parallel region per axis with the work-sharing loop
/// over tiles of (line, mesh) sequences, so the 3s meshes of a block
/// mobility application are transformed in a single pass instead of s
/// passes of 3.
class Fft3d {
 public:
  Fft3d(std::size_t nx, std::size_t ny, std::size_t nz);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  /// Number of complex entries of the half spectrum.
  std::size_t complex_size() const { return nx_ * ny_ * nzh_; }
  std::size_t real_size() const { return nx_ * ny_ * nz_; }

  /// Forward real-to-complex transform (unnormalized).
  void forward(const double* in, Complex* out) const;
  /// Inverse complex-to-real transform (unnormalized: forward∘inverse = N·id
  /// with N = nx·ny·nz).  `in` is not modified.
  void inverse(const Complex* in, double* out) const;

  /// Batched forward transform of `batch` interleaved real meshes into
  /// `batch` interleaved half spectra.
  void forward_batch(const double* in, Complex* out, std::size_t batch) const;
  /// Batched inverse transform.  Destroys `in`: unlike the single-mesh
  /// inverse there is no defensive spectrum copy — batch buffers are owned
  /// by the caller's pipeline and are dead after this call.
  void inverse_batch(Complex* in, double* out, std::size_t batch) const;

 private:
  // Axis passes shared by the scalar and batched entry points; `batch` is
  // the interleave factor (1 for the scalar transforms).
  void pass_z_forward(const double* in, Complex* out, std::size_t batch) const;
  void pass_z_inverse(const Complex* in, double* out, std::size_t batch) const;
  void pass_y(Complex* data, std::size_t batch, bool forward) const;
  void pass_x(Complex* data, std::size_t batch, bool forward) const;

  std::size_t nx_, ny_, nz_, nzh_;
  Fft1dPlan plan_x_, plan_y_, plan_zh_;  // zh: half-length complex plan
  aligned_vector<Complex> wz_;           // e^{-2πi k / nz}, k = 0..nz/2
};

}  // namespace hbd
