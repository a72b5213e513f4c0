#include "hybrid/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace hbd {

HardwareParams westmere_ep() {
  return {
      .name = "Westmere-EP (2x X5680)",
      .peak_dp_gflops = 160.0,
      .stream_bw_gbs = 42.0,
      .fft_eff_max = 0.20,
      .fft_eff_k0 = 24.0,
      .ifft_penalty = 1.0,
      .pcie_bw_gbs = 0.0,
      .memory_gb = 24.0,
      .fft_rate_points = {},
  };
}

HardwareParams xeon_phi_knc() {
  return {
      .name = "Xeon Phi (KNC)",
      .peak_dp_gflops = 1074.0,
      // Raw STREAM is ~160 GB/s, but the PME phases gather/scatter; the
      // effective bandwidth used here reproduces the paper's measured
      // ≤1.6x reciprocal-space advantage over Westmere-EP (Fig. 6).
      .stream_bw_gbs = 80.0,
      .fft_eff_max = 0.06,
      // KNC FFTs only approach peak efficiency for large meshes; the paper
      // attributes the small-size slowdown to MKL-on-KNC inefficiency.
      .fft_eff_k0 = 110.0,
      .ifft_penalty = 0.6,  // "particularly the 3D inverse FFT"
      .pcie_bw_gbs = 6.0,
      .memory_gb = 8.0,
      .fft_rate_points = {},
  };
}

double PmePerfModel::fft_rate(std::size_t mesh) const {
  const double k = static_cast<double>(mesh);
  if (!hw_.fft_rate_points.empty()) {
    // Log-log interpolation of the measured samples, clamped at the ends.
    const auto& pts = hw_.fft_rate_points;
    if (k <= pts.front().first) return pts.front().second;
    if (k >= pts.back().first) return pts.back().second;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (k > pts[i].first) continue;
      const double t = (std::log(k) - std::log(pts[i - 1].first)) /
                       (std::log(pts[i].first) - std::log(pts[i - 1].first));
      return std::exp((1.0 - t) * std::log(pts[i - 1].second) +
                      t * std::log(pts[i].second));
    }
  }
  const double k0 = hw_.fft_eff_k0;
  const double eff = hw_.fft_eff_max * (k * k * k) / (k * k * k + k0 * k0 * k0);
  return eff * hw_.peak_dp_gflops * 1e9;  // flop/s
}

double PmePerfModel::t_spreading(std::size_t mesh, int order,
                                 std::size_t n) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double p3 = std::pow(static_cast<double>(order), 3);
  const double bytes = 24.0 * k3 + (28.0 + vb_) * p3 * static_cast<double>(n);
  return bytes / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_fft(std::size_t mesh) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double flops = 3.0 * 2.5 * k3 * std::log2(k3);
  return flops / fft_rate(mesh);
}

double PmePerfModel::t_ifft(std::size_t mesh) const {
  return t_fft(mesh) / hw_.ifft_penalty;
}

double PmePerfModel::t_influence(std::size_t mesh) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  // Scalar table (8 B per half-spectrum point) + in-place read/write of the
  // three complex half spectra (2 × 3 × 16 × K³/2).
  const double bytes = 8.0 * k3 / 2.0 + 48.0 * k3;
  return bytes / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_interpolation(int order, std::size_t n) const {
  const double p3 = std::pow(static_cast<double>(order), 3);
  return (28.0 + vb_) * p3 * static_cast<double>(n) /
         (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_recip(std::size_t mesh, int order,
                             std::size_t n) const {
  return t_spreading(mesh, order, n) + t_fft(mesh) + t_influence(mesh) +
         t_ifft(mesh) + t_interpolation(order, n);
}

double PmePerfModel::t_spreading_block(std::size_t mesh, int order,
                                       std::size_t n, std::size_t s) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double p3 = std::pow(static_cast<double>(order), 3);
  const double sd = static_cast<double>(s);
  const double bytes =
      24.0 * sd * k3 + (4.0 + vb_ + 24.0 * sd) * p3 * static_cast<double>(n);
  return bytes / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_fft_block(std::size_t mesh, std::size_t s) const {
  return static_cast<double>(s) * t_fft(mesh);
}

double PmePerfModel::t_ifft_block(std::size_t mesh, std::size_t s) const {
  return static_cast<double>(s) * t_ifft(mesh);
}

double PmePerfModel::t_influence_block(std::size_t mesh, std::size_t s) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double bytes = 8.0 * k3 / 2.0 + 48.0 * static_cast<double>(s) * k3;
  return bytes / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_interpolation_block(int order, std::size_t n,
                                           std::size_t s) const {
  const double p3 = std::pow(static_cast<double>(order), 3);
  const double bytes = (4.0 + vb_ + 24.0 * static_cast<double>(s)) * p3 *
                       static_cast<double>(n);
  return bytes / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_recip_block(std::size_t mesh, int order, std::size_t n,
                                   std::size_t s) const {
  return t_spreading_block(mesh, order, n, s) + t_fft_block(mesh, s) +
         t_influence_block(mesh, s) + t_ifft_block(mesh, s) +
         t_interpolation_block(order, n, s);
}

double PmePerfModel::t_wave_sample(std::size_t mesh, int order, std::size_t n,
                                   std::size_t s) const {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double sd = static_cast<double>(s);
  // Gaussian mesh-noise fill: 3s half-spectra of K³/2 complex values —
  // 3·s·K³ doubles written (24 s K³ bytes) at ~40 flops per variate
  // (Box–Muller log/sqrt/sincos); take the slower of the two limits.
  const double noise_values = 3.0 * sd * k3;
  const double t_noise =
      std::max(8.0 * noise_values / (hw_.stream_bw_gbs * 1e9),
               40.0 * noise_values / (hw_.peak_dp_gflops * 1e9));
  // The sqrt-influence pass streams the same bytes as the batched
  // influence (one scalar table read + in-place update of 3s spectra).
  return t_noise + t_influence_block(mesh, s) + t_ifft_block(mesh, s) +
         t_interpolation_block(order, n, s);
}

double PmePerfModel::mean_neighbors(std::size_t n, double rmax, double box) {
  const double density = static_cast<double>(n) / (box * box * box);
  return 4.0 / 3.0 * std::numbers::pi * rmax * rmax * rmax * density;
}

double PmePerfModel::t_pme_step(std::size_t n, double box, double rmax,
                                std::size_t mesh, int order,
                                const PmeStepShape& shape) const {
  const std::size_t lambda = std::max<std::size_t>(shape.lambda, 1);
  const double nbr = mean_neighbors(n, rmax, box);
  // Per extra SpMM column: the x and y streams (plus the y read-back of the
  // symmetric transpose scatter) while the matrix itself is read once.
  const double vec_bytes = shape.symmetric ? 72.0 : 48.0;
  const double t_real = t_realspace(n, nbr, shape.symmetric);
  const double t_single = t_real + t_recip(mesh, order, n);
  const double t_real_block =
      t_real + static_cast<double>(lambda - 1) * vec_bytes *
                   static_cast<double>(n) / (hw_.stream_bw_gbs * 1e9);
  const double t_block = t_real_block + t_recip_block(mesh, order, n, lambda);
  const double nf_it =
      static_cast<double>(std::max(shape.nearfield_iterations, 1));
  const double t_sampling =
      shape.wavespace
          ? t_wave_sample(mesh, order, n, lambda) + nf_it * t_real_block
          : static_cast<double>(shape.krylov_iterations) * t_block;
  return t_single + t_sampling / static_cast<double>(lambda) +
         t_realspace_overhead(n, nbr, shape.lambda, shape.rebuild_interval,
                              shape.rebuild_fraction);
}

double PmePerfModel::t_realspace(std::size_t n, double neighbors,
                                 bool symmetric) const {
  return t_realspace_block(n, neighbors, 1, symmetric);
}

double PmePerfModel::t_realspace_block(std::size_t n, double neighbors,
                                       std::size_t s, bool symmetric) const {
  const double logical = static_cast<double>(n) * (neighbors + 1.0);
  // Half storage streams the diagonal plus half the off-diagonal blocks;
  // the transpose scatter reads the output vector back (24 B/particle per
  // column on top of the full-storage 48 B x-read + y-write).
  const double stored =
      symmetric ? static_cast<double>(n) * (0.5 * neighbors + 1.0) : logical;
  const double vector_bytes = symmetric ? 72.0 : 48.0;
  const double sd = static_cast<double>(s);
  const double bytes =
      stored * (9.0 * vb_ + 4.0) + vector_bytes * static_cast<double>(n) * sd;
  const double flops = logical * 18.0 * sd;
  return std::max(bytes / (hw_.stream_bw_gbs * 1e9),
                  flops / (hw_.peak_dp_gflops * 1e9));
}

double PmePerfModel::t_realspace_assembly(std::size_t n,
                                          double neighbors) const {
  const double blocks = static_cast<double>(n) * (neighbors + 1.0);
  // Write 9·vb B of values per block, read the 4 B column index and the
  // 24 B neighbor position; positions of the row owners stream once.
  const double bytes = blocks * (9.0 * vb_ + 4.0 + 24.0) + 24.0 * n;
  // Minimum image + distance, erfc/exp pair coefficients, 3×3 outer product.
  const double flops = blocks * 200.0;
  return std::max(bytes / (hw_.stream_bw_gbs * 1e9),
                  flops / (hw_.peak_dp_gflops * 1e9));
}

double PmePerfModel::t_neighbor_rebuild(std::size_t n, double neighbors,
                                        double fraction) const {
  constexpr double kStencilOverVolume = 27.0 / (4.0 / 3.0 * std::numbers::pi);
  const double f = std::clamp(fraction, 0.0, 1.0);
  const double candidates =
      static_cast<double>(n) * neighbors * kStencilOverVolume * f;
  // Candidate distance checks dominate the arithmetic; binning and the
  // per-row column sort dominate the traffic (cols written by the fill pass
  // and rewritten by the sort).  Binning and the drift scan stay O(n) even
  // when only a fraction of the rows is re-enumerated.
  const double flops = candidates * 20.0 + 30.0 * static_cast<double>(n);
  const double bytes = candidates * 24.0 +
                       static_cast<double>(n) * (neighbors * 8.0 * f + 32.0);
  return std::max(bytes / (hw_.stream_bw_gbs * 1e9),
                  flops / (hw_.peak_dp_gflops * 1e9));
}

double PmePerfModel::t_realspace_overhead(std::size_t n, double neighbors,
                                          std::size_t lambda,
                                          double rebuild_interval,
                                          double rebuild_fraction) const {
  if (lambda == 0 || rebuild_interval <= 0.0) return 0.0;
  return t_realspace_assembly(n, neighbors) / static_cast<double>(lambda) +
         t_neighbor_rebuild(n, neighbors, rebuild_fraction) / rebuild_interval;
}

double PmePerfModel::t_offload_transfer(std::size_t n) const {
  if (hw_.pcie_bw_gbs <= 0.0) return 0.0;
  return 2.0 * 24.0 * static_cast<double>(n) / (hw_.pcie_bw_gbs * 1e9);
}

double PmePerfModel::bytes_recip(std::size_t mesh, int order, std::size_t n,
                                 double value_bytes) {
  const double k3 = std::pow(static_cast<double>(mesh), 3);
  const double p3 = std::pow(static_cast<double>(order), 3);
  return 24.0 * k3 + (4.0 + value_bytes) * p3 * static_cast<double>(n) +
         8.0 * k3 / 2.0;
}

double PmePerfModel::bytes_dense(std::size_t n) {
  const double d = 3.0 * static_cast<double>(n);
  return 2.0 * d * d * 8.0;  // mobility matrix + Cholesky factor
}

double PmePerfModel::t_cholesky(std::size_t n) const {
  const double d = 3.0 * static_cast<double>(n);
  const double flops = d * d * d / 3.0;
  // Blocked Cholesky sustains a healthy fraction of peak.
  return flops / (0.5 * hw_.peak_dp_gflops * 1e9);
}

double PmePerfModel::t_tea_apply(std::size_t n, std::size_t s) const {
  // Dense GEMM against the assembled (3n)² periodic mobility: one matrix
  // sweep per block apply (the s columns ride in cache), bandwidth-bound,
  // plus the 2-flops-per-entry-per-column compute floor.
  const double d = 3.0 * static_cast<double>(n);
  const double t_mem = d * d * 8.0 / (hw_.stream_bw_gbs * 1e9);
  const double t_flop = d * d * 2.0 * static_cast<double>(s) /
                        (0.5 * hw_.peak_dp_gflops * 1e9);
  return t_mem > t_flop ? t_mem : t_flop;
}

double PmePerfModel::t_tea_setup(std::size_t n, const EwaldParams& p,
                                 double box) const {
  // Assembly plus the S_r/ε̄ row sweep: 3 flops per entry over one more
  // read of the matrix.
  const double d = 3.0 * static_cast<double>(n);
  const double t_sweep = std::max(d * d * 8.0 / (hw_.stream_bw_gbs * 1e9),
                                  d * d * 3.0 / (0.5 * hw_.peak_dp_gflops * 1e9));
  return t_dense_assembly(n, p, box) + t_sweep;
}

double PmePerfModel::t_dense_apply(std::size_t n) const {
  const double d = 3.0 * static_cast<double>(n);
  return d * d * 8.0 / (hw_.stream_bw_gbs * 1e9);
}

double PmePerfModel::t_dense_assembly(std::size_t n, const EwaldParams& p,
                                      double box) const {
  // Flop equivalents at half the calibrated peak: one real-space image
  // (sqrt, erfc, exp, divisions, the f/g polynomials and the 6-entry tensor
  // update), one wave vector of a pair (8 FMAs), one sin/cos pair.  The
  // image cost is fitted to ewald_mobility_dense at n = 1000, tolerances
  // 1e-2 and 1e-6, on one thread of a 4-core x86-64 host.
  constexpr double kFlopsPerImage = 400.0;
  constexpr double kFlopsPerWaveVector = 16.0;
  constexpr double kFlopsPerSinCos = 40.0;
  const double nn = static_cast<double>(n);
  const double pairs = 0.5 * nn * nn;
  // A shifted lattice has on average (4π/3)(rcut/L)³ points inside rcut.
  const double rl = p.rcut / box;
  const double images = 4.0 / 3.0 * std::numbers::pi * rl * rl * rl;
  const double side = 2.0 * p.kmax + 1.0;
  const double half_k = 0.5 * (side * side * side - 1.0);
  const double flops =
      pairs * (images * kFlopsPerImage + half_k * kFlopsPerWaveVector) +
      nn * half_k * kFlopsPerSinCos;
  const double bytes = 9.0 * nn * nn * 8.0;  // the (3n)² matrix, written once
  return std::max(flops / (0.5 * hw_.peak_dp_gflops * 1e9),
                  bytes / (hw_.stream_bw_gbs * 1e9));
}

}  // namespace hbd
