#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace hbd {

Fft3d::Fft3d(std::size_t nx, std::size_t ny, std::size_t nz)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      nzh_(nz / 2 + 1),
      plan_x_(nx),
      plan_y_(ny),
      plan_zh_(nz / 2) {
  HBD_CHECK_MSG(nz % 2 == 0 && nz >= 2, "Fft3d requires even nz");
  wz_.resize(nz / 2 + 1);
  for (std::size_t k = 0; k <= nz / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(nz);
    wz_[k] = {std::cos(ang), std::sin(ang)};
  }
}

namespace {
// Sequences per tile.  Every pass stages its work in per-thread
// split-complex tiles of about this many sequences and transforms a tile
// with one multi-line Fft1dPlan call, whose unit-stride inner loop runs
// across the sequences.  At one thread (bench_kernels, K = 36, 64, 96)
// that is 2× (batch 1) to 3× (batch 48) the throughput of one sequence per
// call; widths 8 and 32 measure within noise of 16.
constexpr std::size_t kTileLines = 16;
}  // namespace

// All passes keep the batch dimension fastest in memory.  The z passes take
// `group` adjacent xy points per tile, so that a tile holds about
// kTileLines sequences even at batch 1: sequence g·batch + q (xy point
// xy0 + g, component q) of the tile's L = gn·batch has element j at
// [j·L + g·batch + q].  The y and x passes gather adjacent columns (z
// frequency × batch index) of one plane, reading whole cache lines.  Every
// sequence gets exactly the arithmetic of a single-line transform, so
// batched results are bitwise equal to per-mesh ones.

// Real-to-complex along z: the even and odd samples of every component are
// the real and imaginary parts of half-length sequences, transformed
// together and untangled as X[k] = E[k] + w^k O[k].
void Fft3d::pass_z_forward(const double* in, Complex* out,
                           std::size_t batch) const {
  const std::size_t h = nz_ / 2, nxy = nx_ * ny_;
  const std::size_t group = std::max<std::size_t>(1, kTileLines / batch);
  const std::size_t tiles = (nxy + group - 1) / group;
#pragma omp parallel
  {
    aligned_vector<double> zr(h * group * batch), zi(h * group * batch),
        ws(plan_zh_.workspace_size(group * batch));
#pragma omp for schedule(static)
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::size_t xy0 = tile * group;
      const std::size_t gn = std::min(group, nxy - xy0), L = gn * batch;
      for (std::size_t g = 0; g < gn; ++g) {
        const double* blk = in + (xy0 + g) * nz_ * batch;
        for (std::size_t j = 0; j < h; ++j)
          for (std::size_t q = 0; q < batch; ++q) {
            zr[j * L + g * batch + q] = blk[2 * j * batch + q];
            zi[j * L + g * batch + q] = blk[(2 * j + 1) * batch + q];
          }
      }
      plan_zh_.forward(zr.data(), zi.data(), ws.data(), L);
      for (std::size_t g = 0; g < gn; ++g) {
        Complex* cblk = out + (xy0 + g) * nzh_ * batch;
        for (std::size_t k = 0; k <= h; ++k) {
          // a = Z[k mod h], b = conj Z[(h − k) mod h].
          const std::size_t ka = (k == h ? 0 : k) * L + g * batch;
          const std::size_t kb = (k == 0 ? 0 : h - k) * L + g * batch;
          const double wr = wz_[k].real(), wi = wz_[k].imag();
          for (std::size_t q = 0; q < batch; ++q) {
            const double ar = zr[ka + q], ai = zi[ka + q];
            const double br = zr[kb + q], bi = -zi[kb + q];
            // E = (a + b)/2, O = −i(a − b)/2.
            const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
            const double orr = 0.5 * (ai - bi), oi = -0.5 * (ar - br);
            cblk[k * batch + q] = {er + (wr * orr - wi * oi),
                                   ei + (wr * oi + wi * orr)};
          }
        }
      }
    }
  }
}

// Complex-to-real along z: retangle the half spectrum into half-length
// sequences, inverse transform them together, and copy their real and
// imaginary parts back as the even and odd samples.
void Fft3d::pass_z_inverse(const Complex* in, double* out,
                           std::size_t batch) const {
  const std::size_t h = nz_ / 2, nxy = nx_ * ny_;
  const std::size_t group = std::max<std::size_t>(1, kTileLines / batch);
  const std::size_t tiles = (nxy + group - 1) / group;
#pragma omp parallel
  {
    aligned_vector<double> zr(h * group * batch), zi(h * group * batch),
        ws(plan_zh_.workspace_size(group * batch));
#pragma omp for schedule(static)
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::size_t xy0 = tile * group;
      const std::size_t gn = std::min(group, nxy - xy0), L = gn * batch;
      for (std::size_t g = 0; g < gn; ++g) {
        const Complex* cblk = in + (xy0 + g) * nzh_ * batch;
        for (std::size_t k = 0; k < h; ++k) {
          // Z[k] = (A+B) + i·conj(w^k)·(A−B) with B = conj X[h − k], so
          // that the unnormalized half-length inverse yields
          // x[2j] + i x[2j+1].
          const Complex* ak = cblk + k * batch;
          const Complex* bk = cblk + (h - k) * batch;
          double* zrk = zr.data() + k * L + g * batch;
          double* zik = zi.data() + k * L + g * batch;
          const double wr = wz_[k].real(), wi = -wz_[k].imag();
          for (std::size_t q = 0; q < batch; ++q) {
            const double ar = ak[q].real(), ai = ak[q].imag();
            const double br = bk[q].real(), bi = -bk[q].imag();
            const double dr = ar - br, di = ai - bi;
            zrk[q] = (ar + br) - (wr * di + wi * dr);
            zik[q] = (ai + bi) + (wr * dr - wi * di);
          }
        }
      }
      plan_zh_.inverse(zr.data(), zi.data(), ws.data(), L);
      for (std::size_t g = 0; g < gn; ++g) {
        double* blk = out + (xy0 + g) * nz_ * batch;
        for (std::size_t j = 0; j < h; ++j)
          for (std::size_t q = 0; q < batch; ++q) {
            blk[2 * j * batch + q] = zr[j * L + g * batch + q];
            blk[(2 * j + 1) * batch + q] = zi[j * L + g * batch + q];
          }
      }
    }
  }
}

namespace {
// Transforms the `cols` interleaved columns of `planes` planes in place:
// plane i holds plan.size() rows of `cols` complexes at
// data[i·plan.size()·cols], and column c of a plane is one sequence.  The
// work-sharing loop runs over (plane, tile) pairs.
void pass_columns(const Fft1dPlan& plan, Complex* data, std::size_t planes,
                  std::size_t cols, bool forward) {
  const std::size_t n = plan.size();
  const std::size_t tiles = (cols + kTileLines - 1) / kTileLines;
#pragma omp parallel
  {
    aligned_vector<double> tr(n * kTileLines), ti(n * kTileLines),
        ws(plan.workspace_size(kTileLines));
#pragma omp for collapse(2) schedule(static)
    for (std::size_t plane = 0; plane < planes; ++plane)
      for (std::size_t t = 0; t < tiles; ++t) {
        // Balanced tiles: [c0, c1) of width ⌈cols/tiles⌉ or one less.
        const std::size_t c0 = t * cols / tiles, c1 = (t + 1) * cols / tiles;
        const std::size_t w = c1 - c0;
        Complex* base = data + plane * n * cols + c0;
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t c = 0; c < w; ++c) {
            tr[r * w + c] = base[r * cols + c].real();
            ti[r * w + c] = base[r * cols + c].imag();
          }
        if (forward)
          plan.forward(tr.data(), ti.data(), ws.data(), w);
        else
          plan.inverse(tr.data(), ti.data(), ws.data(), w);
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t c = 0; c < w; ++c)
            base[r * cols + c] = {tr[r * w + c], ti[r * w + c]};
      }
  }
}
}  // namespace

// Complex transform along y: each x plane is ny rows of nzh·batch columns.
void Fft3d::pass_y(Complex* data, std::size_t batch, bool forward) const {
  pass_columns(plan_y_, data, nx_, nzh_ * batch, forward);
}

// Complex transform along x: the whole array is nx rows of ny·nzh·batch
// columns.
void Fft3d::pass_x(Complex* data, std::size_t batch, bool forward) const {
  pass_columns(plan_x_, data, 1, ny_ * nzh_ * batch, forward);
}

void Fft3d::forward(const double* in, Complex* out) const {
  pass_z_forward(in, out, 1);
  pass_y(out, 1, /*forward=*/true);
  pass_x(out, 1, /*forward=*/true);
}

void Fft3d::inverse(const Complex* in, double* out) const {
  // Work on a copy so the caller's spectrum is preserved (the Krylov loop
  // reuses mesh buffers; an in-place destructive inverse invites aliasing
  // bugs for a minor memory win).
  aligned_vector<Complex> tmp(in, in + complex_size());
  pass_x(tmp.data(), 1, /*forward=*/false);
  pass_y(tmp.data(), 1, /*forward=*/false);
  pass_z_inverse(tmp.data(), out, 1);
}

void Fft3d::forward_batch(const double* in, Complex* out,
                          std::size_t batch) const {
  HBD_CHECK(batch >= 1);
  pass_z_forward(in, out, batch);
  pass_y(out, batch, /*forward=*/true);
  pass_x(out, batch, /*forward=*/true);
}

void Fft3d::inverse_batch(Complex* in, double* out, std::size_t batch) const {
  HBD_CHECK(batch >= 1);
  pass_x(in, batch, /*forward=*/false);
  pass_y(in, batch, /*forward=*/false);
  pass_z_inverse(in, out, batch);
}

}  // namespace hbd
