// Tests for the FFT substrate: 1-D mixed radix against the naive DFT,
// round trips, Parseval, and the 3-D r2c/c2r transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace hbd {
namespace {

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  std::vector<Complex> v(n);
  Xoshiro256 rng(seed);
  for (auto& c : v)
    c = {2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0};
  return v;
}

// Transforms the `lines` interleaved sequences held in x, in place, through
// the plan's split-complex interface.
void run_plan(const Fft1dPlan& plan, std::vector<Complex>& x, bool forward,
              std::size_t lines = 1) {
  std::vector<double> re(x.size()), im(x.size()),
      ws(plan.workspace_size(lines));
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  if (forward)
    plan.forward(re.data(), im.data(), ws.data(), lines);
  else
    plan.inverse(re.data(), im.data(), ws.data(), lines);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = {re[i], im[i]};
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 17 + n);
  std::vector<Complex> expected(n);
  dft_naive(x.data(), expected.data(), n, /*forward=*/true);

  Fft1dPlan plan(n);
  std::vector<Complex> y = x;
  run_plan(plan, y, /*forward=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), expected[i].real(), 1e-10 * n) << "n=" << n;
    EXPECT_NEAR(y[i].imag(), expected[i].imag(), 1e-10 * n) << "n=" << n;
  }
}

TEST_P(Fft1dSizes, RoundTripIsNTimesIdentity) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 31 + n);
  Fft1dPlan plan(n);
  std::vector<Complex> y = x;
  run_plan(plan, y, /*forward=*/true);
  run_plan(plan, y, /*forward=*/false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), n * x[i].real(), 1e-10 * n);
    EXPECT_NEAR(y[i].imag(), n * x[i].imag(), 1e-10 * n);
  }
}

TEST_P(Fft1dSizes, Parseval) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 57 + n);
  Fft1dPlan plan(n);
  std::vector<Complex> y = x;
  run_plan(plan, y, /*forward=*/true);
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ex += std::norm(x[i]);
    ey += std::norm(y[i]);
  }
  EXPECT_NEAR(ey, n * ex, 1e-9 * n * ex);
}

TEST_P(Fft1dSizes, MultiLineCallIsBitwiseSingleLine) {
  // lines interleaved sequences (element j of sequence q at j·lines + q)
  // must each get exactly the single-line arithmetic.
  const std::size_t n = GetParam(), lines = 3;
  const std::vector<Complex> x = random_complex(n * lines, 83 + n);
  Fft1dPlan plan(n);
  for (const bool forward : {true, false}) {
    std::vector<Complex> multi = x;
    run_plan(plan, multi, forward, lines);
    for (std::size_t q = 0; q < lines; ++q) {
      std::vector<Complex> line(n);
      for (std::size_t j = 0; j < n; ++j) line[j] = x[j * lines + q];
      run_plan(plan, line, forward);
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(multi[j * lines + q], line[j]) << "n=" << n << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRadices, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
                                           13, 16, 24, 30, 32, 35, 48, 60, 64,
                                           72, 88, 100, 128, 144, 169, 176,
                                           200, 256));

// Accuracy at the mesh sizes choose_pme_params produces (and their
// half-lengths used by the r2c z pass): relative L2 error against a DFT
// evaluated in long double, over 20 random inputs per size and direction.
TEST(Fft1d, RelativeL2ErrorAtProductionSizes) {
  using LComplex = std::complex<long double>;
  for (const std::size_t n : {18, 20, 36, 40, 45, 48, 72, 90, 96}) {
    Fft1dPlan plan(n);
    double worst = 0.0;
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
      const std::vector<Complex> x = random_complex(n, 1000 * n + trial);
      for (const bool forward : {true, false}) {
        std::vector<Complex> y = x;
        run_plan(plan, y, forward);
        const long double sign = forward ? -1.0L : 1.0L;
        long double err2 = 0.0L, ref2 = 0.0L;
        for (std::size_t k = 0; k < n; ++k) {
          LComplex s = 0.0L;
          for (std::size_t j = 0; j < n; ++j) {
            const long double ang = sign * 2.0L *
                                    std::numbers::pi_v<long double> *
                                    static_cast<long double>(j * k % n) /
                                    static_cast<long double>(n);
            s += LComplex(x[j].real(), x[j].imag()) *
                 LComplex(std::cos(ang), std::sin(ang));
          }
          err2 += std::norm(LComplex(y[k].real(), y[k].imag()) - s);
          ref2 += std::norm(s);
        }
        worst = std::max(worst,
                         static_cast<double>(std::sqrt(err2 / ref2)));
      }
    }
    EXPECT_LE(worst, 2e-15) << "n=" << n;
  }
}

TEST(Fft1d, RejectsLargePrimeFactors) {
  EXPECT_THROW(Fft1dPlan(17), Error);
  EXPECT_THROW(Fft1dPlan(2 * 19), Error);
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 48;
  std::vector<Complex> x(n, 0.0);
  x[0] = 1.0;
  Fft1dPlan plan(n);
  run_plan(plan, x, /*forward=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, PureToneLandsInOneBin) {
  const std::size_t n = 64, bin = 5;
  std::vector<Complex> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * bin * j / static_cast<double>(n);
    x[j] = {std::cos(ang), std::sin(ang)};
  }
  Fft1dPlan plan(n);
  run_plan(plan, x, /*forward=*/true);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == bin) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-9);
  }
}

// ---- 3-D transforms --------------------------------------------------------

struct Dims {
  std::size_t nx, ny, nz;
};

class Fft3dDims : public ::testing::TestWithParam<Dims> {};

TEST_P(Fft3dDims, MatchesNaive3dDft) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz);
  Xoshiro256 rng(nx * 100 + ny * 10 + nz);
  fill_uniform(rng, x);

  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());

  // Naive 3-D DFT at a sample of wave vectors in the half spectrum.
  const std::size_t nzh = nz / 2 + 1;
  for (std::size_t kx : {std::size_t{0}, nx / 2, nx - 1}) {
    for (std::size_t ky : {std::size_t{0}, ny / 3, ny - 1}) {
      for (std::size_t kz = 0; kz < nzh; kz += 2) {
        Complex s = 0.0;
        for (std::size_t jx = 0; jx < nx; ++jx)
          for (std::size_t jy = 0; jy < ny; ++jy)
            for (std::size_t jz = 0; jz < nz; ++jz) {
              const double ang =
                  -2.0 * M_PI *
                  (static_cast<double>(jx * kx) / nx +
                   static_cast<double>(jy * ky) / ny +
                   static_cast<double>(jz * kz) / nz);
              s += x[(jx * ny + jy) * nz + jz] *
                   Complex{std::cos(ang), std::sin(ang)};
            }
        const Complex got = spec[(kx * ny + ky) * nzh + kz];
        EXPECT_NEAR(got.real(), s.real(), 1e-9 * nx * ny * nz);
        EXPECT_NEAR(got.imag(), s.imag(), 1e-9 * nx * ny * nz);
      }
    }
  }
}

TEST_P(Fft3dDims, RoundTripIsNTimesIdentity) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz), back(nx * ny * nz);
  Xoshiro256 rng(7777);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  fft.inverse(spec.data(), back.data());
  const double scale = static_cast<double>(nx * ny * nz);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(back[i], scale * x[i], 1e-9 * scale);
}

TEST_P(Fft3dDims, InversePreservesInputSpectrum) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz), out(nx * ny * nz);
  Xoshiro256 rng(31);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  const std::vector<Complex> spec_copy = spec;
  fft.inverse(spec.data(), out.data());
  for (std::size_t i = 0; i < spec.size(); ++i)
    ASSERT_EQ(spec[i], spec_copy[i]);
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, Fft3dDims,
                         ::testing::Values(Dims{4, 4, 4}, Dims{8, 8, 8},
                                           Dims{6, 10, 8}, Dims{12, 4, 6},
                                           Dims{16, 16, 16}, Dims{5, 9, 12},
                                           Dims{36, 40, 48}));

TEST(Fft3d, RejectsOddNz) { EXPECT_THROW(Fft3d(4, 4, 5), Error); }

TEST(Fft3d, RealInputHermitianSymmetry) {
  // For real input, X[-k] = conj(X[k]); check via the full box: the kz=0
  // plane must satisfy X[nx-kx, ny-ky, 0] = conj(X[kx, ky, 0]).
  const std::size_t n = 8;
  Fft3d fft(n, n, n);
  std::vector<double> x(n * n * n);
  Xoshiro256 rng(91);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  const std::size_t nzh = n / 2 + 1;
  for (std::size_t kx = 1; kx < n; ++kx) {
    for (std::size_t ky = 1; ky < n; ++ky) {
      const Complex a = spec[(kx * n + ky) * nzh + 0];
      const Complex b = spec[((n - kx) * n + (n - ky)) * nzh + 0];
      EXPECT_NEAR(a.real(), b.real(), 1e-10);
      EXPECT_NEAR(a.imag(), -b.imag(), 1e-10);
    }
  }
}

// ---- Batched transforms -----------------------------------------------------

class Fft3dBatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft3dBatch, ForwardMatchesScalarPerMesh) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 6, ny = 8, nz = 10;
  Fft3d fft(nx, ny, nz);
  const std::size_t m3 = fft.real_size(), cs = fft.complex_size();

  // Interleaved batch input and its de-interleaved copies.
  std::vector<double> in(m3 * batch);
  Xoshiro256 rng(311 + batch);
  fill_gaussian(rng, in);

  std::vector<Complex> out(cs * batch);
  fft.forward_batch(in.data(), out.data(), batch);

  std::vector<double> mesh(m3);
  std::vector<Complex> spec(cs);
  for (std::size_t q = 0; q < batch; ++q) {
    for (std::size_t t = 0; t < m3; ++t) mesh[t] = in[t * batch + q];
    fft.forward(mesh.data(), spec.data());
    for (std::size_t t = 0; t < cs; ++t) {
      // Identical arithmetic per component: bit-for-bit equality.
      ASSERT_EQ(out[t * batch + q], spec[t]) << "q=" << q << " t=" << t;
    }
  }
}

TEST_P(Fft3dBatch, InverseMatchesScalarPerMesh) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 4, ny = 6, nz = 8;
  Fft3d fft(nx, ny, nz);
  const std::size_t m3 = fft.real_size(), cs = fft.complex_size();

  std::vector<double> seed_real(m3 * batch);
  Xoshiro256 rng(613 + batch);
  fill_gaussian(rng, seed_real);
  // Produce a consistent (Hermitian) batch spectrum by a forward pass.
  std::vector<Complex> spec_batch(cs * batch);
  fft.forward_batch(seed_real.data(), spec_batch.data(), batch);
  std::vector<Complex> spec_copy = spec_batch;

  std::vector<double> out(m3 * batch);
  fft.inverse_batch(spec_batch.data(), out.data(), batch);

  std::vector<Complex> spec(cs);
  std::vector<double> mesh(m3);
  for (std::size_t q = 0; q < batch; ++q) {
    for (std::size_t t = 0; t < cs; ++t) spec[t] = spec_copy[t * batch + q];
    fft.inverse(spec.data(), mesh.data());
    for (std::size_t t = 0; t < m3; ++t)
      ASSERT_EQ(out[t * batch + q], mesh[t]) << "q=" << q << " t=" << t;
  }
}

TEST_P(Fft3dBatch, BatchRoundTripIsNTimesIdentity) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 6, ny = 4, nz = 6;
  Fft3d fft(nx, ny, nz);
  const double scale = static_cast<double>(nx * ny * nz);
  std::vector<double> in(fft.real_size() * batch);
  Xoshiro256 rng(777 + batch);
  fill_gaussian(rng, in);
  std::vector<Complex> spec(fft.complex_size() * batch);
  std::vector<double> back(in.size());
  fft.forward_batch(in.data(), spec.data(), batch);
  fft.inverse_batch(spec.data(), back.data(), batch);
  for (std::size_t t = 0; t < in.size(); ++t)
    ASSERT_NEAR(back[t], scale * in[t], 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(Batches, Fft3dBatch,
                         ::testing::Values(1u, 2u, 3u, 6u, 12u, 48u));

}  // namespace
}  // namespace hbd
