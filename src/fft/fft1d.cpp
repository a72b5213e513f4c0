#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace hbd {

// Marks a loop whose iterations carry no memory dependence, so it is
// vectorized without runtime alias checks.
#if defined(__clang__)
#define HBD_FFT_INDEPENDENT _Pragma("clang loop vectorize(assume_safety)")
#else
#define HBD_FFT_INDEPENDENT _Pragma("GCC ivdep")
#endif

namespace {
constexpr std::size_t kMaxPrime = 13;

// Complex value in plain real arithmetic: the butterflies never go through
// std::complex's operator*, whose NaN-recovery path blocks vectorization.
struct Cd {
  double re, im;
};

inline Cd operator+(Cd a, Cd b) { return {a.re + b.re, a.im + b.im}; }
inline Cd operator-(Cd a, Cd b) { return {a.re - b.re, a.im - b.im}; }
inline Cd scale(double s, Cd a) { return {s * a.re, s * a.im}; }

// a·w in the forward direction, a·conj(w) in the inverse one; tables hold
// forward-direction roots.
template <bool Fwd>
inline Cd twist(Cd a, Cd w) {
  if constexpr (Fwd)
    return {a.re * w.re - a.im * w.im, a.re * w.im + a.im * w.re};
  else
    return {a.re * w.re + a.im * w.im, a.im * w.re - a.re * w.im};
}

// −i·a forward, +i·a inverse: multiplication by the quarter-turn root.
template <bool Fwd>
inline Cd rot(Cd a) {
  if constexpr (Fwd)
    return {a.im, -a.re};
  else
    return {-a.im, a.re};
}

inline Cd root(const Complex& w) { return {w.real(), w.imag()}; }

// Specialized butterflies: y_u = Σ_t ω_p^{t·u} a_t.

template <bool Fwd>
inline void butterfly3(const Cd* a, Cd* y) {
  constexpr double kSin60 = 0.86602540378443864676;  // √3/2
  const Cd t1 = a[1] + a[2];
  const Cd t2 = a[0] - scale(0.5, t1);
  const Cd t3 = rot<Fwd>(scale(kSin60, a[1] - a[2]));
  y[0] = a[0] + t1;
  y[1] = t2 + t3;
  y[2] = t2 - t3;
}

template <bool Fwd>
inline void butterfly4(const Cd* a, Cd* y) {
  const Cd e02 = a[0] + a[2], d02 = a[0] - a[2];
  const Cd e13 = a[1] + a[3], d13 = rot<Fwd>(a[1] - a[3]);
  y[0] = e02 + e13;
  y[1] = d02 + d13;
  y[2] = e02 - e13;
  y[3] = d02 - d13;
}

template <bool Fwd>
inline void butterfly5(const Cd* a, Cd* y) {
  constexpr double kC1 = 0.30901699437494742410;   // cos(2π/5)
  constexpr double kC2 = -0.80901699437494742410;  // cos(4π/5)
  constexpr double kS1 = 0.95105651629515357212;   // sin(2π/5)
  constexpr double kS2 = 0.58778525229247312917;   // sin(4π/5)
  const Cd b1 = a[1] + a[4], b2 = a[2] + a[3];
  const Cd d1 = a[1] - a[4], d2 = a[2] - a[3];
  const Cd ta = a[0] + scale(kC1, b1) + scale(kC2, b2);
  const Cd tb = a[0] + scale(kC2, b1) + scale(kC1, b2);
  const Cd tc = rot<Fwd>(scale(kS1, d1) + scale(kS2, d2));
  const Cd td = rot<Fwd>(scale(kS2, d1) - scale(kS1, d2));
  y[0] = a[0] + b1 + b2;
  y[1] = ta + tc;
  y[2] = tb + td;
  y[3] = tb - td;
  y[4] = ta - tc;
}

template <std::size_t P, bool Fwd>
inline void butterfly(const Cd* a, Cd* y) {
  if constexpr (P == 2) {
    y[0] = a[0] + a[1];
    y[1] = a[0] - a[1];
  } else if constexpr (P == 3) {
    butterfly3<Fwd>(a, y);
  } else if constexpr (P == 4) {
    butterfly4<Fwd>(a, y);
  } else {
    butterfly5<Fwd>(a, y);
  }
}

// One stage of radix P ∈ {2, 3, 4, 5} on split-complex arrays (real parts
// ir/or, imaginary parts ii/oi): `l` groups of P transforms; group k reads
// in[(k·P + t)·m + s] and writes out[(k + l·u)·m + s].  Group 0 has unit
// twiddles and skips the multiplies; group k ≥ 1 reads its P−1 twiddles
// from tw[(k−1)·(P−1) ...].  The s iterations are independent: input and
// output never overlap and each u writes its own row of m (ostride ≥ m),
// which the compiler cannot prove, hence HBD_FFT_INDEPENDENT.
template <std::size_t P, bool Fwd>
void radix(const double* ir, const double* ii, double* or_, double* oi,
           const Complex* tw, std::size_t l, std::size_t m) {
  const std::size_t ostride = l * m;
  for (std::size_t k = 0; k < l; ++k) {
    const std::size_t src = P * k * m, dst = k * m;
    Cd w[P - 1];
    for (std::size_t t = 0; t + 1 < P; ++t)
      w[t] = k == 0 ? Cd{1.0, 0.0} : root(tw[(k - 1) * (P - 1) + t]);
    HBD_FFT_INDEPENDENT
    for (std::size_t s = 0; s < m; ++s) {
      Cd a[P], y[P];
      for (std::size_t t = 0; t < P; ++t)
        a[t] = {ir[src + t * m + s], ii[src + t * m + s]};
      if (k != 0)
        for (std::size_t t = 1; t < P; ++t) a[t] = twist<Fwd>(a[t], w[t - 1]);
      butterfly<P, Fwd>(a, y);
      for (std::size_t u = 0; u < P; ++u) {
        or_[dst + u * ostride + s] = y[u].re;
        oi[dst + u * ostride + s] = y[u].im;
      }
    }
  }
}

// Radices 7, 11, 13: direct p-point DFT over the stage's root table
// roots[j] = ω_p^j; the exponent t·u is reduced mod p incrementally.
template <bool Fwd>
void radix_generic(const double* ir, const double* ii, double* or_,
                   double* oi, const Complex* tw, const Complex* roots,
                   std::size_t p, std::size_t l, std::size_t m) {
  const std::size_t ostride = l * m;
  Cd a[kMaxPrime];
  for (std::size_t k = 0; k < l; ++k) {
    const std::size_t src = p * k * m, dst = k * m;
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t t = 0; t < p; ++t) {
        a[t] = {ir[src + t * m + s], ii[src + t * m + s]};
        if (k != 0 && t != 0)
          a[t] = twist<Fwd>(a[t], root(tw[(k - 1) * (p - 1) + t - 1]));
      }
      for (std::size_t u = 0; u < p; ++u) {
        Cd acc = a[0];
        std::size_t e = 0;
        for (std::size_t t = 1; t < p; ++t) {
          e += u;
          if (e >= p) e -= p;
          acc = acc + twist<Fwd>(a[t], root(roots[e]));
        }
        or_[dst + u * ostride + s] = acc.re;
        oi[dst + u * ostride + s] = acc.im;
      }
    }
  }
}

Complex unit_root(std::size_t num, std::size_t den) {
  // Angles in long double, so the entries carry no double-precision angle
  // rounding error.
  const long double ang = -2.0L * std::numbers::pi_v<long double> *
                          static_cast<long double>(num) /
                          static_cast<long double>(den);
  return {static_cast<double>(std::cos(ang)),
          static_cast<double>(std::sin(ang))};
}
}  // namespace

Fft1dPlan::Fft1dPlan(std::size_t n) : n_(n) {
  HBD_CHECK(n >= 1);
  std::vector<std::size_t> radices;
  std::size_t rest = n;
  while (rest % 4 == 0) {
    radices.push_back(4);
    rest /= 4;
  }
  for (std::size_t p = 2; p <= kMaxPrime && rest > 1; ++p) {
    while (rest % p == 0) {
      radices.push_back(p);
      rest /= p;
    }
  }
  HBD_CHECK_MSG(rest == 1, "FFT length has a prime factor > " << kMaxPrime);

  std::size_t l = 1;
  for (std::size_t p : radices) {
    stages_.push_back({p, l, twiddles_.size()});
    for (std::size_t k = 1; k < l; ++k)
      for (std::size_t t = 1; t < p; ++t)
        twiddles_.push_back(unit_root(t * k, l * p));
    if (p > 5)
      for (std::size_t j = 0; j < p; ++j) twiddles_.push_back(unit_root(j, p));
    l *= p;
  }
}

template <bool Forward>
void Fft1dPlan::transform(double* re, double* im, double* workspace,
                          std::size_t lines) const {
  const std::size_t len = n_ * lines;
  double *ir = re, *ii = im, *or_ = workspace, *oi = workspace + len;
  for (const Stage& st : stages_) {
    const std::size_t m = n_ / (st.l * st.radix) * lines;
    const Complex* tw = twiddles_.data() + st.twiddle;
    switch (st.radix) {
      case 2: radix<2, Forward>(ir, ii, or_, oi, tw, st.l, m); break;
      case 3: radix<3, Forward>(ir, ii, or_, oi, tw, st.l, m); break;
      case 4: radix<4, Forward>(ir, ii, or_, oi, tw, st.l, m); break;
      case 5: radix<5, Forward>(ir, ii, or_, oi, tw, st.l, m); break;
      default: {
        const std::size_t ntw = (st.l - 1) * (st.radix - 1);
        radix_generic<Forward>(ir, ii, or_, oi, tw, tw + ntw, st.radix, st.l,
                               m);
      }
    }
    std::swap(ir, or_);
    std::swap(ii, oi);
  }
  if (ir != re) {
    std::copy(ir, ir + len, re);
    std::copy(ii, ii + len, im);
  }
}

void Fft1dPlan::forward(double* re, double* im, double* workspace,
                        std::size_t lines) const {
  transform<true>(re, im, workspace, lines);
}

void Fft1dPlan::inverse(double* re, double* im, double* workspace,
                        std::size_t lines) const {
  transform<false>(re, im, workspace, lines);
}

void dft_naive(const Complex* in, Complex* out, std::size_t n, bool forward) {
  const double sign = forward ? -1.0 : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      s += in[j] * Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = s;
  }
}

}  // namespace hbd
