#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "common/error.hpp"
#include "common/math.hpp"

namespace exaclim::fft {

using common::is_pow2;
using common::next_pow2;

namespace {

/// Precomputed machinery for an iterative radix-2 transform of length n=2^k.
/// Twiddles are stored as split re/im arrays and the butterflies run in
/// explicit real arithmetic on the interleaved (re, im) doubles: without
/// -ffast-math a std::complex product carries C99 Annex G inf/NaN recovery
/// (a NaN test and a __muldc3 fallback per multiply), which made it several
/// times slower than the four multiplies and two adds it stands for.
struct Radix2 {
  index_t n = 0;
  std::vector<index_t> bit_reverse;  // permutation table
  std::vector<double> tw_re;         // cos(-2 pi j / n), j < n/2
  std::vector<double> tw_im;         // sin(-2 pi j / n), j < n/2

  explicit Radix2(index_t length) : n(length) {
    bit_reverse.resize(static_cast<std::size_t>(n));
    int log2n = 0;
    while ((index_t{1} << log2n) < n) ++log2n;
    for (index_t i = 0; i < n; ++i) {
      index_t rev = 0;
      for (int b = 0; b < log2n; ++b) {
        if (i & (index_t{1} << b)) rev |= index_t{1} << (log2n - 1 - b);
      }
      bit_reverse[static_cast<std::size_t>(i)] = rev;
    }
    tw_re.resize(static_cast<std::size_t>(n / 2));
    tw_im.resize(static_cast<std::size_t>(n / 2));
    for (index_t j = 0; j < n / 2; ++j) {
      const double ang = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
      tw_re[static_cast<std::size_t>(j)] = std::cos(ang);
      tw_im[static_cast<std::size_t>(j)] = std::sin(ang);
    }
  }

  /// The inverse direction conjugates the forward twiddles (sign flip of the
  /// imaginary part) instead of storing a second table.
  void execute(cplx* data, bool inverse_dir) const {
    for (index_t i = 0; i < n; ++i) {
      const index_t j = bit_reverse[static_cast<std::size_t>(i)];
      if (i < j) std::swap(data[i], data[j]);
    }
    double* d = reinterpret_cast<double*>(data);
    const double* twr = tw_re.data();
    const double* twi = tw_im.data();
    const double isign = inverse_dir ? -1.0 : 1.0;
    for (index_t len = 2; len <= n; len <<= 1) {
      const index_t half = len >> 1;
      const index_t stride = n / len;
      for (index_t base = 0; base < n; base += len) {
        double* u = d + 2 * base;
        double* v = u + 2 * half;
        for (index_t j = 0; j < half; ++j) {
          const double wr = twr[j * stride];
          const double wi = isign * twi[j * stride];
          const double xr = v[2 * j];
          const double xi = v[2 * j + 1];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          const double ur = u[2 * j];
          const double ui = u[2 * j + 1];
          u[2 * j] = ur + vr;
          u[2 * j + 1] = ui + vi;
          v[2 * j] = ur - vr;
          v[2 * j + 1] = ui - vi;
        }
      }
    }
  }
};

}  // namespace

struct Plan::Impl {
  index_t n = 0;
  bool pow2 = false;

  // Radix-2 path.
  std::unique_ptr<Radix2> radix2;

  // Bluestein path: convolution length m (power of two), chirp a_n, and the
  // forward FFT of the chirp filter b.
  index_t m = 0;
  std::unique_ptr<Radix2> conv_fft;
  std::vector<cplx> chirp;      // w_j = exp(-i*pi*j^2/n) (forward direction)
  std::vector<cplx> filter_fft; // FFT of b_j = conj chirp, circularly extended

  explicit Impl(index_t length) : n(length) {
    EXACLIM_CHECK(n >= 1, "FFT length must be >= 1");
    pow2 = is_pow2(n);
    if (pow2) {
      radix2 = std::make_unique<Radix2>(n);
      return;
    }
    m = next_pow2(2 * n - 1);
    conv_fft = std::make_unique<Radix2>(m);
    chirp.resize(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) {
      // j^2 mod 2n keeps the argument small for huge n without changing the
      // value of exp(-i*pi*j^2/n).
      const index_t jsq = (j * j) % (2 * n);
      const double ang = -kPi * static_cast<double>(jsq) / static_cast<double>(n);
      chirp[static_cast<std::size_t>(j)] = {std::cos(ang), std::sin(ang)};
    }
    std::vector<cplx> b(static_cast<std::size_t>(m), cplx{0.0, 0.0});
    b[0] = std::conj(chirp[0]);
    for (index_t j = 1; j < n; ++j) {
      const cplx v = std::conj(chirp[static_cast<std::size_t>(j)]);
      b[static_cast<std::size_t>(j)] = v;
      b[static_cast<std::size_t>(m - j)] = v;
    }
    conv_fft->execute(b.data(), /*inverse_dir=*/false);
    filter_fft = std::move(b);
  }

  void bluestein(cplx* data, bool inverse_dir) const {
    // For the inverse direction the chirp is conjugated; we reuse the forward
    // tables by conjugating input and output (DFT_inv(x) = conj(DFT(conj x))/N,
    // applied below by the caller for normalization). The m-length
    // convolution buffer is per-thread scratch that grows to the largest
    // Bluestein length the thread has run and is then reused by every call.
    thread_local std::vector<cplx> scratch;
    if (scratch.size() < static_cast<std::size_t>(m)) {
      scratch.resize(static_cast<std::size_t>(m));
    }
    double* a = reinterpret_cast<double*>(scratch.data());
    const double* x = reinterpret_cast<const double*>(data);
    const double* c = reinterpret_cast<const double*>(chirp.data());
    const double conj_in = inverse_dir ? -1.0 : 1.0;
    for (index_t j = 0; j < n; ++j) {
      const double xr = x[2 * j];
      const double xi = conj_in * x[2 * j + 1];
      a[2 * j] = xr * c[2 * j] - xi * c[2 * j + 1];
      a[2 * j + 1] = xr * c[2 * j + 1] + xi * c[2 * j];
    }
    std::fill(a + 2 * n, a + 2 * m, 0.0);
    conv_fft->execute(scratch.data(), false);
    const double* f = reinterpret_cast<const double*>(filter_fft.data());
    for (index_t j = 0; j < m; ++j) {
      const double ar = a[2 * j];
      const double ai = a[2 * j + 1];
      a[2 * j] = ar * f[2 * j] - ai * f[2 * j + 1];
      a[2 * j + 1] = ar * f[2 * j + 1] + ai * f[2 * j];
    }
    conv_fft->execute(scratch.data(), true);
    const double inv_m = 1.0 / static_cast<double>(m);
    double* out = reinterpret_cast<double*>(data);
    for (index_t k = 0; k < n; ++k) {
      const double ar = a[2 * k] * inv_m;
      const double ai = a[2 * k + 1] * inv_m;
      out[2 * k] = ar * c[2 * k] - ai * c[2 * k + 1];
      out[2 * k + 1] = conj_in * (ar * c[2 * k + 1] + ai * c[2 * k]);
    }
  }

  void execute(cplx* data, bool inverse_dir) const {
    if (n == 1) return;
    if (pow2) {
      radix2->execute(data, inverse_dir);
    } else {
      bluestein(data, inverse_dir);
    }
    if (inverse_dir) {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (index_t j = 0; j < n; ++j) data[j] *= inv_n;
    }
  }
};

Plan::Plan(index_t n) : impl_(std::make_unique<Impl>(n)) {}
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

index_t Plan::size() const { return impl_->n; }
void Plan::forward(cplx* data) const { impl_->execute(data, false); }
void Plan::inverse(cplx* data) const { impl_->execute(data, true); }

std::shared_ptr<const Plan> get_plan(index_t n) {
  static std::mutex mu;
  static std::unordered_map<index_t, std::shared_ptr<const Plan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto plan = std::make_shared<const Plan>(n);
  cache.emplace(n, plan);
  return plan;
}

void forward(std::vector<cplx>& data) {
  get_plan(static_cast<index_t>(data.size()))->forward(data.data());
}

void inverse(std::vector<cplx>& data) {
  get_plan(static_cast<index_t>(data.size()))->inverse(data.data());
}

std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse_dir) {
  const index_t n = static_cast<index_t>(x.size());
  std::vector<cplx> out(x.size());
  const double sign = inverse_dir ? 1.0 : -1.0;
  for (index_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) {
      const double ang =
          sign * kTwoPi * static_cast<double>((j * k) % n) / static_cast<double>(n);
      acc += x[static_cast<std::size_t>(j)] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] =
        inverse_dir ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

}  // namespace exaclim::fft
