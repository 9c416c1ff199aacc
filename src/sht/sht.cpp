#include "sht/sht.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "linalg/kernels.hpp"
#include "sht/packing.hpp"
#include "sht/wigner.hpp"

namespace exaclim::sht {

double colatitude_integral(index_t q) {
  // I(q) = int_0^pi e^{i q theta} sin(theta) dtheta (Eq. 8). The value is
  // real for even q and imaginary for odd q, where only |q| = 1 survives
  // (I(+-1) = +-i pi/2); callers handle those two inline.
  EXACLIM_CHECK(q % 2 == 0, "colatitude_integral handles even q; odd q is "
                            "imaginary and handled inline");
  const double qd = static_cast<double>(q);
  return 2.0 / (1.0 - qd * qd);
}

namespace {

constexpr double kSqrt2 = 1.41421356237309504880;

/// Fields per GEMM batch. A batch's scratch (the order panels) is about as
/// large as its fields and every worker holds one batch at a time, so the
/// size trades transform speed against transient memory: 16 fields fill the
/// AVX-512 micro-kernel's 32-wide sliver but added ~2% to perfbench's
/// serve-L32 peak RSS; 8 fields (16 right-hand sides) cost ~10-25% per
/// field at L = 32-64 and halve that scratch (docs/PERF.md).
constexpr index_t kBatchFields = 8;

/// Steps 2-3 of the analysis for the unit ring input G_m = e_i: extend along
/// colatitude with parity `sign` = (-1)^m, recover K_{m,m'} for |m'| <= L-1
/// by FFT and write W_{m,n} = sum_{m'} K_{m,m'} I(n + m') to
/// (w_re, w_im)[n + L-1]. I(q) is colatitude_integral(q) for even q,
/// +-i pi/2 for q = +-1 and zero for every other odd q. The map depends on m
/// only through that parity.
void unit_ring_weights(index_t L, index_t nlat, index_t i, double sign,
                       const fft::Plan& colat_fft, double* w_re,
                       double* w_im) {
  const index_t n_ext = 2 * nlat - 2;
  const index_t off = L - 1;  // array offset for signed m' and n
  std::vector<cplx> ext(static_cast<std::size_t>(n_ext), cplx{0.0, 0.0});
  ext[static_cast<std::size_t>(i)] = 1.0;
  // The extension reads ext[k] = sign * G[n_ext - k] for k >= nlat.
  if (i > 0 && i < nlat - 1) ext[static_cast<std::size_t>(n_ext - i)] = sign;
  colat_fft.forward(ext.data());
  std::vector<cplx> kvals(static_cast<std::size_t>(2 * L - 1));
  for (index_t mp = -off; mp <= off; ++mp) {
    kvals[static_cast<std::size_t>(mp + off)] =
        ext[static_cast<std::size_t>((mp + n_ext) % n_ext)] /
        static_cast<double>(n_ext);
  }
  // I(q) for q = -2(L-1)..2(L-1) at index q + 2(L-1), split into its real
  // (even q) and imaginary (q = +-1) parts.
  std::vector<double> i_re(static_cast<std::size_t>(4 * off + 1), 0.0);
  std::vector<double> i_im(i_re.size(), 0.0);
  for (index_t q = -2 * off; q <= 2 * off; q += 2) {
    i_re[static_cast<std::size_t>(q + 2 * off)] = colatitude_integral(q);
  }
  if (off > 0) {
    i_im[static_cast<std::size_t>(2 * off + 1)] = kPi / 2.0;
    i_im[static_cast<std::size_t>(2 * off - 1)] = -kPi / 2.0;
  }
  // Accumulated m' by m' (an axpy over n per m', which vectorizes); Re/Im
  // I(n + m') sits at index (n + off) + (m' + off).
  std::fill_n(w_re, 2 * L - 1, 0.0);
  std::fill_n(w_im, 2 * L - 1, 0.0);
  for (index_t j = 0; j <= 2 * off; ++j) {
    const double kr = kvals[static_cast<std::size_t>(j)].real();
    const double ki = kvals[static_cast<std::size_t>(j)].imag();
    const double* ire = i_re.data() + j;
    const double* iim = i_im.data() + j;
    for (index_t t = 0; t <= 2 * off; ++t) {
      w_re[t] += kr * ire[t] - ki * iim[t];
      w_im[t] += kr * iim[t] + ki * ire[t];
    }
  }
}

}  // namespace

index_t SHTPlan::batch_fields() { return kBatchFields; }

SHTPlan::SHTPlan(index_t band_limit, GridShape grid)
    : band_limit_(band_limit), grid_(grid) {
  EXACLIM_CHECK(band_limit >= 1, "band_limit must be >= 1");
  EXACLIM_CHECK(grid.nlat >= band_limit + 1,
                "need nlat >= L + 1 for exact colatitude recovery");
  EXACLIM_CHECK(grid.nlon >= 2 * band_limit - 1,
                "need nlon >= 2L - 1 for exact longitude recovery");
  const index_t L = band_limit;
  const index_t nlat = grid.nlat;
  fft_lon_ = fft::get_plan(grid.nlon);
  order_offset_.resize(static_cast<std::size_t>(L + 1));
  order_offset_[0] = 0;
  for (index_t m = 0; m < L; ++m) {
    order_offset_[static_cast<std::size_t>(m + 1)] =
        order_offset_[static_cast<std::size_t>(m)] + (L - m) * nlat;
  }
  const auto total = static_cast<std::size_t>(order_offset_.back());
  analysis_.resize(total);
  synthesis_.resize(total);

  // Synthesis: H_m(theta_i) = sum_{l >= m} z_{l,m} Pbar_l^m(cos theta_i),
  // with z_{l,m} read from the packed row (packed / sqrt 2 for m > 0).
  {
    std::vector<double> colats(static_cast<std::size_t>(nlat));
    for (index_t i = 0; i < nlat; ++i) {
      colats[static_cast<std::size_t>(i)] = grid.colatitude(i);
    }
    const LegendreTable legendre(L, colats);
    common::parallel_for(0, L, [&](index_t m) {
      const index_t len = L - m;
      const double scale = m == 0 ? -1.0 : -1.0 / kSqrt2;
      double* block =
          synthesis_.data() + order_offset_[static_cast<std::size_t>(m)];
      for (index_t i = 0; i < nlat; ++i) {
        for (index_t l = m; l < L; ++l) {
          block[i * len + (l - m)] = scale * legendre.value(i, l, m);
        }
      }
    });
  }

  // Analysis: steps 2-4 on each unit ring input e_i. Steps 2-3 depend on m
  // only through its parity, so W is tabulated once per (parity, ring).
  // z_{l,m}(e_i) = i^{-m} norm_l sum_n d^l_{n,0} d^l_{n,m} W_{m,n} is real up
  // to rounding (see the header): for even m only Re W contributes, for odd
  // m only Im W, with the sign s_m = +1 for m mod 4 in {0, 1}, else -1. Step
  // 4 is then one GEMM per order, the zero-padded fused Wigner rows of
  // degrees m..L-1 against that part of W for every ring, and each row is
  // scaled by s_m norm_l, the longitude FFT normalization pi / nlon (the
  // two-ring split doubles G_m) and the pack_real factor.
  const index_t nw = 2 * L - 1;
  std::vector<double> w_part(static_cast<std::size_t>(2 * nlat * nw));
  {
    const std::shared_ptr<const fft::Plan> colat_fft =
        fft::get_plan(2 * nlat - 2);
    common::parallel_for(0, 2 * nlat, [&](index_t slot) {
      const bool odd = slot >= nlat;
      std::vector<double> re(static_cast<std::size_t>(nw));
      std::vector<double> im(re.size());
      unit_ring_weights(L, nlat, slot % nlat, odd ? -1.0 : 1.0, *colat_fft,
                        re.data(), im.data());
      std::copy(odd ? im.begin() : re.begin(), odd ? im.end() : re.end(),
                w_part.begin() + slot * nw);
    });
  }
  const std::shared_ptr<const WignerPiHalfTable> wigner = get_wigner_table(L);
  const double lon_scale = kPi / static_cast<double>(grid.nlon);
  common::parallel_for(0, L, [&](index_t m) {
    const index_t len = L - m;
    // Row l-m: d^l_{n,0} d^l_{n,m} at column n + L-1, zero for |n| > l.
    std::vector<double> fused(static_cast<std::size_t>(len * nw), 0.0);
    for (index_t l = m; l < L; ++l) {
      for (index_t n = -l; n <= l; ++n) {
        fused[static_cast<std::size_t>((l - m) * nw + n + L - 1)] =
            wigner->value(l, n, 0) * wigner->value(l, n, m);
      }
    }
    double* block =
        analysis_.data() + order_offset_[static_cast<std::size_t>(m)];
    std::fill_n(block, static_cast<std::size_t>(len * nlat), 0.0);
    linalg::gemm_nt_minus_f64(
        fused.data(),
        w_part.data() + static_cast<std::size_t>((m % 2) * nlat * nw), block,
        len, nlat, nw);
    const double sign = m % 4 < 2 ? 1.0 : -1.0;
    const double pack = m == 0 ? 1.0 : kSqrt2;
    for (index_t l = m; l < L; ++l) {
      const double scale = sign * pack * lon_scale *
                           std::sqrt((2.0 * l + 1.0) / (4.0 * kPi));
      double* row = block + (l - m) * nlat;
      for (index_t i = 0; i < nlat; ++i) row[i] *= scale;
    }
  });
}

void SHTPlan::analyze_packed(std::span<const double> fields, index_t count,
                             std::span<double> out) const {
  const index_t L = band_limit_;
  const index_t nlat = grid_.nlat;
  const index_t nlon = grid_.nlon;
  const index_t np = grid_.num_points();
  const index_t nc = L * L;
  EXACLIM_CHECK(count >= 0 && static_cast<index_t>(fields.size()) == count * np,
                "fields must hold count * nlat * nlon values");
  EXACLIM_CHECK(static_cast<index_t>(out.size()) == count * nc,
                "output must hold count * L^2 packed coefficients");
  if (count == 0) return;
  const index_t kmax = std::min(count, kBatchFields);
  // Order-major G panels: order m holds 2k rows (Re/Im of G_m per field) of
  // nlat ring values, the right-hand sides of that order's GEMM.
  std::vector<double> panel(static_cast<std::size_t>(L * 2 * kmax * nlat));
  std::vector<double> result(static_cast<std::size_t>(L * 2 * kmax));
  std::vector<cplx> row(static_cast<std::size_t>(nlon));
  double* x = reinterpret_cast<double*>(row.data());
  for (index_t k0 = 0; k0 < count; k0 += kBatchFields) {
    const index_t kb = std::min(kBatchFields, count - k0);
    const index_t cols = 2 * kb;
    // Step 1: longitude FFT of rings i and i+1 as one complex signal
    // a + i b. Then A_m = (X_m + conj X_{-m}) / 2 and
    // B_m = (X_m - conj X_{-m}) / 2i; the 1/2 and the 2 pi / nlon FFT
    // normalization live in the analysis matrices. An odd last ring is
    // paired with a zero ring.
    for (index_t k = 0; k < kb; ++k) {
      const double* f = fields.data() + (k0 + k) * np;
      for (index_t i = 0; i < nlat; i += 2) {
        const bool pair = i + 1 < nlat;
        const double* ra = f + i * nlon;
        const double* rb = pair ? ra + nlon : nullptr;
        for (index_t j = 0; j < nlon; ++j) {
          x[2 * j] = ra[j];
          x[2 * j + 1] = pair ? rb[j] : 0.0;
        }
        fft_lon_->forward(row.data());
        for (index_t m = 0; m < L; ++m) {
          const index_t mn = m == 0 ? 0 : nlon - m;
          const double xr = x[2 * m], xi = x[2 * m + 1];
          const double yr = x[2 * mn], yi = x[2 * mn + 1];
          double* re = panel.data() + (m * cols + 2 * k) * nlat;
          double* im = re + nlat;
          re[i] = xr + yr;
          im[i] = xi - yi;
          if (pair) {
            re[i + 1] = xi + yi;
            im[i + 1] = yr - xr;
          }
        }
      }
    }
    // Steps 2-4: one GEMM per order, scattered straight into packed rows.
    for (index_t m = 0; m < L; ++m) {
      const index_t len = L - m;
      std::fill_n(result.data(), static_cast<std::size_t>(len * cols), 0.0);
      linalg::gemm_nt_minus_f64(
          analysis_.data() + order_offset_[static_cast<std::size_t>(m)],
          panel.data() + m * cols * nlat, result.data(), len, cols, nlat);
      for (index_t k = 0; k < kb; ++k) {
        double* dst = out.data() + (k0 + k) * nc;
        for (index_t l = m; l < L; ++l) {
          const double* r = result.data() + (l - m) * cols + 2 * k;
          if (m == 0) {
            dst[l * l] = r[0];
          } else {
            dst[l * l + 2 * m - 1] = r[0];
            dst[l * l + 2 * m] = r[1];
          }
        }
      }
    }
  }
}

void SHTPlan::synthesize_packed(std::span<const double> packed, index_t count,
                                std::span<double> out) const {
  const index_t L = band_limit_;
  const index_t nlat = grid_.nlat;
  const index_t nlon = grid_.nlon;
  const index_t np = grid_.num_points();
  const index_t nc = L * L;
  EXACLIM_CHECK(count >= 0 && static_cast<index_t>(packed.size()) == count * nc,
                "input must hold count * L^2 packed coefficients");
  EXACLIM_CHECK(static_cast<index_t>(out.size()) == count * np,
                "output must hold count * nlat * nlon values");
  if (count == 0) return;
  const index_t kmax = std::min(count, kBatchFields);
  // coef: one order's right-hand sides, 2k rows (Re/Im per field) of L-m
  // degrees. h: order-major H_m panels, nlat rows of 2k columns each.
  std::vector<double> coef(static_cast<std::size_t>(2 * kmax * L));
  std::vector<double> h(static_cast<std::size_t>(L * nlat * 2 * kmax));
  std::vector<cplx> row(static_cast<std::size_t>(nlon));
  double* y = reinterpret_cast<double*>(row.data());
  for (index_t k0 = 0; k0 < count; k0 += kBatchFields) {
    const index_t kb = std::min(kBatchFields, count - k0);
    const index_t cols = 2 * kb;
    for (index_t m = 0; m < L; ++m) {
      const index_t len = L - m;
      for (index_t k = 0; k < kb; ++k) {
        const double* src = packed.data() + (k0 + k) * nc;
        double* re = coef.data() + 2 * k * len;
        double* im = re + len;
        for (index_t l = m; l < L; ++l) {
          re[l - m] = m == 0 ? src[l * l] : src[l * l + 2 * m - 1];
          im[l - m] = m == 0 ? 0.0 : src[l * l + 2 * m];
        }
      }
      double* hm = h.data() + m * nlat * cols;
      std::fill_n(hm, static_cast<std::size_t>(nlat * cols), 0.0);
      linalg::gemm_nt_minus_f64(
          synthesis_.data() + order_offset_[static_cast<std::size_t>(m)],
          coef.data(), hm, nlat, cols, len);
    }
    // Z(theta_i, phi_j) = sum_m H_m e^{i m phi_j} with conj(H_m) in the
    // negative-frequency bins. Rings i and i+1 travel as one signal
    // X = A + i B, and nlon * IDFT(X) = conj(DFT(conj X)), so a forward FFT
    // of conj X yields ring i in its real and ring i+1 in its negated
    // imaginary part, with no normalization pass.
    for (index_t k = 0; k < kb; ++k) {
      double* f = out.data() + (k0 + k) * np;
      for (index_t i = 0; i < nlat; i += 2) {
        const bool pair = i + 1 < nlat;
        std::fill(row.begin(), row.end(), cplx{0.0, 0.0});
        for (index_t m = 0; m < L; ++m) {
          const double* hi = h.data() + (m * nlat + i) * cols + 2 * k;
          const double ar = hi[0], ai = hi[1];
          const double br = pair ? hi[cols] : 0.0;
          const double bi = pair ? hi[cols + 1] : 0.0;
          y[2 * m] = ar - bi;
          y[2 * m + 1] = -(ai + br);
          if (m > 0) {
            y[2 * (nlon - m)] = ar + bi;
            y[2 * (nlon - m) + 1] = ai - br;
          }
        }
        fft_lon_->forward(row.data());
        double* ra = f + i * nlon;
        for (index_t j = 0; j < nlon; ++j) ra[j] = y[2 * j];
        if (pair) {
          double* rb = ra + nlon;
          for (index_t j = 0; j < nlon; ++j) rb[j] = -y[2 * j + 1];
        }
      }
    }
  }
}

std::vector<cplx> SHTPlan::analyze(std::span<const double> field) const {
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == grid_.num_points(),
                "field size must be nlat*nlon");
  std::vector<double> packed(static_cast<std::size_t>(band_limit_ * band_limit_));
  analyze_packed(field, 1, packed);
  return unpack_real(band_limit_, packed);
}

std::vector<double> SHTPlan::synthesize(std::span<const cplx> coeffs) const {
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit_),
                "coefficient count must match band limit");
  std::vector<double> field(static_cast<std::size_t>(grid_.num_points()));
  synthesize_packed(pack_real(band_limit_, coeffs), 1, field);
  return field;
}

std::vector<double> SHTPlan::power_spectrum(std::span<const cplx> coeffs) const {
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit_),
                "coefficient count must match band limit");
  std::vector<double> spectrum(static_cast<std::size_t>(band_limit_), 0.0);
  for (index_t l = 0; l < band_limit_; ++l) {
    double acc = std::norm(coeffs[static_cast<std::size_t>(tri_index(l, 0))]);
    for (index_t m = 1; m <= l; ++m) {
      acc += 2.0 * std::norm(coeffs[static_cast<std::size_t>(tri_index(l, m))]);
    }
    spectrum[static_cast<std::size_t>(l)] = acc / (2.0 * l + 1.0);
  }
  return spectrum;
}

std::vector<cplx> analyze_reference(index_t band_limit, GridShape grid,
                                    std::span<const double> field) {
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == grid.num_points(),
                "field size must be nlat*nlon");
  const index_t n_coeff = band_limit * band_limit;  // packed real dimension
  const index_t n_pts = grid.num_points();
  EXACLIM_CHECK(n_pts >= n_coeff,
                "reference least-squares needs at least L^2 grid points");

  // Build the synthesis design matrix B (n_pts x n_coeff) over the packed
  // real representation, then solve the normal equations B^T B c = B^T y.
  // The accumulation is a chunk-deterministic parallel_reduce over rings:
  // identical chunk boundaries and combine order at any thread count, so the
  // oracle stays bit-stable (it backs bit-identity tests elsewhere).
  struct NormalEq {
    std::vector<double> btb;
    std::vector<double> bty;
  };
  NormalEq init;
  init.btb.assign(static_cast<std::size_t>(n_coeff * n_coeff), 0.0);
  init.bty.assign(static_cast<std::size_t>(n_coeff), 0.0);
  const double sqrt2 = std::sqrt(2.0);

  NormalEq normal = common::parallel_reduce(
      0, grid.nlat, init,
      [&](NormalEq& acc, index_t i) {
        std::vector<double> leg;
        std::vector<double> row(static_cast<std::size_t>(n_coeff));
        legendre_all(band_limit, std::cos(grid.colatitude(i)), leg);
        for (index_t j = 0; j < grid.nlon; ++j) {
          const double phi = grid.longitude(j);
          for (index_t l = 0; l < band_limit; ++l) {
            index_t out = l * l;
            row[static_cast<std::size_t>(out++)] =
                leg[static_cast<std::size_t>(tri_index(l, 0))];
            for (index_t m = 1; m <= l; ++m) {
              const double p = leg[static_cast<std::size_t>(tri_index(l, m))];
              row[static_cast<std::size_t>(out++)] =
                  sqrt2 * p * std::cos(m * phi);
              row[static_cast<std::size_t>(out++)] =
                  -sqrt2 * p * std::sin(m * phi);
            }
          }
          const double y = field[static_cast<std::size_t>(i * grid.nlon + j)];
          for (index_t a = 0; a < n_coeff; ++a) {
            acc.bty[static_cast<std::size_t>(a)] +=
                row[static_cast<std::size_t>(a)] * y;
            for (index_t b = a; b < n_coeff; ++b) {
              acc.btb[static_cast<std::size_t>(a * n_coeff + b)] +=
                  row[static_cast<std::size_t>(a)] *
                  row[static_cast<std::size_t>(b)];
            }
          }
        }
      },
      [](NormalEq& into, NormalEq&& from) {
        for (std::size_t k = 0; k < into.btb.size(); ++k) {
          into.btb[k] += from.btb[k];
        }
        for (std::size_t k = 0; k < into.bty.size(); ++k) {
          into.bty[k] += from.bty[k];
        }
      });
  std::vector<double> bt_b = std::move(normal.btb);
  std::vector<double> bt_y = std::move(normal.bty);
  // Symmetrize and solve with plain Gaussian elimination w/ partial pivoting
  // (self-contained so the SHT oracle does not depend on linalg/).
  for (index_t a = 0; a < n_coeff; ++a) {
    for (index_t b = 0; b < a; ++b) {
      bt_b[static_cast<std::size_t>(a * n_coeff + b)] =
          bt_b[static_cast<std::size_t>(b * n_coeff + a)];
    }
  }
  std::vector<double> x = bt_y;
  for (index_t col = 0; col < n_coeff; ++col) {
    index_t pivot = col;
    for (index_t r = col + 1; r < n_coeff; ++r) {
      if (std::abs(bt_b[static_cast<std::size_t>(r * n_coeff + col)]) >
          std::abs(bt_b[static_cast<std::size_t>(pivot * n_coeff + col)])) {
        pivot = r;
      }
    }
    EXACLIM_NUMERIC_CHECK(
        std::abs(bt_b[static_cast<std::size_t>(pivot * n_coeff + col)]) > 1e-12,
        "singular reference design matrix");
    if (pivot != col) {
      for (index_t c = 0; c < n_coeff; ++c) {
        std::swap(bt_b[static_cast<std::size_t>(col * n_coeff + c)],
                  bt_b[static_cast<std::size_t>(pivot * n_coeff + c)]);
      }
      std::swap(x[static_cast<std::size_t>(col)],
                x[static_cast<std::size_t>(pivot)]);
    }
    const double inv_p = 1.0 / bt_b[static_cast<std::size_t>(col * n_coeff + col)];
    for (index_t r = col + 1; r < n_coeff; ++r) {
      const double f =
          bt_b[static_cast<std::size_t>(r * n_coeff + col)] * inv_p;
      if (f == 0.0) continue;
      for (index_t c = col; c < n_coeff; ++c) {
        bt_b[static_cast<std::size_t>(r * n_coeff + c)] -=
            f * bt_b[static_cast<std::size_t>(col * n_coeff + c)];
      }
      x[static_cast<std::size_t>(r)] -= f * x[static_cast<std::size_t>(col)];
    }
  }
  for (index_t r = n_coeff - 1; r >= 0; --r) {
    double acc = x[static_cast<std::size_t>(r)];
    for (index_t c = r + 1; c < n_coeff; ++c) {
      acc -= bt_b[static_cast<std::size_t>(r * n_coeff + c)] *
             x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] =
        acc / bt_b[static_cast<std::size_t>(r * n_coeff + r)];
  }
  return unpack_real(band_limit, x);
}

}  // namespace exaclim::sht
