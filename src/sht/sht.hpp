// Fast spherical harmonic transform on equiangular grids, after the method
// of the paper (Section III-A.1/A.2, following Chowdhury et al. [43]).
//
// Forward analysis of a real field Z(theta_i, phi_j):
//   1. FFT along longitude:  G_m(theta_i) = (2 pi / N_phi) sum_j Z e^{-i m phi_j}
//   2. Extend along colatitude with G_m(2 pi - theta) = (-1)^m G_m(theta) and
//      inverse-FFT over the 2 N_theta - 2 equispaced samples of [0, 2 pi) to
//      obtain Fourier coefficients K_{m,m'} of G_m.
//   3. W_{m,n}   = sum_{m'} K_{m,m'} I(n + m') with the analytic integral
//      I(q) = int_0^pi e^{i q theta} sin(theta) dtheta  (Eq. 8).
//   4. z_{l,m}   = i^{-m} sqrt((2l+1)/(4 pi)) *
//                  sum_{n=-l}^{l} d^l_{n,0}(pi/2) d^l_{n,m}(pi/2) W_{m,n}.
//
// Steps 2-4 are a fixed linear map from the column G_m(theta_0..N_theta-1)
// to z_{m..L-1,m}, and that map is real: z_{.,m} = A_m G_m with A_m a real
// (L-m) x N_theta matrix (the i^{-m} phase and the imaginary odd-q
// integrals combine into a sign). The plan therefore runs steps 2-4 once, at
// construction, on unit ring inputs to tabulate A_m, and an analysis is then
// step 1 plus one real GEMM per order over a batch of fields (the batched
// Legendre stage of Schaeffer, "Efficient spherical harmonic transforms
// aimed at pseudospectral numerical simulations", G-cubed 2013). The
// tabulation costs O(L^4) once per plan; its step 4 is itself one GEMM per
// order.
//
// The transform is *exact* for fields band-limited at degree L when
// N_phi >= 2L - 1 and N_theta >= L + 1 (grid includes both poles), which the
// round-trip property tests assert to ~1e-11 relative error.
//
// Inverse synthesis is the mirror image: one GEMM per order against the
// Legendre table, then an inverse FFT along longitude. Both directions cost
// O(L^3) per time slot as in the paper's complexity analysis; the longitude
// FFTs transform two real rings per complex FFT.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fft/fft.hpp"
#include "sht/legendre.hpp"

namespace exaclim::sht {

/// Equiangular latitude-longitude grid, ERA5-style: colatitudes
/// theta_i = i * pi / (nlat - 1), i = 0..nlat-1 (both poles included),
/// longitudes phi_j = 2 pi j / nlon.
struct GridShape {
  index_t nlat = 0;
  index_t nlon = 0;

  double colatitude(index_t i) const {
    return kPi * static_cast<double>(i) / static_cast<double>(nlat - 1);
  }
  double longitude(index_t j) const {
    return kTwoPi * static_cast<double>(j) / static_cast<double>(nlon);
  }
  index_t num_points() const { return nlat * nlon; }
};

/// The analytic integral I(q) of Eq. (8).
double colatitude_integral(index_t q);

/// Reusable SHT of fixed band limit and grid. Construction tabulates, per
/// order m, the real analysis matrix A_m (steps 2-4 run on unit ring inputs,
/// with the pack_real scaling folded in) and the synthesis matrix
/// Pbar_l^m(cos theta_i) (with the unpack_real scaling folded in); the
/// colatitude FFT, the I(q) table and the Wigner products are needed only
/// there.
///
/// Transform calls are serial and const, so one plan is shared by any
/// number of threads: callers parallelize across batches of fields (see
/// batch_fields()), never inside a call. Each call allocates its scratch
/// for its own duration. A field's result depends only on the field, not on
/// the batch it came in or its position there, so any split of the work
/// gives byte-identical coefficients.
class SHTPlan {
 public:
  SHTPlan(index_t band_limit, GridShape grid);

  index_t band_limit() const { return band_limit_; }
  const GridShape& grid() const { return grid_; }

  /// Fields per GEMM batch: the packed calls below transform this many
  /// fields at a time, and callers that split work across threads hand out
  /// batches of this size.
  static index_t batch_fields();

  /// Forward analysis of `count` real row-major fields (nlat x nlon each,
  /// back to back in `fields`) into `count` packed real coefficient rows of
  /// length L^2 (pack_real layout) in `out`.
  void analyze_packed(std::span<const double> fields, index_t count,
                      std::span<double> out) const;

  /// Synthesis of `count` real row-major fields into `out` from `count`
  /// packed real coefficient rows (pack_real layout, L^2 each).
  void synthesize_packed(std::span<const double> packed, index_t count,
                         std::span<double> out) const;

  /// Forward analysis of one field into complex coefficients z_{l,m},
  /// m >= 0 (tri_index layout): analyze_packed with count 1, unpacked.
  std::vector<cplx> analyze(std::span<const double> field) const;

  /// Synthesis of one field from complex coefficients: pack_real, then
  /// synthesize_packed with count 1.
  std::vector<double> synthesize(std::span<const cplx> coeffs) const;

  /// Power spectrum C_l = (1/(2l+1)) sum_m |z_{l,m}|^2 (over all m, using the
  /// real-field symmetry for m < 0).
  std::vector<double> power_spectrum(std::span<const cplx> coeffs) const;

 private:
  index_t band_limit_;
  GridShape grid_;
  std::shared_ptr<const fft::Plan> fft_lon_;
  // Per-order GEMM operands, both negated for the C -= A * B^T engine.
  // Order m's block starts at order_offset_[m] in each and holds
  // (L-m) * nlat values: analysis_ row-major (L-m) x nlat (row l-m maps the
  // ring columns to packed z_{l,m}), synthesis_ row-major nlat x (L-m) (row
  // i maps packed z_{m..L-1,m} to H_m(theta_i)).
  std::vector<double> analysis_;
  std::vector<double> synthesis_;
  std::vector<index_t> order_offset_;
};

/// Reference forward analysis via brute-force quadrature of Eq. (4) using
/// trapezoid integration over an oversampled theta grid; slow (used only as a
/// low-degree testing oracle).
std::vector<cplx> analyze_reference(index_t band_limit, GridShape grid,
                                    std::span<const double> field);

}  // namespace exaclim::sht
