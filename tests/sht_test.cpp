// Tests for sht/: the fast spherical harmonic transform (paper Eq. 4-8),
// inverse synthesis, packing, and the exactness properties the emulator
// depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sht/packing.hpp"
#include "sht/sht.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::sht;

std::vector<cplx> random_coeffs(index_t band_limit, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cplx> c(static_cast<std::size_t>(tri_count(band_limit)));
  for (index_t l = 0; l < band_limit; ++l) {
    c[static_cast<std::size_t>(tri_index(l, 0))] = {rng.normal(), 0.0};
    for (index_t m = 1; m <= l; ++m) {
      c[static_cast<std::size_t>(tri_index(l, m))] = {rng.normal(),
                                                      rng.normal()};
    }
  }
  return c;
}

double max_coeff_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// ---------- colatitude integral (Eq. 8) ------------------------------------

TEST(ColatitudeIntegral, MatchesQuadrature) {
  // I(q) = int_0^pi e^{i q theta} sin theta dtheta; check the closed form
  // against dense numerical quadrature for both parities.
  const index_t nq = 200000;
  for (index_t q = -8; q <= 8; ++q) {
    cplx acc{0.0, 0.0};
    for (index_t k = 0; k < nq; ++k) {
      const double theta = kPi * (static_cast<double>(k) + 0.5) / nq;
      acc += cplx{std::cos(q * theta), std::sin(q * theta)} *
             std::sin(theta) * (kPi / nq);
    }
    if (q % 2 == 0) {
      EXPECT_NEAR(acc.real(), colatitude_integral(q), 1e-8) << q;
      EXPECT_NEAR(acc.imag(), 0.0, 1e-8);
    } else if (q == 1) {
      EXPECT_NEAR(acc.imag(), kPi / 2.0, 1e-8);
      EXPECT_NEAR(acc.real(), 0.0, 1e-8);
    } else if (q == -1) {
      EXPECT_NEAR(acc.imag(), -kPi / 2.0, 1e-8);
    } else {
      EXPECT_NEAR(std::abs(acc), 0.0, 1e-8) << q;  // odd |q| > 1 vanishes
    }
  }
}

// ---------- round-trip exactness (the core property) ------------------------

struct RoundTripCase {
  index_t band_limit;
  index_t nlat;
  index_t nlon;
};

class ShtRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ShtRoundTrip, AnalyzeRecoversSynthesizedCoefficients) {
  const auto [L, nlat, nlon] = GetParam();
  SHTPlan plan(L, GridShape{nlat, nlon});
  const auto coeffs = random_coeffs(L, 7 + static_cast<std::uint64_t>(L));
  const auto field = plan.synthesize(coeffs);
  const auto recovered = plan.analyze(field);
  EXPECT_LT(max_coeff_diff(coeffs, recovered), 1e-10)
      << "L=" << L << " grid=" << nlat << "x" << nlon;
}

TEST_P(ShtRoundTrip, SynthesisIsExactOnGrid) {
  // synthesize(analyze(synthesize(c))) == synthesize(c) pointwise.
  const auto [L, nlat, nlon] = GetParam();
  SHTPlan plan(L, GridShape{nlat, nlon});
  const auto coeffs = random_coeffs(L, 40 + static_cast<std::uint64_t>(L));
  const auto field = plan.synthesize(coeffs);
  const auto field2 = plan.synthesize(plan.analyze(field));
  double m = 0.0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    m = std::max(m, std::abs(field[i] - field2[i]));
  }
  EXPECT_LT(m, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShtRoundTrip,
    ::testing::Values(RoundTripCase{4, 5, 7},     // minimal exact grid
                      RoundTripCase{4, 9, 16},    // oversampled
                      RoundTripCase{8, 9, 15},
                      RoundTripCase{8, 12, 20},
                      RoundTripCase{16, 17, 31},
                      RoundTripCase{16, 17, 32},  // ERA5-style nlon = 2L
                      RoundTripCase{24, 25, 48},
                      RoundTripCase{32, 33, 64},
                      RoundTripCase{32, 40, 80},  // generous oversampling
                      RoundTripCase{48, 49, 96}));

// ---------- analytic single harmonics ---------------------------------------

TEST(Sht, ConstantFieldIsPureY00) {
  const index_t L = 8;
  SHTPlan plan(L, GridShape{L + 1, 2 * L});
  std::vector<double> field(static_cast<std::size_t>((L + 1) * 2 * L),
                            3.0);  // Z = 3
  const auto coeffs = plan.analyze(field);
  // Y00 = 1/sqrt(4 pi), so z00 = 3 * sqrt(4 pi).
  EXPECT_NEAR(coeffs[0].real(), 3.0 * std::sqrt(4.0 * kPi), 1e-10);
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_LT(std::abs(coeffs[i]), 1e-10);
  }
}

TEST(Sht, CosThetaIsPureY10) {
  const index_t L = 8;
  const GridShape grid{L + 1, 2 * L};
  SHTPlan plan(L, grid);
  std::vector<double> field(static_cast<std::size_t>(grid.num_points()));
  for (index_t i = 0; i <= L; ++i) {
    for (index_t j = 0; j < 2 * L; ++j) {
      field[static_cast<std::size_t>(i * 2 * L + j)] =
          std::cos(grid.colatitude(i));
    }
  }
  const auto coeffs = plan.analyze(field);
  // cos theta = sqrt(4 pi / 3) Ybar_10.
  EXPECT_NEAR(coeffs[static_cast<std::size_t>(tri_index(1, 0))].real(),
              std::sqrt(4.0 * kPi / 3.0), 1e-10);
  EXPECT_NEAR(std::abs(coeffs[0]), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(coeffs[static_cast<std::size_t>(tri_index(2, 0))]), 0.0,
              1e-10);
}

TEST(Sht, SectoralHarmonicRecovered) {
  // Field = Re(Y_{2,2}) synthesized manually; analyze must put (1/2, 0)
  // into z_{2,2} under the real-field convention (z_{l,-m} mirror).
  const index_t L = 6;
  const GridShape grid{L + 2, 2 * L + 3};
  SHTPlan plan(L, grid);
  std::vector<cplx> c(static_cast<std::size_t>(tri_count(L)), cplx{0, 0});
  c[static_cast<std::size_t>(tri_index(2, 2))] = {0.5, 0.0};
  const auto field = plan.synthesize(c);
  const auto rec = plan.analyze(field);
  EXPECT_LT(max_coeff_diff(c, rec), 1e-11);
}

// ---------- consistency with the least-squares oracle -----------------------

TEST(Sht, MatchesLeastSquaresReference) {
  const index_t L = 6;
  const GridShape grid{L + 2, 2 * L + 2};
  SHTPlan plan(L, grid);
  const auto coeffs = random_coeffs(L, 99);
  const auto field = plan.synthesize(coeffs);
  const auto fast = plan.analyze(field);
  const auto reference = analyze_reference(L, grid, field);
  EXPECT_LT(max_coeff_diff(fast, reference), 1e-9);
}

// ---------- batched transforms -------------------------------------------------
//
// analyze_packed / synthesize_packed transform K fields per call through one
// GEMM per order. A field's bytes must not depend on the batch it rides in:
// the emulator's thread-count byte identity rests on that.

struct BatchCase {
  index_t band_limit;
  bool oversampled;  // (L+3) x (2L+5), odd nlon; else the default (L+1) x 2L
};

void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << "L=" << c.band_limit << (c.oversampled ? " oversampled" : " default");
}

GridShape batch_grid(const BatchCase& c) {
  const index_t L = c.band_limit;
  return c.oversampled ? GridShape{L + 3, 2 * L + 5} : GridShape{L + 1, 2 * L};
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

bool same_bytes(const double* a, const double* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) == 0;
}

/// Runs `call(first, count)` over [0, K) cut at `cuts` and returns the
/// concatenated outputs, each piece computed by its own call.
template <typename Call>
std::vector<double> run_split(index_t K, index_t out_stride,
                              const std::vector<index_t>& cuts, Call call) {
  std::vector<double> out(static_cast<std::size_t>(K * out_stride));
  index_t lo = 0;
  std::vector<index_t> ends = cuts;
  ends.push_back(K);
  for (index_t hi : ends) {
    if (hi <= lo || hi > K) continue;
    call(lo, hi - lo, out.data() + lo * out_stride);
    lo = hi;
  }
  return out;
}

class ShtBatch : public ::testing::TestWithParam<BatchCase> {};

TEST_P(ShtBatch, AnalyzeBatchesComposeExactly) {
  const BatchCase bc = GetParam();
  const index_t L = bc.band_limit;
  const GridShape grid = batch_grid(bc);
  const SHTPlan plan(L, grid);
  const index_t np = grid.num_points();
  const index_t nc = L * L;
  for (const index_t K : {1, 2, 3, 16, 17, 64}) {
    // Not band-limited: every ring and order carries signal.
    const auto fields = random_values(static_cast<std::size_t>(K * np),
                                      1000 + static_cast<std::uint64_t>(K));
    auto call = [&](index_t first, index_t count, double* dst) {
      plan.analyze_packed({fields.data() + first * np,
                           static_cast<std::size_t>(count * np)},
                          count, {dst, static_cast<std::size_t>(count * nc)});
    };
    const auto whole = run_split(K, nc, {}, call);
    std::vector<index_t> singles;
    for (index_t k = 1; k < K; ++k) singles.push_back(k);
    EXPECT_TRUE(same_bytes(whole.data(), run_split(K, nc, singles, call).data(),
                           K * nc))
        << "K=" << K << " vs single-field calls";
    const auto split = run_split(K, nc, {1, K / 2, K - 1}, call);
    EXPECT_TRUE(same_bytes(whole.data(), split.data(), K * nc))
        << "K=" << K << " vs a split batch";
  }
}

TEST_P(ShtBatch, SynthesizeBatchesComposeExactly) {
  const BatchCase bc = GetParam();
  const index_t L = bc.band_limit;
  const GridShape grid = batch_grid(bc);
  const SHTPlan plan(L, grid);
  const index_t np = grid.num_points();
  const index_t nc = L * L;
  for (const index_t K : {1, 2, 3, 16, 17, 64}) {
    const auto packed = random_values(static_cast<std::size_t>(K * nc),
                                      2000 + static_cast<std::uint64_t>(K));
    auto call = [&](index_t first, index_t count, double* dst) {
      plan.synthesize_packed({packed.data() + first * nc,
                              static_cast<std::size_t>(count * nc)},
                             count, {dst, static_cast<std::size_t>(count * np)});
    };
    const auto whole = run_split(K, np, {}, call);
    std::vector<index_t> singles;
    for (index_t k = 1; k < K; ++k) singles.push_back(k);
    EXPECT_TRUE(same_bytes(whole.data(), run_split(K, np, singles, call).data(),
                           K * np))
        << "K=" << K << " vs single-field calls";
    const auto split = run_split(K, np, {1, K / 2, K - 1}, call);
    EXPECT_TRUE(same_bytes(whole.data(), split.data(), K * np))
        << "K=" << K << " vs a split batch";
  }
}

TEST_P(ShtBatch, SingleFieldCallsAreTheBatchedPath) {
  // analyze / synthesize are count-1 packed calls plus (un)packing.
  const BatchCase bc = GetParam();
  const index_t L = bc.band_limit;
  const GridShape grid = batch_grid(bc);
  const SHTPlan plan(L, grid);
  const auto coeffs = random_coeffs(L, 31);
  const auto packed = pack_real(L, coeffs);
  std::vector<double> field(static_cast<std::size_t>(grid.num_points()));
  plan.synthesize_packed(packed, 1, field);
  const auto single = plan.synthesize(coeffs);
  EXPECT_TRUE(same_bytes(field.data(), single.data(), grid.num_points()));
  std::vector<double> rec(static_cast<std::size_t>(L * L));
  plan.analyze_packed(field, 1, rec);
  const auto expect = unpack_real(L, rec);
  const auto got = plan.analyze(field);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), got.size() * sizeof(cplx)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShtBatch,
    ::testing::Values(BatchCase{4, false}, BatchCase{4, true},
                      BatchCase{5, false}, BatchCase{5, true},
                      BatchCase{16, false}, BatchCase{16, true},
                      BatchCase{24, false},  // 25 x 48: Bluestein longitude FFT
                      BatchCase{24, true}, BatchCase{33, false},
                      BatchCase{33, true}));

class ShtBatchReference : public ::testing::TestWithParam<BatchCase> {};

TEST_P(ShtBatchReference, AnalyzeMatchesLeastSquaresReference) {
  const BatchCase bc = GetParam();
  const index_t L = bc.band_limit;
  const GridShape grid = batch_grid(bc);
  const SHTPlan plan(L, grid);
  const index_t np = grid.num_points();
  const index_t K = 3;
  std::vector<double> fields;
  for (index_t k = 0; k < K; ++k) {
    const auto f =
        plan.synthesize(random_coeffs(L, 60 + static_cast<std::uint64_t>(k)));
    fields.insert(fields.end(), f.begin(), f.end());
  }
  std::vector<double> packed(static_cast<std::size_t>(K * L * L));
  plan.analyze_packed(fields, K, packed);
  for (index_t k = 0; k < K; ++k) {
    const auto reference = pack_real(
        L, analyze_reference(L, grid,
                             {fields.data() + k * np,
                              static_cast<std::size_t>(np)}));
    for (index_t c = 0; c < L * L; ++c) {
      EXPECT_NEAR(packed[static_cast<std::size_t>(k * L * L + c)],
                  reference[static_cast<std::size_t>(c)], 1e-9)
          << "L=" << L << " field " << k << " packed index " << c;
    }
  }
}

TEST_P(ShtBatchReference, SynthesizeMatchesDirectSum) {
  // Z(theta, phi) = sum_l [ z_l0 P_l^0 + 2 sum_{m>0} Re(z_lm e^{i m phi}) P_l^m ].
  const BatchCase bc = GetParam();
  const index_t L = bc.band_limit;
  const GridShape grid = batch_grid(bc);
  const SHTPlan plan(L, grid);
  const index_t np = grid.num_points();
  const index_t K = 3;
  std::vector<double> packed;
  std::vector<std::vector<cplx>> coeffs;
  for (index_t k = 0; k < K; ++k) {
    coeffs.push_back(random_coeffs(L, 80 + static_cast<std::uint64_t>(k)));
    const auto p = pack_real(L, coeffs.back());
    packed.insert(packed.end(), p.begin(), p.end());
  }
  std::vector<double> fields(static_cast<std::size_t>(K * np));
  plan.synthesize_packed(packed, K, fields);
  std::vector<double> leg;
  for (index_t i = 0; i < grid.nlat; ++i) {
    legendre_all(L, std::cos(grid.colatitude(i)), leg);
    for (index_t j = 0; j < grid.nlon; ++j) {
      const double phi = grid.longitude(j);
      for (index_t k = 0; k < K; ++k) {
        const auto& c = coeffs[static_cast<std::size_t>(k)];
        double z = 0.0;
        for (index_t l = 0; l < L; ++l) {
          z += c[static_cast<std::size_t>(tri_index(l, 0))].real() *
               leg[static_cast<std::size_t>(tri_index(l, 0))];
          for (index_t m = 1; m <= l; ++m) {
            const cplx e{std::cos(m * phi), std::sin(m * phi)};
            z += 2.0 * (c[static_cast<std::size_t>(tri_index(l, m))] * e).real() *
                 leg[static_cast<std::size_t>(tri_index(l, m))];
          }
        }
        EXPECT_NEAR(fields[static_cast<std::size_t>(k * np + i * grid.nlon + j)],
                    z, 1e-10)
            << "L=" << L << " field " << k << " at (" << i << ", " << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LowDegree, ShtBatchReference,
    ::testing::Values(BatchCase{4, false}, BatchCase{4, true},
                      BatchCase{5, false}, BatchCase{5, true},
                      BatchCase{8, false}, BatchCase{8, true}));

TEST(Sht, PackedCallsRejectMismatchedSizes) {
  const SHTPlan plan(4, GridShape{5, 8});
  std::vector<double> fields(2 * 40), packed(2 * 16);
  EXPECT_THROW(plan.analyze_packed(fields, 3, packed), InvalidArgument);
  EXPECT_THROW(plan.analyze_packed(fields, 2, {packed.data(), 31}),
               InvalidArgument);
  EXPECT_THROW(plan.synthesize_packed(packed, 1, fields), InvalidArgument);
  plan.analyze_packed({}, 0, {});  // an empty batch is a no-op
}

// ---------- Parseval / power spectrum ----------------------------------------

TEST(Sht, PowerSpectrumMatchesCoefficients) {
  const index_t L = 10;
  SHTPlan plan(L, GridShape{L + 1, 2 * L});
  auto coeffs = random_coeffs(L, 5);
  const auto spec = plan.power_spectrum(coeffs);
  ASSERT_EQ(spec.size(), static_cast<std::size_t>(L));
  for (index_t l = 0; l < L; ++l) {
    double acc = std::norm(coeffs[static_cast<std::size_t>(tri_index(l, 0))]);
    for (index_t m = 1; m <= l; ++m) {
      acc += 2.0 * std::norm(coeffs[static_cast<std::size_t>(tri_index(l, m))]);
    }
    EXPECT_NEAR(spec[static_cast<std::size_t>(l)], acc / (2.0 * l + 1.0), 1e-12);
  }
}

TEST(Sht, NonBandLimitedFieldStillApproximates) {
  // A field with content above L: analysis + synthesis should reproduce the
  // band-limited part; the residual is the epsilon the emulator absorbs into
  // the nugget.
  const index_t l_truth = 12;
  const index_t l_model = 6;
  const GridShape grid{l_truth + 5, 2 * l_truth + 6};
  SHTPlan truth_plan(l_truth, grid);
  SHTPlan model_plan(l_model, grid);
  const auto coeffs = random_coeffs(l_truth, 3);
  const auto field = truth_plan.synthesize(coeffs);
  const auto approx = model_plan.synthesize(model_plan.analyze(field));
  double field_norm = 0.0;
  double resid_norm = 0.0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    field_norm += field[i] * field[i];
    resid_norm += (field[i] - approx[i]) * (field[i] - approx[i]);
  }
  // The approximation captures most energy but not all (truth has power
  // above the model band limit).
  EXPECT_LT(resid_norm, field_norm);
  EXPECT_GT(resid_norm, 1e-8 * field_norm);
}

// ---------- packing -----------------------------------------------------------

TEST(Packing, RoundTrip) {
  const index_t L = 9;
  const auto coeffs = random_coeffs(L, 21);
  const auto packed = pack_real(L, coeffs);
  EXPECT_EQ(packed.size(), static_cast<std::size_t>(L * L));
  const auto back = unpack_real(L, packed);
  EXPECT_LT(max_coeff_diff(coeffs, back), 1e-14);
}

TEST(Packing, IsIsometry) {
  // ||packed||^2 == |z_00|^2-style spherical energy: z_{l,0}^2 + 2 sum |z|^2.
  const index_t L = 7;
  const auto coeffs = random_coeffs(L, 22);
  const auto packed = pack_real(L, coeffs);
  double packed_energy = 0.0;
  for (double v : packed) packed_energy += v * v;
  double coeff_energy = 0.0;
  for (index_t l = 0; l < L; ++l) {
    coeff_energy += std::norm(coeffs[static_cast<std::size_t>(tri_index(l, 0))]);
    for (index_t m = 1; m <= l; ++m) {
      coeff_energy +=
          2.0 * std::norm(coeffs[static_cast<std::size_t>(tri_index(l, m))]);
    }
  }
  EXPECT_NEAR(packed_energy, coeff_energy, 1e-10);
}

TEST(Packing, DegreeOffsetsAndLookup) {
  EXPECT_EQ(packed_degree_offset(0), 0);
  EXPECT_EQ(packed_degree_offset(3), 9);
  EXPECT_EQ(packed_index_degree(0), 0);
  EXPECT_EQ(packed_index_degree(1), 1);
  EXPECT_EQ(packed_index_degree(3), 1);
  EXPECT_EQ(packed_index_degree(4), 2);
  EXPECT_EQ(packed_index_degree(8), 2);
  EXPECT_EQ(packed_index_degree(9), 3);
}

// ---------- validation --------------------------------------------------------

TEST(Sht, RejectsGridsTooCoarseForBandLimit) {
  EXPECT_THROW(SHTPlan(8, GridShape{8, 32}), InvalidArgument);   // nlat < L+1
  EXPECT_THROW(SHTPlan(8, GridShape{16, 14}), InvalidArgument);  // nlon < 2L-1
}

TEST(Sht, RejectsWrongFieldSize) {
  SHTPlan plan(4, GridShape{5, 8});
  std::vector<double> field(10, 0.0);
  EXPECT_THROW(plan.analyze(field), InvalidArgument);
}

TEST(Sht, RejectsWrongCoefficientCount) {
  SHTPlan plan(4, GridShape{5, 8});
  std::vector<cplx> c(3);
  EXPECT_THROW(plan.synthesize(c), InvalidArgument);
}

TEST(Sht, EquiangularGridGeometry) {
  const GridShape g{5, 8};
  EXPECT_DOUBLE_EQ(g.colatitude(0), 0.0);
  EXPECT_DOUBLE_EQ(g.colatitude(4), kPi);
  EXPECT_DOUBLE_EQ(g.colatitude(2), kPi / 2.0);
  EXPECT_DOUBLE_EQ(g.longitude(0), 0.0);
  EXPECT_DOUBLE_EQ(g.longitude(4), kPi);
  EXPECT_EQ(g.num_points(), 40);
}

}  // namespace
