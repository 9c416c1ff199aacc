// Regression tests for the scaled FP16 tile path: binary16 boundary values,
// single-rounding f64 -> f16 conversion, per-tile max-abs scaled storage
// (entries beyond +-65504 must round-trip finite), packed-half blocked
// kernels, and a DP/HP tiled Cholesky on a covariance matrix whose entries
// dwarf the binary16 range.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;
using runtime::cholesky_mixed_dense;
using common::half;

// ---------- binary16 boundary values ----------------------------------------

TEST(HalfBoundary, MaxFiniteAndOverflowThreshold) {
  // 65504 is the largest finite half; 65520 is the rounding midpoint above it
  // and ties to even = infinity; anything in between rounds back down.
  EXPECT_EQ(static_cast<float>(half(65504.0f)), 65504.0f);
  EXPECT_EQ(static_cast<float>(half(65519.0f)), 65504.0f);
  EXPECT_TRUE(std::isinf(static_cast<float>(half(65520.0f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half(65536.0f))));
  // Same thresholds through the double-source conversion.
  EXPECT_EQ(static_cast<float>(half(65504.0)), 65504.0f);
  EXPECT_EQ(static_cast<float>(half(65519.999)), 65504.0f);
  EXPECT_TRUE(std::isinf(static_cast<float>(half(65520.0))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half(-65520.0))));
  EXPECT_LT(static_cast<float>(half(-65520.0)), 0.0f);
}

TEST(HalfBoundary, SubnormalsFromDouble) {
  const double min_subnormal = std::ldexp(1.0, -24);
  const double min_normal = std::ldexp(1.0, -14);
  EXPECT_EQ(static_cast<double>(half(min_subnormal)), min_subnormal);
  EXPECT_EQ(static_cast<double>(half(min_normal)), min_normal);
  // Largest subnormal.
  const double top_subnormal = min_normal - min_subnormal;
  EXPECT_EQ(static_cast<double>(half(top_subnormal)), top_subnormal);
  // Half the smallest subnormal ties to even = zero; just above rounds up.
  EXPECT_EQ(static_cast<double>(half(std::ldexp(1.0, -25))), 0.0);
  EXPECT_EQ(static_cast<double>(half(std::ldexp(1.0, -25) * 1.0000001)),
            min_subnormal);
  // Below the tie: zero.
  EXPECT_EQ(static_cast<double>(half(std::ldexp(1.0, -26))), 0.0);
  EXPECT_EQ(half(-std::ldexp(1.0, -26)).bits(), 0x8000u);
}

TEST(HalfBoundary, DoubleConversionRoundsOnce) {
  // 1 + 2^-11 is the exact midpoint between the halves 1 and 1 + 2^-10.
  // Nudged up by 2^-40 (representable in f64, lost by f64 -> f32), a single
  // rounding must go up; the two-step path rounds to the f32 midpoint first
  // and then ties to even, landing on 1.
  const double d = 1.0 + std::ldexp(1.0, -11) + std::ldexp(1.0, -40);
  const float two_step = static_cast<float>(half(static_cast<float>(d)));
  EXPECT_EQ(static_cast<float>(half(d)), 1.0f + std::ldexp(1.0f, -10));
  EXPECT_EQ(two_step, 1.0f);  // documents the bug the direct path fixes

  // Subnormal flush case: 2^-25 * (1 + 2^-30) is above the zero/subnormal
  // tie, but f64 -> f32 rounds it to exactly 2^-25, which then ties to zero.
  const double s = std::ldexp(1.0, -25) * (1.0 + std::ldexp(1.0, -30));
  EXPECT_EQ(static_cast<double>(half(s)), std::ldexp(1.0, -24));
  EXPECT_EQ(static_cast<float>(half(static_cast<float>(s))), 0.0f);
}

TEST(HalfBoundary, ExhaustiveAgreementWithFloatPathOnExactDoubles) {
  // For every finite half h, float(h) widened to double must convert back
  // bit-exactly through the double path.
  for (unsigned bits = 0; bits < 0x10000u; ++bits) {
    const auto h = half::from_bits(static_cast<std::uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f) || std::isinf(f)) continue;
    EXPECT_EQ(half(static_cast<double>(f)).bits(), h.bits()) << bits;
  }
}

// ---------- scaled conversions -----------------------------------------------

TEST(ScaledF16, LargeMagnitudesRoundTripFinite) {
  common::Rng rng(21);
  std::vector<double> src(512);
  for (auto& v : src) v = 1e6 * rng.normal();  // far beyond 65504
  src[7] = 8.5e8;
  src[13] = -8.5e8;
  std::vector<half> packed(src.size());
  std::vector<double> back(src.size());
  const float scale =
      convert_f64_to_f16_scaled(src.data(), packed.data(),
                                static_cast<index_t>(src.size()));
  convert_f16_scaled_to_f64(packed.data(), scale, back.data(),
                            static_cast<index_t>(src.size()));
  // Power-of-two scale.
  int e = 0;
  EXPECT_EQ(std::frexp(scale, &e), 0.5f);
  const double max_abs = 8.5e8;
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_TRUE(std::isfinite(back[i])) << i;
    // Absolute error bounded by the scaled f16 grid spacing.
    EXPECT_NEAR(back[i], src[i], common::kHalfEps * max_abs) << i;
  }
}

TEST(ScaledF16, F32AndF64PathsAgree) {
  common::Rng rng(22);
  std::vector<float> srcf(300);
  std::vector<double> srcd(300);
  for (std::size_t i = 0; i < srcf.size(); ++i) {
    srcf[i] = static_cast<float>(rng.normal(0.0, 1e5));
    srcd[i] = static_cast<double>(srcf[i]);
  }
  std::vector<half> hf(srcf.size()), hd(srcf.size());
  const float sf = convert_f32_to_f16_scaled(srcf.data(), hf.data(), 300);
  const float sd = convert_f64_to_f16_scaled(srcd.data(), hd.data(), 300);
  EXPECT_EQ(sf, sd);
  for (std::size_t i = 0; i < hf.size(); ++i) {
    EXPECT_EQ(hf[i].bits(), hd[i].bits()) << i;
  }
}

TEST(ScaledF16, AllZeroBufferGetsUnitScale) {
  std::vector<double> src(16, 0.0);
  std::vector<half> packed(src.size());
  EXPECT_EQ(convert_f64_to_f16_scaled(src.data(), packed.data(), 16), 1.0f);
  for (const half& h : packed) EXPECT_EQ(h.bits(), 0u);
}

// ---------- TileBuffer scaled storage ---------------------------------------

TEST(TileBufferScaled, OverflowingTileRoundTripsFinite) {
  const index_t n = 32;
  TileBuffer t(Precision::FP16, n, n);
  common::Rng rng(23);
  std::vector<double> src(static_cast<std::size_t>(n * n));
  for (auto& v : src) v = 2e6 * rng.normal();
  t.load_f64(src.data());
  EXPECT_NE(t.scale(), 1.0f);  // a real scale was picked
  std::vector<double> back(src.size());
  t.store_f64(back.data());
  double max_abs = 0.0;
  for (double v : src) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_TRUE(std::isfinite(back[i])) << i;
    EXPECT_NEAR(back[i], src[i], common::kHalfEps * max_abs) << i;
  }
}

TEST(TileBufferScaled, DenseRoundTripAtCovarianceMagnitude) {
  // from_dense -> to_dense of a 1e6-magnitude matrix through an all-FP16
  // off-diagonal policy must stay finite and relatively accurate; the
  // unscaled path saturated every off-band entry to +-inf.
  const index_t n = 96;
  const double mag = 4.2e6;
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = mag * std::exp(-std::abs(static_cast<double>(i - j)) / 24.0);
    }
    a(i, i) += mag * 1e-3;
  }
  const auto t = TiledSymmetricMatrix::from_dense(
      a, 32, make_band_policy(3, PrecisionVariant::DP_HP, 0));
  const Matrix back = t.to_dense();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_TRUE(std::isfinite(back(i, j))) << i << "," << j;
      EXPECT_NEAR(back(i, j), a(i, j), common::kHalfEps * mag) << i << "," << j;
    }
  }
}

// ---------- packed-half kernels ----------------------------------------------

TEST(PackedHalfKernels, GemmMatchesWidenedF32Path) {
  common::Rng rng(24);
  for (index_t n : {1, 7, 33, 96, 129}) {
    const index_t m = n + 3, k = n + 1;
    std::vector<float> af(static_cast<std::size_t>(m * k));
    std::vector<float> bf(static_cast<std::size_t>(n * k));
    for (auto& v : af) v = static_cast<float>(rng.normal(0.0, 3e5));
    for (auto& v : bf) v = static_cast<float>(rng.normal(0.0, 3e5));
    std::vector<half> ah(af.size()), bh(bf.size());
    const float sa = convert_f32_to_f16_scaled(af.data(), ah.data(), m * k);
    const float sb = convert_f32_to_f16_scaled(bf.data(), bh.data(), n * k);

    // Reference: widen the packed halves, re-apply scales, run the f32 GEMM.
    std::vector<float> aw(af.size()), bw(bf.size());
    convert_f16_scaled_to_f32(ah.data(), sa, aw.data(), m * k);
    convert_f16_scaled_to_f32(bh.data(), sb, bw.data(), n * k);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> want = c;
    gemm_nt_minus_f16(ah.data(), sa, bh.data(), sb, c.data(), m, n, k);
    gemm_nt_minus_f32(aw.data(), bw.data(), want.data(), m, n, k);
    double cmax = 1.0;
    for (float w : want) cmax = std::max(cmax, std::abs(static_cast<double>(w)));
    for (std::size_t i = 0; i < c.size(); ++i) {
      // Same products, different accumulation grouping (scale applied at
      // write-back vs per operand): agree to f32 accumulation rounding.
      EXPECT_NEAR(c[i], want[i], 1e-5 * cmax) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PackedHalfKernels, SyrkMatchesWidenedF32Path) {
  common::Rng rng(25);
  for (index_t m : {1, 8, 65, 97}) {
    const index_t k = m + 5;
    std::vector<float> af(static_cast<std::size_t>(m * k));
    for (auto& v : af) v = static_cast<float>(rng.normal(0.0, 1e6));
    std::vector<half> ah(af.size());
    const float sa = convert_f32_to_f16_scaled(af.data(), ah.data(), m * k);
    std::vector<float> aw(af.size());
    convert_f16_scaled_to_f32(ah.data(), sa, aw.data(), m * k);
    std::vector<float> c(static_cast<std::size_t>(m * m), 0.0f);
    std::vector<float> want = c;
    syrk_ln_minus_f16(ah.data(), sa, c.data(), m, k);
    syrk_ln_minus_f32(aw.data(), want.data(), m, k);
    double cmax = 1.0;
    for (float w : want) cmax = std::max(cmax, std::abs(static_cast<double>(w)));
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        EXPECT_NEAR(c[static_cast<std::size_t>(i * m + j)],
                    want[static_cast<std::size_t>(i * m + j)], 1e-5 * cmax)
            << "m=" << m;
      }
    }
  }
}

// ---------- large-magnitude DP/HP Cholesky -----------------------------------

Matrix covariance_spd(index_t n, double magnitude) {
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) =
          magnitude * std::exp(-std::abs(static_cast<double>(i - j)) / 20.0);
    }
    a(i, i) += magnitude * 1e-3;
  }
  return a;
}

TEST(LargeMagnitudeCholesky, DpHpResidualComparableToUnitScale) {
  // The headline regression: a covariance matrix with entries of magnitude
  // 1e6 (the unscaled f16 path saturated these tiles to +-inf and the
  // factorization produced inf/nan) must now factor to a finite factor with
  // a relative residual comparable to the correlation-scale (unit) case.
  const index_t n = 192;
  const index_t nb = 48;
  const Matrix unit = covariance_spd(n, 1.0);
  const Matrix big = covariance_spd(n, 1e6);

  const Matrix l_unit = cholesky_mixed_dense(unit, nb, PrecisionVariant::DP_HP);
  const Matrix l_big = cholesky_mixed_dense(big, nb, PrecisionVariant::DP_HP);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(std::isfinite(l_big(i, j))) << i << "," << j;
    }
  }
  const double r_unit = cholesky_residual(unit, l_unit);
  const double r_big = cholesky_residual(big, l_big);
  EXPECT_LT(r_big, 5e-3);
  // "Comparable": same precision class, scale-invariant to within a small
  // constant (the per-tile scales differ, not the arithmetic).
  EXPECT_LT(r_big, 10.0 * r_unit + 1e-12);
}

TEST(LargeMagnitudeCholesky, IdenticalAcrossThreadsAndPlacements) {
  const index_t n = 192;
  const Matrix a = covariance_spd(n, 1e6);
  runtime::RtCholeskyOptions opt;
  opt.threads = 1;
  const Matrix ref = cholesky_mixed_dense(a, 48, PrecisionVariant::DP_HP, opt);
  for (unsigned threads : {1u, 8u}) {
    for (auto placement :
         {ConversionPlacement::Sender, ConversionPlacement::Receiver}) {
      opt.threads = threads;
      opt.placement = placement;
      const Matrix l =
          cholesky_mixed_dense(a, 48, PrecisionVariant::DP_HP, opt);
      EXPECT_EQ(std::memcmp(l.data(), ref.data(), sizeof(double) * n * n), 0)
          << "threads=" << threads;
    }
  }
}

TEST(LargeMagnitudeCholesky, TileCentricPolicyStaysFinite) {
  const index_t n = 128;
  const index_t nb = 32;
  const Matrix a = covariance_spd(n, 3e7);
  const auto map = make_tile_centric_policy(a, nb, 0.5, 0.2);
  EXPECT_GT(map.fraction(Precision::FP16), 0.0);  // policy did assign HP
  auto tiled = TiledSymmetricMatrix::from_dense(a, nb, map);
  runtime::cholesky_tiled_parallel(tiled);
  const Matrix l = tiled.to_dense(true);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(std::isfinite(l(i, j))) << i << "," << j;
    }
  }
  EXPECT_LT(cholesky_residual(a, l), 5e-2);
}

}  // namespace
