// The blocked tile kernels must reproduce the retained scalar *_ref oracles:
// 1e-12 relative in f64, 1e-4 relative in f32, across rectangular shapes,
// degenerate sizes, and sizes straddling every blocking boundary: the
// micro-tile MR/NR, the factorization panel NB = 64, and the cache blocks
// KC/MC — which are runtime-tuned now, so the shape lists below combine a
// fixed set (covering the default 96/256 blocking) with boundaries queried
// from the active tuning. The suite must pass under any tuning the
// autotuner may select, not just the compiled-in defaults.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;

template <typename T>
std::vector<T> random_vec(index_t n, std::uint64_t seed, double scale = 1.0) {
  common::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.normal(0.0, scale));
  return v;
}

/// Well-conditioned SPD tile: diagonally dominant exponential decay.
template <typename T>
std::vector<T> spd_tile(index_t n, double diag_boost = 1.0) {
  std::vector<T> a(static_cast<std::size_t>(n * n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = static_cast<T>(
          std::exp(-std::abs(static_cast<double>(i - j)) / 16.0));
    }
    a[static_cast<std::size_t>(i * n + i)] += static_cast<T>(diag_boost);
  }
  return a;
}

template <typename T>
double max_rel_err(const std::vector<T>& got, const std::vector<T>& want) {
  double scale = 1.0;
  for (const T& w : want) scale = std::max(scale, std::abs(static_cast<double>(w)));
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(got[i]) -
                                 static_cast<double>(want[i])) /
                            scale);
  }
  return err;
}

constexpr double kTolF64 = 1e-12;
constexpr double kTolF32 = 1e-4;

// Shapes chosen to straddle every boundary in the blocked engine: unit and
// prime sizes, the micro-tile widths (4/8/16/32), the factorization panel
// NB = 64, the default cache blocks MC = 96 and KC = 256, and their
// off-by-ones.
struct Shape {
  index_t m, n, k;
};
const Shape kGemmShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {7, 1, 5},     {5, 5, 1},    {7, 7, 7},
    {8, 32, 16}, {13, 9, 17},  {33, 31, 29},  {64, 64, 64}, {65, 63, 67},
    {96, 97, 95}, {100, 41, 257}, {128, 128, 300}, {256, 256, 256}};

/// The fixed shape list plus boundary shapes of whatever tuning is active
/// right now (KC/MC and their off-by-ones), capped so an autotuned MC in the
/// thousands does not blow the oracle's O(m n k) cost.
std::vector<Shape> gemm_shapes(const BlockSizes& bs) {
  std::vector<Shape> shapes(std::begin(kGemmShapes), std::end(kGemmShapes));
  const index_t kc = std::min<index_t>(bs.kc, 1024);
  const index_t mc = std::min<index_t>(bs.mc, 512);
  shapes.push_back({mc - 1, 33, kc - 1});
  shapes.push_back({mc, 32, kc});
  shapes.push_back({mc + 1, 31, kc + 1});
  return shapes;
}

std::vector<Shape> syrk_shapes_dynamic(const BlockSizes& bs) {
  const index_t kc = std::min<index_t>(bs.kc, 1024);
  const index_t mc = std::min<index_t>(bs.mc, 512);
  return {{mc - 1, 0, 31}, {mc, 0, 32}, {mc + 1, 0, kc + 1}};
}

TEST(KernelsBlocked, GemmMatchesRefF64) {
  for (const Shape& s : gemm_shapes(active_tuning().f64)) {
    auto a = random_vec<double>(s.m * s.k, 1);
    auto b = random_vec<double>(s.n * s.k, 2);
    auto c = random_vec<double>(s.m * s.n, 3);
    auto want = c;
    gemm_nt_minus_f64(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    gemm_nt_minus_ref_f64(a.data(), b.data(), want.data(), s.m, s.n, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF64)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(KernelsBlocked, GemmMatchesRefF32) {
  for (const Shape& s : gemm_shapes(active_tuning().f32)) {
    auto a = random_vec<float>(s.m * s.k, 4);
    auto b = random_vec<float>(s.n * s.k, 5);
    auto c = random_vec<float>(s.m * s.n, 6);
    auto want = c;
    gemm_nt_minus_f32(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    gemm_nt_minus_ref_f32(a.data(), b.data(), want.data(), s.m, s.n, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF32)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

const Shape kSyrkShapes[] = {{1, 0, 1},   {7, 0, 7},    {13, 0, 29},
                             {64, 0, 64}, {65, 0, 127}, {96, 0, 96},
                             {97, 0, 95}, {192, 0, 256}, {256, 0, 256}};

std::vector<Shape> syrk_shapes(const BlockSizes& bs) {
  std::vector<Shape> shapes(std::begin(kSyrkShapes), std::end(kSyrkShapes));
  for (const Shape& s : syrk_shapes_dynamic(bs)) shapes.push_back(s);
  return shapes;
}

TEST(KernelsBlocked, SyrkMatchesRefF64) {
  for (const Shape& s : syrk_shapes(active_tuning().f64)) {
    auto a = random_vec<double>(s.m * s.k, 7);
    auto c = random_vec<double>(s.m * s.m, 8);
    auto want = c;
    syrk_ln_minus_f64(a.data(), c.data(), s.m, s.k);
    syrk_ln_minus_ref_f64(a.data(), want.data(), s.m, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF64) << "m=" << s.m << " k=" << s.k;
  }
}

TEST(KernelsBlocked, SyrkMatchesRefF32) {
  for (const Shape& s : syrk_shapes(active_tuning().f32)) {
    auto a = random_vec<float>(s.m * s.k, 9);
    auto c = random_vec<float>(s.m * s.m, 10);
    auto want = c;
    syrk_ln_minus_f32(a.data(), c.data(), s.m, s.k);
    syrk_ln_minus_ref_f32(a.data(), want.data(), s.m, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF32) << "m=" << s.m << " k=" << s.k;
  }
}

TEST(KernelsBlocked, SyrkLeavesStrictUpperUntouched) {
  const index_t m = 65, k = 33;
  auto a = random_vec<double>(m * k, 11);
  auto c = random_vec<double>(m * m, 12);
  const auto before = c;
  syrk_ln_minus_f64(a.data(), c.data(), m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = i + 1; j < m; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * m + j)],
                before[static_cast<std::size_t>(i * m + j)]);
    }
  }
}

TEST(KernelsBlocked, TrsmMatchesRefF64) {
  for (index_t n : {1, 7, 31, 64, 65, 100, 129, 256}) {
    for (index_t m : {1, 7, 64, 96, 200}) {
      auto l = spd_tile<double>(n);
      potrf_lower_ref_f64(l.data(), n);
      auto b = random_vec<double>(m * n, 13);
      auto want = b;
      trsm_rlt_f64(l.data(), b.data(), m, n);
      trsm_rlt_ref_f64(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), kTolF64) << "m=" << m << " n=" << n;
    }
  }
}

TEST(KernelsBlocked, TrsmMatchesRefF32) {
  for (index_t n : {1, 7, 64, 65, 129}) {
    for (index_t m : {1, 13, 96}) {
      auto l = spd_tile<float>(n);
      potrf_lower_ref_f32(l.data(), n);
      auto b = random_vec<float>(m * n, 14);
      auto want = b;
      trsm_rlt_f32(l.data(), b.data(), m, n);
      trsm_rlt_ref_f32(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), kTolF32) << "m=" << m << " n=" << n;
    }
  }
}

TEST(KernelsBlocked, PotrfMatchesRefF64) {
  for (index_t n : {1, 2, 7, 63, 64, 65, 96, 100, 129, 200, 256}) {
    auto a = spd_tile<double>(n);
    auto want = a;
    potrf_lower_f64(a.data(), n);
    potrf_lower_ref_f64(want.data(), n);
    // Compare the lower triangles only (strictly-upper is untouched input).
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(err, std::abs(a[static_cast<std::size_t>(i * n + j)] -
                                     want[static_cast<std::size_t>(i * n + j)]));
      }
    }
    EXPECT_LT(err, kTolF64 * 10) << "n=" << n;
  }
}

TEST(KernelsBlocked, PotrfMatchesRefF32) {
  for (index_t n : {1, 7, 64, 65, 129}) {
    auto a = spd_tile<float>(n);
    auto want = a;
    potrf_lower_f32(a.data(), n);
    potrf_lower_ref_f32(want.data(), n);
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(
            err, std::abs(static_cast<double>(a[static_cast<std::size_t>(i * n + j)]) -
                          static_cast<double>(want[static_cast<std::size_t>(i * n + j)])));
      }
    }
    EXPECT_LT(err, kTolF32) << "n=" << n;
  }
}

TEST(KernelsBlocked, PotrfReconstructsInput) {
  // End-to-end: L * L^T must reproduce the original SPD tile.
  const index_t n = 129;
  auto a = spd_tile<double>(n);
  const auto orig = a;
  potrf_lower_f64(a.data(), n);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p <= j; ++p) {
        acc += a[static_cast<std::size_t>(i * n + p)] *
               a[static_cast<std::size_t>(j * n + p)];
      }
      err = std::max(err, std::abs(acc - orig[static_cast<std::size_t>(i * n + j)]));
    }
  }
  EXPECT_LT(err, 1e-10);
}

TEST(KernelsBlocked, PotrfThrowsOnIndefiniteTile) {
  const index_t n = 96;
  auto a = spd_tile<double>(n);
  a[static_cast<std::size_t>(70 * n + 70)] = -100.0;  // in the second panel
  EXPECT_THROW(potrf_lower_f64(a.data(), n), NumericalError);
}

TEST(KernelsBlocked, GemmZeroSizesAreNoops) {
  auto c = random_vec<double>(4 * 4, 15);
  const auto before = c;
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 0, 4, 4);
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 4, 0, 4);
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 4, 4, 0);
  EXPECT_EQ(c, before);
}

// --- Sampling apply: register-blocked kernel vs the plain triple loop -------
//
// sample_apply_packed must be *bitwise* equal to the definition it blocks:
// X[r, k] = fma(L(r, c), Z[c, k], X[r, k]) for c ascending, over every
// storage (packed f64/f32/f16-scaled rows and the dense in-place view), any
// block — including ones whose rows do not start on the kernel's 4-row
// register block — and any skip mask, with skipped columns byte-untouched.

/// A lower-triangular factor in all four layouts the kernel reads, plus the
/// exact double each layout yields for L(r, c).
struct SampleFactor {
  index_t n = 0;
  std::vector<double> dense;              // row-major n x n, upper = NaN
  std::vector<std::uint64_t> f64, f32, f16;  // 8-aligned packed payloads
  std::vector<double> want_f32, want_f16;    // widened L(r, c), row-major

  explicit SampleFactor(index_t dim) : n(dim) {
    common::Rng rng(0x5A3D + static_cast<std::uint64_t>(dim));
    const auto nn = static_cast<std::size_t>(n * n);
    dense.assign(nn, std::numeric_limits<double>::quiet_NaN());
    want_f32.assign(nn, 0.0);
    want_f16.assign(nn, 0.0);
    auto words = [](std::size_t bytes) { return (bytes + 7) / 8; };
    f64.assign(words(packed_factor_bytes(PackedStorage::F64, n)), 0);
    f32.assign(words(packed_factor_bytes(PackedStorage::F32, n)), 0);
    f16.assign(words(packed_factor_bytes(PackedStorage::F16Scaled, n)), 0);
    auto* p64 = reinterpret_cast<unsigned char*>(f64.data());
    auto* p32 = reinterpret_cast<unsigned char*>(f32.data());
    auto* p16 = reinterpret_cast<unsigned char*>(f16.data());
    for (index_t r = 0; r < n; ++r) {
      const float scale = std::ldexp(1.0f, static_cast<int>(r % 5) - 2);
      std::memcpy(p16, &scale, sizeof(scale));
      p16 += sizeof(scale);
      for (index_t c = 0; c <= r; ++c) {
        const double v = rng.normal();
        const auto at = static_cast<std::size_t>(r * n + c);
        dense[at] = v;
        std::memcpy(p64, &v, sizeof(v));
        p64 += sizeof(v);
        const auto f = static_cast<float>(v);
        std::memcpy(p32, &f, sizeof(f));
        p32 += sizeof(f);
        want_f32[at] = static_cast<double>(f);
        const std::uint16_t h = common::double_to_half_bits(v / scale);
        std::memcpy(p16, &h, sizeof(h));
        p16 += sizeof(h);
        want_f16[at] = static_cast<double>(common::half_bits_to_float(h)) *
                       static_cast<double>(scale);
      }
    }
  }

  PackedFactorView view(PackedStorage storage) const {
    const std::vector<std::uint64_t>& payload =
        storage == PackedStorage::F64   ? f64
        : storage == PackedStorage::F32 ? f32
                                        : f16;
    PackedFactorView v;
    v.bytes = reinterpret_cast<const unsigned char*>(payload.data());
    v.size_bytes = packed_factor_bytes(storage, n);
    v.n = n;
    v.storage = storage;
    return v;
  }
};

/// The definition, one fused multiply-add per term in ascending c.
void sample_apply_reference(const double* l, index_t n, index_t r0,
                            index_t r1, index_t c0, index_t c1,
                            const double* z, double* x, index_t k_cols,
                            std::uint64_t skip) {
  for (index_t r = r0; r < r1; ++r) {
    for (index_t k = 0; k < k_cols; ++k) {
      if ((skip >> k) & 1u) continue;
      double acc = x[r * k_cols + k];
      for (index_t c = c0; c < std::min(c1, r + 1); ++c) {
        acc = std::fma(l[r * n + c], z[c * k_cols + k], acc);
      }
      x[r * k_cols + k] = acc;
    }
  }
}

struct Block {
  index_t r0, r1, c0, c1;
};

/// The full factor plus blocks whose rows start off the 4-row register
/// block, end mid-block, and cut the column range on both sides.
std::vector<Block> sample_blocks(index_t n) {
  auto clamp = [n](index_t v) { return std::min(n, std::max<index_t>(0, v)); };
  auto block = [&](index_t r0, index_t r1, index_t c0, index_t c1) {
    return Block{clamp(r0), std::max(clamp(r0), clamp(r1)), clamp(c0),
                 std::max(clamp(c0), clamp(c1))};
  };
  return {block(0, n, 0, n), block(1, n - 2, 3, n),
          block(n / 3 + 1, 2 * n / 3 + 2, n / 5, n / 2 + 3)};
}

TEST(KernelsBlocked, SampleApplyBitwiseEqualsTripleLoop) {
  const index_t kDims[] = {1, 3, 4, 5, 17, 255, 256, 257};
  const index_t kWidths[] = {1, 7, 8, 15, 16, 17, 63, 64};
  struct Layout {
    const char* name;
    PackedStorage storage;
    bool dense;
  };
  const Layout kLayouts[] = {{"dense f64", PackedStorage::F64, true},
                             {"packed f64", PackedStorage::F64, false},
                             {"packed f32", PackedStorage::F32, false},
                             {"packed f16", PackedStorage::F16Scaled, false}};
  for (const index_t n : kDims) {
    const SampleFactor factor(n);
    for (const index_t k_cols : kWidths) {
      const std::uint64_t all =
          k_cols == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k_cols) - 1;
      // No skips, every other column, and everything but the last column.
      const std::uint64_t kSkips[] = {0, 0x5555555555555555ull & all,
                                      all >> 1};
      const auto z = random_vec<double>(n * k_cols, 11 + n * 64 + k_cols);
      const auto x0 = random_vec<double>(n * k_cols, 13 + n * 64 + k_cols);
      for (const Layout& layout : kLayouts) {
        const PackedFactorView view =
            layout.dense ? dense_factor_view(factor.dense.data(), n)
                         : factor.view(layout.storage);
        const std::vector<double>& l =
            layout.storage == PackedStorage::F32         ? factor.want_f32
            : layout.storage == PackedStorage::F16Scaled ? factor.want_f16
                                                         : factor.dense;
        for (const Block& b : sample_blocks(n)) {
          for (const std::uint64_t skip : kSkips) {
            std::vector<double> got = x0;
            std::vector<double> want = x0;
            sample_apply_packed(view, b.r0, b.r1, b.c0, b.c1, z.data(),
                                got.data(), k_cols, skip);
            sample_apply_reference(l.data(), n, b.r0, b.r1, b.c0, b.c1,
                                   z.data(), want.data(), k_cols, skip);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     got.size() * sizeof(double)))
                << layout.name << " n=" << n << " K=" << k_cols << " block ["
                << b.r0 << "," << b.r1 << ")x[" << b.c0 << "," << b.c1
                << ") skip=" << std::hex << skip;
            // Skipped columns keep their exact input bytes.
            for (index_t r = 0; r < n; ++r) {
              for (index_t k = 0; k < k_cols; ++k) {
                if (((skip >> k) & 1u) == 0) continue;
                const auto at = static_cast<std::size_t>(r * k_cols + k);
                ASSERT_EQ(0, std::memcmp(&got[at], &x0[at], sizeof(double)));
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelsBlocked, SampleApplyAllSkippedReturnsBeforeTouchingPanels) {
  const SampleFactor factor(17);
  for (const index_t k_cols : {index_t{1}, index_t{17}, index_t{64}}) {
    const std::uint64_t all =
        k_cols == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k_cols) - 1;
    // Null panels: any load or store past the early return would fault.
    EXPECT_NO_THROW(sample_apply_packed(factor.view(PackedStorage::F64), 0,
                                        17, 0, 17, nullptr, nullptr, k_cols,
                                        all));
    EXPECT_NO_THROW(sample_apply_packed(dense_factor_view(factor.dense.data(),
                                                          17),
                                        0, 17, 0, 17, nullptr, nullptr,
                                        k_cols, all));
  }
}

TEST(KernelsBlocked, SampleApplyRejectsBadViews) {
  const SampleFactor factor(5);
  std::vector<double> z(5, 1.0), x(5, 0.0);
  PackedFactorView short_view = factor.view(PackedStorage::F32);
  short_view.size_bytes -= 1;
  EXPECT_THROW(sample_apply_packed(short_view, 0, 5, 0, 5, z.data(),
                                   x.data(), 1, 0),
               InvalidArgument);
  PackedFactorView dense_f32 = dense_factor_view(factor.dense.data(), 5);
  dense_f32.storage = PackedStorage::F32;
  EXPECT_THROW(sample_apply_packed(dense_f32, 0, 5, 0, 5, z.data(), x.data(),
                                   1, 0),
               InvalidArgument);
  EXPECT_THROW(sample_apply_packed(factor.view(PackedStorage::F64), 0, 6, 0,
                                   5, z.data(), x.data(), 1, 0),
               InvalidArgument);
}

}  // namespace
