#include "stats/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "linalg/kernels.hpp"
#include "linalg/solve.hpp"

namespace exaclim::stats {

namespace {

// Output tile width and sample-chunk depth of the covariance product. The
// chunk matches the packed engine's default KC, so each chunk is a single
// k-panel of the GEMM/SYRK kernels.
constexpr index_t kCovTile = 128;
constexpr index_t kCovChunk = 256;

// dst (cols x kb, row-major) = samples[k0 : k0 + kb, c0 : c0 + cols]^T.
// Walks 8 x 8 blocks so both the reads and the writes stay in a few cache
// lines at a time.
void transpose_block(const linalg::Matrix& samples, index_t k0, index_t kb,
                     index_t c0, index_t cols, double* dst) {
  constexpr index_t kB = 8;
  for (index_t rb = 0; rb < kb; rb += kB) {
    const index_t rend = std::min(rb + kB, kb);
    for (index_t jb = 0; jb < cols; jb += kB) {
      const index_t jend = std::min(jb + kB, cols);
      for (index_t r = rb; r < rend; ++r) {
        const double* src = samples.row(k0 + r).data() + c0;
        for (index_t j = jb; j < jend; ++j) dst[j * kb + r] = src[j];
      }
    }
  }
}

// Location of the first (row-major) non-finite entry, or row = -1 if clean.
struct BadEntry {
  index_t row = -1;
  index_t col = -1;
  double value = 0.0;
};

// Deterministic scan of the full matrix for NaN/Inf: chunk-stable reduce
// over rows, keeping the lexicographically first offender so the error
// message is identical at any thread count.
BadEntry first_non_finite(const linalg::Matrix& m, unsigned threads) {
  return common::parallel_reduce(
      0, m.rows(), BadEntry{},
      [&](BadEntry& acc, index_t i) {
        if (acc.row >= 0) return;
        for (index_t j = 0; j < m.cols(); ++j) {
          if (!std::isfinite(m(i, j))) {
            acc = BadEntry{i, j, m(i, j)};
            return;
          }
        }
      },
      [](BadEntry& into, BadEntry&& from) {
        if (into.row < 0) into = from;
      },
      threads);
}

}  // namespace

linalg::Matrix empirical_covariance(const linalg::Matrix& samples) {
  return empirical_covariance_parallel(samples, 1);
}

linalg::Matrix empirical_covariance_parallel(const linalg::Matrix& samples,
                                             unsigned threads) {
  const index_t n = samples.rows();
  const index_t d = samples.cols();
  EXACLIM_CHECK(n >= 1, "need at least one sample");
  linalg::Matrix u(d, d);
  const index_t nt = (d + kCovTile - 1) / kCovTile;
  const double inv_n = 1.0 / static_cast<double>(n);
  // One task per lower-triangle output tile (ti >= tj), row-major order.
  common::parallel_for(
      0, nt * (nt + 1) / 2,
      [&](index_t t) {
        index_t ti = 0;
        while ((ti + 1) * (ti + 2) / 2 <= t) ++ti;
        const index_t tj = t - ti * (ti + 1) / 2;
        const index_t i0 = ti * kCovTile;
        const index_t j0 = tj * kCovTile;
        const index_t mi = std::min(kCovTile, d - i0);
        const index_t mj = std::min(kCovTile, d - j0);
        const bool diag = ti == tj;
        // Scratch for this tile only: the two transposed column blocks of
        // one k-chunk and the tile accumulator.
        std::vector<double> a(static_cast<std::size_t>(mi * kCovChunk));
        std::vector<double> b(
            diag ? 0 : static_cast<std::size_t>(mj * kCovChunk));
        std::vector<double> c(static_cast<std::size_t>(mi * mj), 0.0);
        // Fixed ascending k-chunks: the accumulation order is a function of
        // (N, d) alone, so every thread count produces the same bits.
        for (index_t k0 = 0; k0 < n; k0 += kCovChunk) {
          const index_t kb = std::min(kCovChunk, n - k0);
          transpose_block(samples, k0, kb, i0, mi, a.data());
          if (diag) {
            linalg::syrk_ln_minus_f64(a.data(), c.data(), mi, kb);
          } else {
            transpose_block(samples, k0, kb, j0, mj, b.data());
            linalg::gemm_nt_minus_f64(a.data(), b.data(), c.data(), mi, mj,
                                      kb);
          }
        }
        // c holds -sum xi xi^T; only the lower triangle of a diagonal tile
        // is computed, and each value is mirrored so u is exactly symmetric.
        for (index_t i = 0; i < mi; ++i) {
          const index_t jend = diag ? i + 1 : mj;
          for (index_t j = 0; j < jend; ++j) {
            const double v = -c[static_cast<std::size_t>(i * mj + j)] * inv_n;
            u(i0 + i, j0 + j) = v;
            u(j0 + j, i0 + i) = v;
          }
        }
      },
      threads == 0 ? common::default_thread_count() : threads);
  return u;
}

PreparedCovariance prepare_covariance(const linalg::Matrix& samples,
                                      double jitter_base, unsigned threads) {
  if (threads == 0) threads = common::default_thread_count();
  PreparedCovariance out;
  out.u = empirical_covariance_parallel(samples, threads);
  out.was_deficient = samples.rows() < samples.cols();

  // SPD pre-checks before any tile is built: fail here with coordinates, not
  // three levels down in a POTRF task.
  const BadEntry bad = first_non_finite(out.u, threads);
  if (bad.row >= 0) {
    std::ostringstream os;
    os << "empirical covariance has non-finite entry " << bad.value << " at ("
       << bad.row << ", " << bad.col
       << ") — input contains NaN/Inf or overflowed; validate the dataset";
    throw NumericalError(os.str());
  }
  struct DiagStats {
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    index_t min_at = -1;
  };
  const DiagStats diag = common::parallel_reduce(
      0, out.u.rows(), DiagStats{},
      [&](DiagStats& acc, index_t i) {
        const double v = out.u(i, i);
        if (v < acc.min) {
          acc.min = v;
          acc.min_at = i;
        }
        if (v > acc.max) acc.max = v;
      },
      [](DiagStats& into, DiagStats&& from) {
        if (from.min < into.min) {
          into.min = from.min;
          into.min_at = from.min_at;
        }
        if (from.max > into.max) into.max = from.max;
      },
      threads);
  if (out.u.rows() > 0 && diag.min <= 0.0) {
    std::ostringstream os;
    os << "empirical covariance diagonal is non-positive: u(" << diag.min_at
       << ", " << diag.min_at << ") = " << diag.min
       << " — a variance cannot be <= 0; check for constant or quarantined-"
          "to-death input fields";
    throw NumericalError(os.str());
  }
  out.diag_condition =
      out.u.rows() > 0 && diag.min > 0.0
          ? diag.max / diag.min
          : std::numeric_limits<double>::infinity();

  // Scale the jitter to the average diagonal so it is "minor" in the paper's
  // sense regardless of the data's units.
  double mean_diag = 0.0;
  for (index_t i = 0; i < out.u.rows(); ++i) mean_diag += out.u(i, i);
  mean_diag /= static_cast<double>(out.u.rows() > 0 ? out.u.rows() : 1);
  const double base = jitter_base * (mean_diag > 0.0 ? mean_diag : 1.0);
  if (out.was_deficient) {
    // Rank-deficient by construction: jitter unconditionally.
    linalg::add_diagonal_jitter(out.u, base);
    out.jitter = base;
  }
  out.jitter += linalg::ensure_positive_definite(out.u, base);
  return out;
}

}  // namespace exaclim::stats
