// Empirical covariance of VAR innovations (Eq. 9) and PD repair.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace exaclim::stats {

/// U-hat = (1 / N) sum_n xi_n xi_n^T over N sample vectors of dimension d
/// (Eq. 9 with N = R (T - P)). Samples are rows of `samples` (N x d).
linalg::Matrix empirical_covariance(const linalg::Matrix& samples);

/// Same, as a tiled SYRK on the packed BLAS3 engine (the O(L^4 T) step of
/// the paper's training pipeline): one task per 128 x 128 lower-triangle
/// output tile, each walking the samples in fixed 256-row chunks that it
/// transposes into per-tile scratch before a SYRK (diagonal tiles) or GEMM
/// (off-diagonal tiles) update. No transposed copy of `samples` is made, the
/// result is exactly symmetric, and its bits do not depend on `threads`
/// (0 = the worker team's width).
linalg::Matrix empirical_covariance_parallel(const linalg::Matrix& samples,
                                             unsigned threads = 0);

/// Result of the covariance preparation step.
struct PreparedCovariance {
  linalg::Matrix u;        ///< (possibly jittered) covariance
  double jitter = 0.0;     ///< diagonal perturbation applied
  bool was_deficient = false;  ///< true iff N < d (paper's R(T-P) < L^2 case)
  /// max(diag) / min(diag) of the raw empirical covariance — a cheap
  /// condition proxy recorded before any jitter; +inf when min(diag) <= 0.
  double diag_condition = 0.0;
};

/// Builds U-hat and, when the sample count is below the dimension (or the
/// matrix is otherwise numerically indefinite), applies the paper's "minor
/// perturbation along the diagonal".
///
/// Pre-checks run before any tile is built from the result: a non-finite
/// entry or a non-positive diagonal in the raw empirical covariance throws
/// NumericalError naming the offending (row, col) — malformed input fails
/// here, structurally, instead of deep inside the factorization DAG.
/// `threads` bounds every parallel step (0 = the worker team's width); the
/// result is the same at any value.
PreparedCovariance prepare_covariance(const linalg::Matrix& samples,
                                      double jitter_base = 1e-10,
                                      unsigned threads = 0);

}  // namespace exaclim::stats
