// Ordinary least squares via normal equations.
//
// Used by the per-location trend fit (Eq. 2 is linear once rho is fixed) and
// the per-coefficient AR(P) fit. Design matrices here are tall and skinny
// (T x ~13), so normal equations + dense Cholesky are both fast and accurate.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace exaclim::stats {

struct OlsFit {
  std::vector<double> beta;   ///< coefficient estimates
  double sse = 0.0;           ///< sum of squared residuals
  double sigma = 0.0;         ///< residual standard deviation (dof-corrected)
};

/// Fits y ~ X beta. Rank deficiency is handled with a tiny ridge on the
/// normal equations (the fit is used inside a profile search, so graceful
/// degradation beats hard failure).
OlsFit ols(const linalg::Matrix& x, std::span<const double> y);

/// The design-only half of ols(): the lower Cholesky factor of the ridge-
/// regularized normal matrix X^T X + 1e-12 tr(X^T X) I. A caller that fits
/// many series against one design factors it once.
linalg::Matrix ols_gram_factor(const linalg::Matrix& x);

/// The series half of ols(): beta solving (X^T X) beta = X^T y with the
/// design's ols_gram_factor. Bit-identical to ols(x, y).beta.
std::vector<double> ols_coefficients(const linalg::Matrix& x,
                                     const linalg::Matrix& gram_factor,
                                     std::span<const double> y);

}  // namespace exaclim::stats
