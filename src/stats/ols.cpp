#include "stats/ols.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/solve.hpp"

namespace exaclim::stats {

linalg::Matrix ols_gram_factor(const linalg::Matrix& x) {
  const index_t n = x.rows();
  const index_t p = x.cols();
  EXACLIM_CHECK(n > p, "need more observations than parameters");
  linalg::Matrix xtx(p, p);
  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (index_t a = 0; a < p; ++a) {
      for (index_t b = a; b < p; ++b) {
        xtx(a, b) += row[static_cast<std::size_t>(a)] * row[static_cast<std::size_t>(b)];
      }
    }
  }
  for (index_t a = 0; a < p; ++a) {
    for (index_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);
  }
  // Tiny ridge for near-collinear designs (e.g. constant forcing).
  double trace = 0.0;
  for (index_t a = 0; a < p; ++a) trace += xtx(a, a);
  linalg::add_diagonal_jitter(xtx, 1e-12 * (trace > 0.0 ? trace : 1.0));
  linalg::cholesky_dense(xtx);
  return xtx;
}

std::vector<double> ols_coefficients(const linalg::Matrix& x,
                                     const linalg::Matrix& gram_factor,
                                     std::span<const double> y) {
  const index_t n = x.rows();
  const index_t p = x.cols();
  EXACLIM_CHECK(n == static_cast<index_t>(y.size()),
                "design matrix rows must match observation count");
  std::vector<double> xty(static_cast<std::size_t>(p), 0.0);
  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    const double yr = y[static_cast<std::size_t>(r)];
    for (index_t a = 0; a < p; ++a) {
      xty[static_cast<std::size_t>(a)] += row[static_cast<std::size_t>(a)] * yr;
    }
  }
  const auto fwd = linalg::forward_substitute(gram_factor, xty);
  return linalg::backward_substitute(gram_factor, fwd);
}

OlsFit ols(const linalg::Matrix& x, std::span<const double> y) {
  const index_t n = x.rows();
  const index_t p = x.cols();
  // Normal equations: (X^T X) beta = X^T y.
  OlsFit fit;
  fit.beta = ols_coefficients(x, ols_gram_factor(x), y);

  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    double pred = 0.0;
    for (index_t a = 0; a < p; ++a) {
      pred += row[static_cast<std::size_t>(a)] * fit.beta[static_cast<std::size_t>(a)];
    }
    const double resid = y[static_cast<std::size_t>(r)] - pred;
    fit.sse += resid * resid;
  }
  const index_t dof = n - p;
  fit.sigma = std::sqrt(fit.sse / static_cast<double>(dof > 0 ? dof : 1));
  return fit;
}

}  // namespace exaclim::stats
