// Sampling and positive-definiteness helpers built on the Cholesky factor.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::linalg {

/// Draws x ~ N(0, L L^T) given the lower Cholesky factor L: x = L z with
/// z ~ N(0, I).
std::vector<double> sample_mvn(const Matrix& chol_factor, common::Rng& rng);

/// Adds eps to the diagonal in place (the paper's "minor perturbation along
/// the diagonal" when R(T - P) < L^2 makes the empirical covariance rank
/// deficient).
void add_diagonal_jitter(Matrix& a, double eps);

/// True if `a` (symmetric) is positive definite: attempts the blocked
/// POTRF (`potrf_lower_f64`) on a copy. The single FP64 positive-
/// definiteness authority; a NaN or non-positive pivot means "no".
bool is_positive_definite(const Matrix& a);

/// Smallest jitter from {0, base, 10*base, ...} that makes a + jitter*I
/// positive definite; applies it in place and returns the jitter used.
/// Throws NumericalError if max_tries escalations all fail.
double ensure_positive_definite(Matrix& a, double base = 1e-10,
                                int max_tries = 12);

}  // namespace exaclim::linalg
