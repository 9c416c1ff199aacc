#include "linalg/solve.hpp"

#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace exaclim::linalg {

std::vector<double> sample_mvn(const Matrix& chol_factor, common::Rng& rng) {
  EXACLIM_CHECK(chol_factor.rows() == chol_factor.cols(),
                "Cholesky factor must be square");
  const index_t n = chol_factor.rows();
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.normal();
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (index_t j = 0; j <= i; ++j) {
      acc += chol_factor(i, j) * z[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] = acc;
  }
  return x;
}

void add_diagonal_jitter(Matrix& a, double eps) {
  EXACLIM_CHECK(a.rows() == a.cols(), "matrix must be square");
  for (index_t i = 0; i < a.rows(); ++i) a(i, i) += eps;
}

bool is_positive_definite(const Matrix& a) {
  EXACLIM_CHECK(a.rows() == a.cols(), "matrix must be square");
  Matrix copy = a;
  bool pd = true;
  try {
    potrf_lower_f64(copy.data(), copy.rows());
  } catch (const NumericalError&) {
    pd = false;
  }
  // A d x d factorization grows this thread's pack buffers far beyond what
  // tile-sized kernels need; do not keep them resident after a one-off check.
  release_thread_scratch();
  return pd;
}

double ensure_positive_definite(Matrix& a, double base, int max_tries) {
  EXACLIM_CHECK(base > 0.0, "jitter base must be positive");
  if (is_positive_definite(a)) return 0.0;
  double jitter = base;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    Matrix trial = a;
    add_diagonal_jitter(trial, jitter);
    if (is_positive_definite(trial)) {
      add_diagonal_jitter(a, jitter);
      return jitter;
    }
    jitter *= 10.0;
  }
  throw NumericalError("could not reach positive definiteness with jitter");
}

}  // namespace exaclim::linalg
