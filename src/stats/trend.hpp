// Per-location deterministic mean model (Eq. 2 of the paper):
//
//   m_t = beta0 + beta1 * x_{ceil(t/tau)}
//         + beta2 * (1 - rho) * sum_{s>=1} rho^{s-1} x_{ceil(t/tau)-s}
//         + sum_{k=1..K} [ a_k cos(2 pi t k / tau) + b_k sin(2 pi t k / tau) ]
//
// x is the annual radiative-forcing trajectory; tau is the number of time
// steps per year (8760 hourly, 365 daily, 12 monthly); the geometric lag
// weights let past forcing decay with memory parameter rho in [0, 1).
//
// Estimation follows the paper's 1D-MLE-per-location scheme: for fixed rho
// the model is linear, so we profile rho over a grid and solve OLS for each
// candidate — O(T) per location per grid point. Gaussian errors make the
// profiled OLS solution the MLE.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::stats {

/// Fitted mean-trend model for one spatial location.
struct TrendModel {
  double beta0 = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double rho = 0.0;
  std::vector<double> cos_coeff;  ///< a_k, k = 1..K
  std::vector<double> sin_coeff;  ///< b_k, k = 1..K
  double sigma = 1.0;             ///< residual scale sigma(theta, phi)
  index_t period = 1;             ///< tau
};

struct TrendFitConfig {
  index_t harmonics = 5;  ///< K (paper uses K = 5)
  index_t period = 365;   ///< tau
  /// Profile grid for rho; defaults to {0, 0.05, ..., 0.95}.
  std::vector<double> rho_grid;
};

/// Geometric distributed-lag regressor w_t(rho) for every t in [1, T]:
/// (1 - rho) * sum_{s>=1} rho^{s-1} x_{year(t)-s}, with the pre-sample
/// history frozen at x_1.
std::vector<double> lagged_forcing(std::span<const double> annual_forcing,
                                   index_t num_steps, index_t period,
                                   double rho);

/// The per-location trend fit with everything that depends only on the time
/// axis hoisted out of the location loop: for every rho on the profile grid,
/// the T x (3 + 2K) design matrix and the Cholesky factor of its ridge-
/// regularized Gram matrix. Built once per training run; fit() then costs
/// X^T ybar, two triangular solves and the ensemble SSE per rho. fit() is
/// const, so one fitter serves every worker thread.
class TrendFitter {
 public:
  TrendFitter(index_t num_steps, std::span<const double> annual_forcing,
              const TrendFitConfig& config);

  /// Fits the trend to R stacked ensemble series (layout: r-major, each of
  /// length T; mean parameters are shared across ensembles per the paper).
  TrendModel fit(std::span<const double> y, index_t num_ensembles) const;

 private:
  struct Candidate {
    double rho = 0.0;
    linalg::Matrix design;
    linalg::Matrix gram_factor;
  };
  index_t num_steps_;
  index_t harmonics_;
  index_t period_;
  std::vector<Candidate> candidates_;
};

/// One-shot form of TrendFitter(num_steps, annual_forcing, config).fit(y, R).
TrendModel fit_trend(std::span<const double> y, index_t num_ensembles,
                     index_t num_steps,
                     std::span<const double> annual_forcing,
                     const TrendFitConfig& config);

/// Evaluates m_t for t = 1..T.
std::vector<double> trend_series(const TrendModel& model, index_t num_steps,
                                 std::span<const double> annual_forcing);

}  // namespace exaclim::stats
