#include "stats/trend.hpp"

#include <cmath>

#include "common/error.hpp"
#include "stats/ols.hpp"

namespace exaclim::stats {

namespace {

/// Year index (1-based) of time step t (1-based): ceil(t / tau).
index_t year_of(index_t t, index_t period) {
  return (t + period - 1) / period;
}

/// Builds the (T x (3 + 2K)) design matrix with every column but the lagged
/// forcing (column 2), which is the only one that depends on rho.
linalg::Matrix build_base_design(std::span<const double> annual_forcing,
                                 index_t num_steps, index_t period,
                                 index_t harmonics) {
  const index_t cols = 3 + 2 * harmonics;
  linalg::Matrix x(num_steps, cols);
  for (index_t t = 1; t <= num_steps; ++t) {
    const index_t row = t - 1;
    const index_t year = year_of(t, period);
    EXACLIM_CHECK(year <= static_cast<index_t>(annual_forcing.size()),
                  "forcing trajectory shorter than the series implies");
    x(row, 0) = 1.0;
    x(row, 1) = annual_forcing[static_cast<std::size_t>(year - 1)];
    for (index_t k = 1; k <= harmonics; ++k) {
      const double angle = kTwoPi * static_cast<double>(t) *
                           static_cast<double>(k) /
                           static_cast<double>(period);
      x(row, 2 + 2 * k - 1) = std::cos(angle);
      x(row, 2 + 2 * k) = std::sin(angle);
    }
  }
  return x;
}

}  // namespace

std::vector<double> lagged_forcing(std::span<const double> annual_forcing,
                                   index_t num_steps, index_t period,
                                   double rho) {
  EXACLIM_CHECK(!annual_forcing.empty(), "forcing trajectory must be non-empty");
  EXACLIM_CHECK(rho >= 0.0 && rho < 1.0, "rho must lie in [0, 1)");
  EXACLIM_CHECK(period >= 1, "period must be >= 1");
  const index_t num_years = year_of(num_steps, period);
  EXACLIM_CHECK(num_years <= static_cast<index_t>(annual_forcing.size()),
                "forcing trajectory shorter than the series implies");
  // W_y = (1 - rho) sum_{s>=1} rho^{s-1} x_{y-s}; with pre-sample history
  // frozen at x_1 this gives W_1 = x_1 and the recursion
  // W_y = rho W_{y-1} + (1 - rho) x_{y-1}.
  std::vector<double> w_year(static_cast<std::size_t>(num_years));
  w_year[0] = annual_forcing[0];
  for (index_t y = 2; y <= num_years; ++y) {
    w_year[static_cast<std::size_t>(y - 1)] =
        rho * w_year[static_cast<std::size_t>(y - 2)] +
        (1.0 - rho) * annual_forcing[static_cast<std::size_t>(y - 2)];
  }
  std::vector<double> out(static_cast<std::size_t>(num_steps));
  for (index_t t = 1; t <= num_steps; ++t) {
    out[static_cast<std::size_t>(t - 1)] =
        w_year[static_cast<std::size_t>(year_of(t, period) - 1)];
  }
  return out;
}

TrendFitter::TrendFitter(index_t num_steps,
                         std::span<const double> annual_forcing,
                         const TrendFitConfig& config)
    : num_steps_(num_steps),
      harmonics_(config.harmonics),
      period_(config.period) {
  EXACLIM_CHECK(num_steps >= 1, "need at least one step");
  std::vector<double> rho_grid = config.rho_grid;
  if (rho_grid.empty()) {
    for (int i = 0; i < 20; ++i) rho_grid.push_back(0.05 * i);
  }
  const linalg::Matrix base =
      build_base_design(annual_forcing, num_steps, period_, harmonics_);
  candidates_.reserve(rho_grid.size());
  for (double rho : rho_grid) {
    Candidate c{rho, base, {}};
    const std::vector<double> lagged =
        lagged_forcing(annual_forcing, num_steps, period_, rho);
    for (index_t row = 0; row < num_steps; ++row) {
      c.design(row, 2) = lagged[static_cast<std::size_t>(row)];
    }
    c.gram_factor = ols_gram_factor(c.design);
    candidates_.push_back(std::move(c));
  }
}

TrendModel TrendFitter::fit(std::span<const double> y,
                            index_t num_ensembles) const {
  EXACLIM_CHECK(num_ensembles >= 1, "need at least one ensemble");
  EXACLIM_CHECK(static_cast<index_t>(y.size()) == num_ensembles * num_steps_,
                "series length must be R * T");
  // The regressors are shared across ensembles, so the OLS estimate on the
  // stacked series equals the one on the ensemble-mean series; the SSE for
  // model selection and sigma is still taken over every ensemble.
  std::vector<double> ymean(static_cast<std::size_t>(num_steps_), 0.0);
  for (index_t r = 0; r < num_ensembles; ++r) {
    for (index_t t = 0; t < num_steps_; ++t) {
      ymean[static_cast<std::size_t>(t)] +=
          y[static_cast<std::size_t>(r * num_steps_ + t)];
    }
  }
  for (auto& v : ymean) v /= static_cast<double>(num_ensembles);

  TrendModel best;
  double best_sse = -1.0;
  for (const Candidate& c : candidates_) {
    const std::vector<double> beta =
        ols_coefficients(c.design, c.gram_factor, ymean);
    double sse = 0.0;
    for (index_t t = 0; t < num_steps_; ++t) {
      double pred = 0.0;
      const auto row = c.design.row(t);
      for (std::size_t a = 0; a < beta.size(); ++a) pred += row[a] * beta[a];
      for (index_t r = 0; r < num_ensembles; ++r) {
        const double resid =
            y[static_cast<std::size_t>(r * num_steps_ + t)] - pred;
        sse += resid * resid;
      }
    }
    if (best_sse < 0.0 || sse < best_sse) {
      best_sse = sse;
      best.beta0 = beta[0];
      best.beta1 = beta[1];
      best.beta2 = beta[2];
      best.rho = c.rho;
      best.cos_coeff.assign(static_cast<std::size_t>(harmonics_), 0.0);
      best.sin_coeff.assign(static_cast<std::size_t>(harmonics_), 0.0);
      for (index_t k = 1; k <= harmonics_; ++k) {
        best.cos_coeff[static_cast<std::size_t>(k - 1)] =
            beta[static_cast<std::size_t>(2 + 2 * k - 1)];
        best.sin_coeff[static_cast<std::size_t>(k - 1)] =
            beta[static_cast<std::size_t>(2 + 2 * k)];
      }
      best.period = period_;
      const double dof = static_cast<double>(num_ensembles * num_steps_) -
                         static_cast<double>(3 + 2 * harmonics_);
      best.sigma = std::sqrt(sse / (dof > 0.0 ? dof : 1.0));
    }
  }
  // A flat series can produce sigma == 0, which would make the stochastic
  // rescale degenerate; clamp to a tiny floor.
  if (best.sigma <= 0.0) best.sigma = 1e-12;
  return best;
}

TrendModel fit_trend(std::span<const double> y, index_t num_ensembles,
                     index_t num_steps,
                     std::span<const double> annual_forcing,
                     const TrendFitConfig& config) {
  return TrendFitter(num_steps, annual_forcing, config).fit(y, num_ensembles);
}

std::vector<double> trend_series(const TrendModel& model, index_t num_steps,
                                 std::span<const double> annual_forcing) {
  const std::vector<double> lagged =
      lagged_forcing(annual_forcing, num_steps, model.period, model.rho);
  std::vector<double> out(static_cast<std::size_t>(num_steps));
  for (index_t t = 1; t <= num_steps; ++t) {
    const index_t year = year_of(t, model.period);
    double v = model.beta0 +
               model.beta1 *
                   annual_forcing[static_cast<std::size_t>(year - 1)] +
               model.beta2 * lagged[static_cast<std::size_t>(t - 1)];
    for (std::size_t k = 1; k <= model.cos_coeff.size(); ++k) {
      const double angle = kTwoPi * static_cast<double>(t) *
                           static_cast<double>(k) /
                           static_cast<double>(model.period);
      v += model.cos_coeff[k - 1] * std::cos(angle) +
           model.sin_coeff[k - 1] * std::sin(angle);
    }
    out[static_cast<std::size_t>(t - 1)] = v;
  }
  return out;
}

}  // namespace exaclim::stats
