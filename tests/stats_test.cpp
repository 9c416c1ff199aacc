// Tests for stats/: OLS, the Eq. 2 trend model, AR(P), empirical covariance,
// and diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/ar.hpp"
#include "stats/covariance.hpp"
#include "stats/diagnostics.hpp"
#include "linalg/solve.hpp"
#include "stats/ols.hpp"
#include "stats/trend.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::stats;

// ---------- OLS ---------------------------------------------------------------

TEST(Ols, RecoversExactLinearModel) {
  const index_t n = 100;
  linalg::Matrix x(n, 3);
  std::vector<double> y(static_cast<std::size_t>(n));
  common::Rng rng(1);
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    x(i, 2) = rng.normal();
    y[static_cast<std::size_t>(i)] = 2.0 + 3.0 * x(i, 1) - 0.5 * x(i, 2);
  }
  const OlsFit fit = ols(x, y);
  EXPECT_NEAR(fit.beta[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.beta[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.beta[2], -0.5, 1e-9);
  EXPECT_NEAR(fit.sse, 0.0, 1e-12);
}

TEST(Ols, SigmaEstimatesNoise) {
  const index_t n = 20000;
  linalg::Matrix x(n, 2);
  std::vector<double> y(static_cast<std::size_t>(n));
  common::Rng rng(2);
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    y[static_cast<std::size_t>(i)] = 1.0 + x(i, 1) + rng.normal(0.0, 0.7);
  }
  const OlsFit fit = ols(x, y);
  EXPECT_NEAR(fit.sigma, 0.7, 0.02);
}

TEST(Ols, SurvivesCollinearDesign) {
  // Two identical columns: ridge fallback must keep it finite.
  const index_t n = 50;
  linalg::Matrix x(n, 2);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 1.0;
    y[static_cast<std::size_t>(i)] = 2.0;
  }
  const OlsFit fit = ols(x, y);
  EXPECT_TRUE(std::isfinite(fit.beta[0]));
  EXPECT_TRUE(std::isfinite(fit.beta[1]));
  EXPECT_NEAR(fit.beta[0] + fit.beta[1], 2.0, 1e-6);
}

TEST(Ols, RejectsUnderdeterminedSystem) {
  linalg::Matrix x(2, 3);
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(ols(x, y), InvalidArgument);
}

// ---------- trend (Eq. 2) -------------------------------------------------------

TEST(Trend, LaggedForcingRecursionMatchesDirectSum) {
  const std::vector<double> x = {1.0, 2.0, 4.0, 7.0, 11.0};
  const double rho = 0.6;
  const index_t period = 3;
  const auto w = lagged_forcing(x, 15, period, rho);
  // Direct evaluation: W_y = (1-rho) sum_{s>=1} rho^{s-1} x_{y-s} with
  // pre-sample history frozen at x_0.
  for (index_t t = 1; t <= 15; ++t) {
    const index_t year = (t + period - 1) / period;  // 1-based
    double expect = 0.0;
    for (index_t s = 1; s <= 60; ++s) {
      const index_t past = year - s;  // 1-based index of x
      const double xv = past >= 1 ? x[static_cast<std::size_t>(past - 1)] : x[0];
      expect += (1.0 - rho) * std::pow(rho, static_cast<double>(s - 1)) * xv;
    }
    EXPECT_NEAR(w[static_cast<std::size_t>(t - 1)], expect, 1e-9) << t;
  }
}

TEST(Trend, ZeroRhoLagIsPreviousYear) {
  const std::vector<double> x = {3.0, 5.0, 9.0};
  const auto w = lagged_forcing(x, 6, 2, 0.0);
  EXPECT_DOUBLE_EQ(w[0], 3.0);  // year 1: frozen history
  EXPECT_DOUBLE_EQ(w[2], 3.0);  // year 2: x_1
  EXPECT_DOUBLE_EQ(w[4], 5.0);  // year 3: x_2
}

TEST(Trend, RecoversKnownModel) {
  // Generate data exactly from the Eq. 2 family and check parameter recovery.
  const index_t period = 24;
  const index_t years = 12;
  const index_t num_steps = period * years;
  std::vector<double> forcing(static_cast<std::size_t>(years));
  for (index_t y = 0; y < years; ++y) {
    forcing[static_cast<std::size_t>(y)] = 0.5 + 0.3 * static_cast<double>(y);
  }
  TrendModel truth;
  truth.beta0 = 280.0;
  truth.beta1 = 1.5;
  truth.beta2 = 0.8;
  truth.rho = 0.5;
  truth.cos_coeff = {8.0, 1.0};
  truth.sin_coeff = {-3.0, 0.5};
  truth.period = period;
  const auto clean = trend_series(truth, num_steps, forcing);

  common::Rng rng(3);
  std::vector<double> noisy(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    noisy[i] = clean[i] + rng.normal(0.0, 0.2);
  }
  TrendFitConfig cfg;
  cfg.harmonics = 2;
  cfg.period = period;
  const TrendModel fit = fit_trend(noisy, 1, num_steps, forcing, cfg);
  EXPECT_NEAR(fit.rho, 0.5, 0.11);  // grid resolution
  EXPECT_NEAR(fit.cos_coeff[0], 8.0, 0.1);
  EXPECT_NEAR(fit.sin_coeff[0], -3.0, 0.1);
  EXPECT_NEAR(fit.sigma, 0.2, 0.05);
  // Fitted trend must track the truth closely.
  const auto fitted = trend_series(fit, num_steps, forcing);
  double max_err = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    max_err = std::max(max_err, std::abs(fitted[i] - clean[i]));
  }
  EXPECT_LT(max_err, 0.35);
}

TEST(Trend, SharedAcrossEnsembles) {
  const index_t period = 12;
  const index_t num_steps = 60;
  const index_t R = 3;
  std::vector<double> forcing(5, 1.0);
  TrendModel truth;
  truth.beta0 = 10.0;
  truth.cos_coeff = {2.0};
  truth.sin_coeff = {0.0};
  truth.period = period;
  const auto clean = trend_series(truth, num_steps, forcing);
  common::Rng rng(4);
  std::vector<double> stacked(static_cast<std::size_t>(R * num_steps));
  for (index_t r = 0; r < R; ++r) {
    for (index_t t = 0; t < num_steps; ++t) {
      stacked[static_cast<std::size_t>(r * num_steps + t)] =
          clean[static_cast<std::size_t>(t)] + rng.normal(0.0, 0.5);
    }
  }
  TrendFitConfig cfg;
  cfg.harmonics = 1;
  cfg.period = period;
  const TrendModel fit = fit_trend(stacked, R, num_steps, forcing, cfg);
  EXPECT_NEAR(fit.cos_coeff[0], 2.0, 0.15);
  EXPECT_NEAR(fit.sigma, 0.5, 0.1);
}

TEST(Trend, RejectsShortForcing) {
  TrendFitConfig cfg;
  cfg.period = 10;
  std::vector<double> y(100, 0.0);
  std::vector<double> forcing = {1.0};  // 10 years of data, 1 year of forcing
  EXPECT_THROW(fit_trend(y, 1, 100, forcing, cfg), InvalidArgument);
}

TEST(Trend, RejectsBadRho) {
  EXPECT_THROW(lagged_forcing(std::vector<double>{1.0}, 5, 1, 1.0),
               InvalidArgument);
  EXPECT_THROW(lagged_forcing(std::vector<double>{1.0}, 5, 1, -0.1),
               InvalidArgument);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_equal(const TrendModel& a, const TrendModel& b) {
  EXPECT_TRUE(same_bits(a.beta0, b.beta0));
  EXPECT_TRUE(same_bits(a.beta1, b.beta1));
  EXPECT_TRUE(same_bits(a.beta2, b.beta2));
  EXPECT_TRUE(same_bits(a.rho, b.rho));
  EXPECT_TRUE(same_bits(a.sigma, b.sigma));
  EXPECT_EQ(a.period, b.period);
  ASSERT_EQ(a.cos_coeff.size(), b.cos_coeff.size());
  ASSERT_EQ(a.sin_coeff.size(), b.sin_coeff.size());
  for (std::size_t k = 0; k < a.cos_coeff.size(); ++k) {
    EXPECT_TRUE(same_bits(a.cos_coeff[k], b.cos_coeff[k]));
    EXPECT_TRUE(same_bits(a.sin_coeff[k], b.sin_coeff[k]));
  }
}

TEST(Trend, FitterReusedAcrossSeriesMatchesOneShotFit) {
  // One fitter serves every location of a training run; each fit must be
  // bit-equal to the one-shot fit_trend on the same series.
  common::Rng rng(21);
  for (const index_t period : {12, 365}) {
    const index_t num_steps = 3 * period + 5;
    const index_t R = 3;
    std::vector<double> forcing(5);
    for (auto& v : forcing) v = rng.normal(1.0, 0.3);
    TrendFitConfig cfg;
    cfg.harmonics = 3;
    cfg.period = period;
    const TrendFitter fitter(num_steps, forcing, cfg);
    for (int series = 0; series < 6; ++series) {
      std::vector<double> y(static_cast<std::size_t>(R * num_steps));
      for (auto& v : y) v = rng.normal(2.0, 1.5);
      expect_bit_equal(fitter.fit(y, R),
                       fit_trend(y, R, num_steps, forcing, cfg));
    }
  }
}

TEST(Trend, FitterRejectsWrongSeriesLength) {
  TrendFitConfig cfg;
  cfg.period = 12;
  const std::vector<double> forcing(4, 1.0);
  const TrendFitter fitter(36, forcing, cfg);
  EXPECT_THROW(fitter.fit(std::vector<double>(35, 0.0), 1), InvalidArgument);
  EXPECT_THROW(fitter.fit(std::vector<double>(36, 0.0), 0), InvalidArgument);
}

// ---------- AR(P) ---------------------------------------------------------------

TEST(Ar, RecoversAr1Coefficient) {
  common::Rng rng(5);
  const index_t n = 50000;
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 1; t < n; ++t) {
    y[static_cast<std::size_t>(t)] =
        0.7 * y[static_cast<std::size_t>(t - 1)] + rng.normal();
  }
  const ArModel model = fit_ar(y, 1);
  EXPECT_NEAR(model.phi[0], 0.7, 0.02);
  EXPECT_NEAR(model.innovation_variance, 1.0, 0.05);
}

TEST(Ar, RecoversAr3Coefficients) {
  common::Rng rng(6);
  const index_t n = 200000;
  const std::vector<double> phi = {0.5, -0.3, 0.1};
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 3; t < n; ++t) {
    double v = rng.normal(0.0, 0.8);
    for (index_t p = 0; p < 3; ++p) {
      v += phi[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(t - 1 - p)];
    }
    y[static_cast<std::size_t>(t)] = v;
  }
  const ArModel model = fit_ar(y, 3);
  EXPECT_NEAR(model.phi[0], 0.5, 0.02);
  EXPECT_NEAR(model.phi[1], -0.3, 0.02);
  EXPECT_NEAR(model.phi[2], 0.1, 0.02);
  EXPECT_NEAR(model.innovation_variance, 0.64, 0.04);
}

TEST(Ar, EnsembleFitPoolsInformation) {
  common::Rng rng(7);
  const index_t T = 400;
  const index_t R = 16;
  std::vector<double> stacked(static_cast<std::size_t>(R * T), 0.0);
  for (index_t r = 0; r < R; ++r) {
    for (index_t t = 1; t < T; ++t) {
      stacked[static_cast<std::size_t>(r * T + t)] =
          0.6 * stacked[static_cast<std::size_t>(r * T + t - 1)] + rng.normal();
    }
  }
  const ArModel model = fit_ar_ensemble(stacked, R, T, 1);
  EXPECT_NEAR(model.phi[0], 0.6, 0.03);
}

TEST(Ar, ResidualsAreInnovations) {
  common::Rng rng(8);
  const index_t n = 2000;
  std::vector<double> innovations(static_cast<std::size_t>(n));
  for (auto& v : innovations) v = rng.normal();
  ArModel model;
  model.phi = {0.4, 0.2};
  const auto y = ar_simulate(model, innovations);
  const auto resid = ar_residuals(model, y);
  ASSERT_EQ(resid.size(), static_cast<std::size_t>(n - 2));
  for (std::size_t i = 0; i < resid.size(); ++i) {
    EXPECT_NEAR(resid[i], innovations[i + 2], 1e-10);
  }
}

TEST(Ar, RejectsTooShortSeries) {
  std::vector<double> y(5, 1.0);
  EXPECT_THROW(fit_ar(y, 3), InvalidArgument);
}

// ---------- covariance ------------------------------------------------------------

TEST(Covariance, MatchesManualComputation) {
  linalg::Matrix samples(3, 2);
  samples(0, 0) = 1.0;
  samples(0, 1) = 2.0;
  samples(1, 0) = -1.0;
  samples(1, 1) = 0.0;
  samples(2, 0) = 0.0;
  samples(2, 1) = 1.0;
  const linalg::Matrix u = empirical_covariance(samples);
  // U = (1/3) sum x x^T (Eq. 9 is uncentered).
  EXPECT_NEAR(u(0, 0), (1.0 + 1.0 + 0.0) / 3.0, 1e-14);
  EXPECT_NEAR(u(0, 1), (2.0 + 0.0 + 0.0) / 3.0, 1e-14);
  EXPECT_NEAR(u(1, 1), (4.0 + 0.0 + 1.0) / 3.0, 1e-14);
  EXPECT_EQ(u(0, 1), u(1, 0));
}

TEST(Covariance, ParallelMatchesSerial) {
  common::Rng rng(9);
  linalg::Matrix samples(200, 40);
  for (index_t i = 0; i < 200; ++i) {
    for (index_t j = 0; j < 40; ++j) samples(i, j) = rng.normal();
  }
  const auto serial = empirical_covariance(samples);
  const auto parallel = empirical_covariance_parallel(samples, 8);
  for (index_t i = 0; i < 40; ++i) {
    for (index_t j = 0; j < 40; ++j) {
      EXPECT_NEAR(parallel(i, j), serial(i, j), 1e-12);
    }
  }
}

TEST(Covariance, ConvergesToTruth) {
  // Samples from N(0, diag(4, 1)) -> U-hat approaches diag(4, 1).
  common::Rng rng(10);
  const index_t n = 100000;
  linalg::Matrix samples(n, 2);
  for (index_t i = 0; i < n; ++i) {
    samples(i, 0) = rng.normal(0.0, 2.0);
    samples(i, 1) = rng.normal(0.0, 1.0);
  }
  const auto u = empirical_covariance(samples);
  EXPECT_NEAR(u(0, 0), 4.0, 0.08);
  EXPECT_NEAR(u(1, 1), 1.0, 0.03);
  EXPECT_NEAR(u(0, 1), 0.0, 0.05);
}

TEST(Covariance, DeficientSampleGetsJitter) {
  // Fewer samples than dimensions: the paper's R(T-P) < L^2 case.
  common::Rng rng(11);
  linalg::Matrix samples(3, 8);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 8; ++j) samples(i, j) = rng.normal();
  }
  const PreparedCovariance prep = prepare_covariance(samples);
  EXPECT_TRUE(prep.was_deficient);
  EXPECT_GT(prep.jitter, 0.0);
  EXPECT_TRUE(linalg::is_positive_definite(prep.u));
}

TEST(Covariance, FullRankSampleNeedsNoJitter) {
  common::Rng rng(12);
  linalg::Matrix samples(500, 6);
  for (index_t i = 0; i < 500; ++i) {
    for (index_t j = 0; j < 6; ++j) samples(i, j) = rng.normal();
  }
  const PreparedCovariance prep = prepare_covariance(samples);
  EXPECT_FALSE(prep.was_deficient);
  EXPECT_EQ(prep.jitter, 0.0);
}

// Scalar triple-loop oracle for U-hat = (1/N) X^T X.
linalg::Matrix covariance_oracle(const linalg::Matrix& x) {
  const index_t n = x.rows();
  const index_t d = x.cols();
  linalg::Matrix u(d, d);
  for (index_t a = 0; a < d; ++a) {
    for (index_t b = 0; b <= a; ++b) {
      double acc = 0.0;
      for (index_t r = 0; r < n; ++r) acc += x(r, a) * x(r, b);
      u(a, b) = acc / static_cast<double>(n);
      u(b, a) = u(a, b);
    }
  }
  return u;
}

TEST(Covariance, TiledMatchesOracleAtRaggedShapes) {
  // Tile edges (d around 128) and chunk edges (N around 256), including
  // N < d, the paper's rank-deficient regime.
  common::Rng rng(13);
  for (const index_t d : {1, 7, 127, 128, 129, 300}) {
    for (const index_t n : {1, 3, 255, 257, 1000}) {
      linalg::Matrix x(n, d);
      for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j < d; ++j) x(i, j) = rng.normal(0.5, 2.0);
      }
      const linalg::Matrix u = empirical_covariance_parallel(x, 4);
      const linalg::Matrix ref = covariance_oracle(x);
      ASSERT_EQ(u.rows(), d);
      ASSERT_EQ(u.cols(), d);
      for (index_t a = 0; a < d; ++a) {
        for (index_t b = 0; b < d; ++b) {
          // Relative to sqrt(U_aa U_bb), which bounds |U_ab|.
          const double scale = std::sqrt(ref(a, a) * ref(b, b));
          ASSERT_LE(std::abs(u(a, b) - ref(a, b)), 1e-13 * scale)
              << "d=" << d << " n=" << n << " at (" << a << ", " << b << ")";
          ASSERT_TRUE(same_bits(u(a, b), u(b, a)))
              << "d=" << d << " n=" << n << " at (" << a << ", " << b << ")";
        }
      }
    }
  }
}

bool dense_cholesky_verdict(linalg::Matrix a) {
  try {
    linalg::cholesky_dense(a);
    return true;
  } catch (const NumericalError&) {
    return false;
  }
}

linalg::Matrix random_gram(index_t d, index_t n, common::Rng& rng) {
  linalg::Matrix x(n, d);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < d; ++j) x(i, j) = rng.normal();
  }
  return covariance_oracle(x);
}

TEST(Covariance, BlockedPdCheckAgreesWithDenseCholesky) {
  // is_positive_definite runs the blocked POTRF; its verdict must match the
  // scalar dense Cholesky on every class of input it guards.
  common::Rng rng(14);
  std::vector<std::pair<const char*, linalg::Matrix>> fixtures;
  for (const index_t d : {1, 5, 64, 65, 200}) {
    fixtures.emplace_back("spd", random_gram(d, 3 * d + 10, rng));
  }
  {
    linalg::Matrix a = random_gram(150, 500, rng);
    a(149, 149) = -1.0;  // a negative variance
    fixtures.emplace_back("indefinite diagonal", a);
  }
  {
    linalg::Matrix a(180, 180);  // random symmetric: indefinite
    for (index_t i = 0; i < 180; ++i) {
      for (index_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = rng.normal();
    }
    fixtures.emplace_back("indefinite symmetric", a);
  }
  for (const index_t at : {0, 70, 129}) {
    linalg::Matrix a = random_gram(130, 400, rng);
    a(at, at) = std::numeric_limits<double>::quiet_NaN();
    fixtures.emplace_back("nan diagonal", a);
  }
  {
    linalg::Matrix a = random_gram(120, 400, rng);  // a zero-variance field
    for (index_t i = 0; i < 120; ++i) a(90, i) = a(i, 90) = 0.0;
    fixtures.emplace_back("rank deficient: zero row", a);
  }
  {
    linalg::Matrix a(3, 3);  // coordinates 0 and 2 are copies; exact pivots
    a(0, 0) = a(2, 2) = a(0, 2) = a(2, 0) = 4.0;
    a(1, 1) = 1.0;
    fixtures.emplace_back("rank deficient: duplicate", a);
  }
  fixtures.emplace_back("rank deficient: N < d", random_gram(100, 20, rng));
  for (const auto& [name, a] : fixtures) {
    EXPECT_EQ(linalg::is_positive_definite(a), dense_cholesky_verdict(a))
        << name << " d=" << a.rows();
  }
  // The fixtures cover both verdicts.
  EXPECT_TRUE(linalg::is_positive_definite(fixtures.front().second));
  EXPECT_FALSE(linalg::is_positive_definite(fixtures.back().second));
}

// ---------- diagnostics -------------------------------------------------------------

TEST(Diagnostics, BasicMoments) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_NEAR(variance(x), 5.0 / 3.0, 1e-14);
  EXPECT_NEAR(standard_deviation(x), std::sqrt(5.0 / 3.0), 1e-14);
}

TEST(Diagnostics, CovarianceAndCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  const std::vector<double> z = {3.0, 2.0, 1.0};
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
}

TEST(Diagnostics, AutocorrelationOfWhiteAndAr1) {
  common::Rng rng(13);
  const index_t n = 50000;
  std::vector<double> white(static_cast<std::size_t>(n));
  for (auto& v : white) v = rng.normal();
  const auto acf_white = autocorrelation(white, 3);
  EXPECT_DOUBLE_EQ(acf_white[0], 1.0);
  EXPECT_NEAR(acf_white[1], 0.0, 0.02);

  std::vector<double> ar(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 1; t < n; ++t) {
    ar[static_cast<std::size_t>(t)] =
        0.8 * ar[static_cast<std::size_t>(t - 1)] + rng.normal();
  }
  const auto acf_ar = autocorrelation(ar, 2);
  EXPECT_NEAR(acf_ar[1], 0.8, 0.03);
  EXPECT_NEAR(acf_ar[2], 0.64, 0.04);
}

TEST(Diagnostics, KsDistanceDiscriminates) {
  common::Rng rng(14);
  std::vector<double> a(20000);
  std::vector<double> b(20000);
  std::vector<double> c(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();          // same distribution
    c[i] = rng.normal(1.0, 1.0);  // shifted
  }
  EXPECT_LT(ks_distance(a, b), 0.02);
  EXPECT_GT(ks_distance(a, c), 0.3);
}

TEST(Diagnostics, QuantilesAreOrderStatistics) {
  const std::vector<double> x = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 2.0);
}

TEST(Diagnostics, CompareMomentsSummarizes) {
  common::Rng rng(15);
  std::vector<double> a(10000);
  std::vector<double> b(10000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal(5.0, 2.0);
    b[i] = rng.normal(5.0, 2.0);
  }
  const MomentComparison c = compare_moments(a, b);
  EXPECT_NEAR(c.mean_a, c.mean_b, 0.1);
  EXPECT_NEAR(c.sd_a, c.sd_b, 0.1);
  EXPECT_LT(c.ks, 0.03);
}

TEST(Diagnostics, RejectDegenerateInputs) {
  const std::vector<double> empty;
  const std::vector<double> one = {1.0};
  EXPECT_THROW(mean(empty), InvalidArgument);
  EXPECT_THROW(variance(one), InvalidArgument);
  EXPECT_THROW(quantile(empty, 0.5), InvalidArgument);
  const std::vector<double> constant = {2.0, 2.0, 2.0};
  EXPECT_THROW(correlation(constant, constant), InvalidArgument);
}

}  // namespace
