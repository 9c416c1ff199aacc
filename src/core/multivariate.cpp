#include "core/multivariate.hpp"

#include <cmath>

#include "climate/validate.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/emulator.hpp"
#include "core/var_forward.hpp"
#include "sht/packing.hpp"
#include "stats/covariance.hpp"

namespace exaclim::core {

MultiVariateEmulator::MultiVariateEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  EXACLIM_CHECK(config_.band_limit >= 4, "band limit must be >= 4");
  EXACLIM_CHECK(config_.ar_order >= 1, "AR order must be >= 1");
}

MultiVarTrainReport MultiVariateEmulator::train(
    const std::vector<const climate::ClimateDataset*>& variables,
    std::span<const double> annual_forcing) {
  EXACLIM_CHECK(variables.size() >= 1, "need at least one variable");
  const index_t num_vars = static_cast<index_t>(variables.size());
  const climate::ClimateDataset& first = *variables.front();
  for (const auto* v : variables) {
    EXACLIM_CHECK(v != nullptr, "null dataset");
    EXACLIM_CHECK(v->grid().nlat == first.grid().nlat &&
                      v->grid().nlon == first.grid().nlon &&
                      v->num_steps() == first.num_steps() &&
                      v->num_ensembles() == first.num_ensembles() &&
                      v->steps_per_year() == first.steps_per_year(),
                  "variables must share grid/time/ensemble layout");
  }
  const index_t L = config_.band_limit;
  const index_t T = first.num_steps();
  const index_t R = first.num_ensembles();
  const index_t P = config_.ar_order;
  const index_t num_points = first.grid().num_points();
  const index_t n_coeff = sh_coeff_count(L);
  const index_t joint_dim = num_vars * n_coeff;
  EXACLIM_CHECK(T > 2 * P, "too few time steps for the AR order");

  MultiVarTrainReport report;
  common::Timer total;
  grid_ = first.grid();
  num_variables_ = num_vars;
  plan_ = std::make_shared<const sht::SHTPlan>(L, grid_);

  // Input screening per variable (see emulator.cpp). Quarantine imputes into
  // private copies; the caller's datasets are never mutated.
  std::vector<climate::ClimateDataset> repaired;
  std::vector<const climate::ClimateDataset*> sources = variables;
  if (config_.validate_input) {
    climate::ValidationOptions vopts;
    vopts.min_value = config_.valid_min;
    vopts.max_value = config_.valid_max;
    vopts.quarantine = config_.quarantine;
    if (config_.quarantine) {
      repaired.reserve(variables.size());
      for (std::size_t v = 0; v < variables.size(); ++v) {
        repaired.push_back(*variables[v]);
      }
      for (std::size_t v = 0; v < repaired.size(); ++v) {
        const auto vsum = climate::validate_dataset(repaired[v], vopts);
        report.validation_flagged += static_cast<index_t>(vsum.flagged());
        report.validation_quarantined +=
            static_cast<index_t>(vsum.quarantined);
        sources[v] = &repaired[v];
      }
    } else {
      for (const auto* v : variables) {
        const auto vsum = climate::validate_dataset(*v, vopts);
        report.validation_flagged += static_cast<index_t>(vsum.flagged());
      }
    }
  }

  // Per-variable trend/scale and standardized-coefficient extraction,
  // written into the joint (R*T) x (V*L^2) matrix.
  trend_.assign(static_cast<std::size_t>(num_vars), {});
  nugget_var_.assign(static_cast<std::size_t>(num_vars), {});
  linalg::Matrix f(R * T, joint_dim);
  const unsigned threads =
      config_.threads == 0 ? common::default_thread_count() : config_.threads;
  const stats::TrendFitter trend_fitter(T, annual_forcing,
                                        config_.trend_config());

  for (index_t v = 0; v < num_vars; ++v) {
    const climate::ClimateDataset& data = *sources[static_cast<std::size_t>(v)];
    auto& var_trend = trend_[static_cast<std::size_t>(v)];
    var_trend.assign(static_cast<std::size_t>(num_points), stats::TrendModel{});
    common::parallel_for(
        0, num_points,
        [&](index_t p) {
          std::vector<double> y(static_cast<std::size_t>(R * T));
          for (index_t r = 0; r < R; ++r) {
            for (index_t t = 0; t < T; ++t) {
              y[static_cast<std::size_t>(r * T + t)] =
                  data.field(r, t)[static_cast<std::size_t>(p)];
            }
          }
          var_trend[static_cast<std::size_t>(p)] = trend_fitter.fit(y, R);
        },
        threads);

    std::vector<std::vector<double>> trend_series_per_point(
        static_cast<std::size_t>(num_points));
    common::parallel_for(
        0, num_points,
        [&](index_t p) {
          trend_series_per_point[static_cast<std::size_t>(p)] =
              stats::trend_series(var_trend[static_cast<std::size_t>(p)], T,
                                  annual_forcing);
        },
        threads);

    auto& nug = nugget_var_[static_cast<std::size_t>(v)];
    // Deterministic reduction (see emulator.cpp): fixed chunking and ordered
    // combine keep the nugget section bit-identical across --threads.
    nug = common::parallel_reduce(
        0, R * T,
        std::vector<double>(static_cast<std::size_t>(num_points), 0.0),
        [&](std::vector<double>& acc, index_t rt) {
          const index_t r = rt / T;
          const index_t t = rt % T;
          const auto obs = data.field(r, t);
          std::vector<double> z(static_cast<std::size_t>(num_points));
          for (index_t p = 0; p < num_points; ++p) {
            z[static_cast<std::size_t>(p)] =
                (obs[static_cast<std::size_t>(p)] -
                 trend_series_per_point[static_cast<std::size_t>(p)]
                                       [static_cast<std::size_t>(t)]) /
                var_trend[static_cast<std::size_t>(p)].sigma;
          }
          const auto coeffs = plan_->analyze(z);
          const auto packed = sht::pack_real(L, coeffs);
          std::copy(packed.begin(), packed.end(),
                    f.data() + static_cast<std::size_t>(rt) *
                                   static_cast<std::size_t>(joint_dim) +
                        static_cast<std::size_t>(v * n_coeff));
          const auto back = plan_->synthesize(coeffs);
          for (index_t p = 0; p < num_points; ++p) {
            const double e = z[static_cast<std::size_t>(p)] -
                             back[static_cast<std::size_t>(p)];
            acc[static_cast<std::size_t>(p)] += e * e;
          }
        },
        [num_points](std::vector<double>& into, std::vector<double>&& from) {
          for (index_t p = 0; p < num_points; ++p) {
            into[static_cast<std::size_t>(p)] +=
                from[static_cast<std::size_t>(p)];
          }
        },
        threads);
    for (auto& value : nug) value /= static_cast<double>(R * T);
  }

  // Diagonal VAR(P) per joint coordinate.
  ar_.assign(static_cast<std::size_t>(joint_dim), stats::ArModel{});
  common::parallel_for(
      0, joint_dim,
      [&](index_t c) {
        std::vector<double> series(static_cast<std::size_t>(R * T));
        for (index_t rt = 0; rt < R * T; ++rt) {
          series[static_cast<std::size_t>(rt)] = f(rt, c);
        }
        ar_[static_cast<std::size_t>(c)] =
            stats::fit_ar_ensemble(series, R, T, P);
      },
      threads);

  // Joint innovation covariance across all variables' coefficients.
  const index_t n_samples = R * (T - P);
  linalg::Matrix xi(n_samples, joint_dim);
  common::parallel_for(
      0, joint_dim,
      [&](index_t c) {
        index_t row = 0;
        const auto& phi = ar_[static_cast<std::size_t>(c)].phi;
        for (index_t r = 0; r < R; ++r) {
          for (index_t t = P; t < T; ++t) {
            double pred = 0.0;
            for (index_t a = 0; a < P; ++a) {
              pred +=
                  phi[static_cast<std::size_t>(a)] * f(r * T + t - 1 - a, c);
            }
            xi(row, c) = f(r * T + t, c) - pred;
            ++row;
          }
        }
      },
      threads);
  stats::PreparedCovariance prepared =
      stats::prepare_covariance(xi, config_.jitter_base, threads);
  report.covariance_jitter = prepared.jitter;
  report.covariance_deficient = prepared.was_deficient;
  report.innovation_samples = n_samples;
  report.joint_dimension = joint_dim;

  // Correlation matrix kept for cross-variable diagnostics.
  innovation_corr_ = prepared.u;
  for (index_t i = 0; i < joint_dim; ++i) {
    for (index_t j = 0; j < joint_dim; ++j) {
      const double d = std::sqrt(prepared.u(i, i) * prepared.u(j, j));
      innovation_corr_(i, j) = d > 0.0 ? prepared.u(i, j) / d : 0.0;
    }
  }

  factor_ = factor_covariance(prepared.u, config_);

  trained_ = true;
  report.total_seconds = total.seconds();
  return report;
}

double MultiVariateEmulator::innovation_cross_correlation(index_t a,
                                                          index_t b) const {
  EXACLIM_CHECK(trained_, "emulator has not been trained");
  EXACLIM_CHECK(a >= 0 && a < num_variables_ && b >= 0 && b < num_variables_,
                "variable index out of range");
  const index_t n_coeff = sh_coeff_count(config_.band_limit);
  double acc = 0.0;
  for (index_t i = 0; i < n_coeff; ++i) {
    acc += std::abs(innovation_corr_(a * n_coeff + i, b * n_coeff + i));
  }
  return acc / static_cast<double>(n_coeff);
}

std::vector<climate::ClimateDataset> MultiVariateEmulator::emulate(
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) const {
  EXACLIM_CHECK(trained_, "emulator has not been trained");
  EXACLIM_CHECK(num_steps >= 1 && num_ensembles >= 1,
                "need at least one step and one ensemble");
  const index_t L = config_.band_limit;
  const index_t n_coeff = sh_coeff_count(L);
  const index_t num_points = grid_.num_points();
  const index_t tau = config_.steps_per_year;
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    (num_steps + tau - 1) / tau,
                "forcing trajectory shorter than requested emulation");
  const unsigned threads =
      config_.threads == 0 ? common::default_thread_count() : config_.threads;

  std::vector<climate::ClimateDataset> out;
  out.reserve(static_cast<std::size_t>(num_variables_));
  for (index_t v = 0; v < num_variables_; ++v) {
    out.emplace_back(grid_, num_steps, num_ensembles, tau);
  }

  // Per-variable trend series (shared across ensembles).
  std::vector<std::vector<std::vector<double>>> trend_series(
      static_cast<std::size_t>(num_variables_));
  for (index_t v = 0; v < num_variables_; ++v) {
    auto& per_point = trend_series[static_cast<std::size_t>(v)];
    per_point.resize(static_cast<std::size_t>(num_points));
    common::parallel_for(
        0, num_points,
        [&](index_t p) {
          per_point[static_cast<std::size_t>(p)] = stats::trend_series(
              trend_[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)],
              num_steps, annual_forcing);
        },
        threads);
  }

  const index_t joint_dim = num_variables_ * n_coeff;
  for (index_t r = 0; r < num_ensembles; ++r) {
    run_member_var(factor_, ar_, config_, num_steps, seed, r,
                   [&](const StepPanel& panel) {
      common::parallel_for(
          0, panel.num_steps,
          [&](index_t i) {
            common::Rng nug(panel.nugget_seeds[i]);
            const index_t t = panel.first_step + i;
            const double* row = panel.coefficients + i * joint_dim;
            for (index_t v = 0; v < num_variables_; ++v) {
              const std::vector<double> packed(row + v * n_coeff,
                                               row + (v + 1) * n_coeff);
              const auto coeffs = sht::unpack_real(L, packed);
              const auto field = plan_->synthesize(coeffs);
              auto dst = out[static_cast<std::size_t>(v)].field(r, t);
              const auto& nugget = nugget_var_[static_cast<std::size_t>(v)];
              const auto& tm_all = trend_[static_cast<std::size_t>(v)];
              const auto& series = trend_series[static_cast<std::size_t>(v)];
              for (index_t p = 0; p < num_points; ++p) {
                double z = field[static_cast<std::size_t>(p)];
                z += std::sqrt(nugget[static_cast<std::size_t>(p)]) *
                     nug.normal();
                dst[static_cast<std::size_t>(p)] =
                    series[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(t)] +
                    tm_all[static_cast<std::size_t>(p)].sigma * z;
              }
            }
          },
          threads);
    });
  }
  return out;
}

}  // namespace exaclim::core
