#include "core/emulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "climate/validate.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/var_forward.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "stats/covariance.hpp"

namespace exaclim::core {

ClimateEmulator::ClimateEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  EXACLIM_CHECK(config_.band_limit >= 4, "band limit must be >= 4");
  EXACLIM_CHECK(config_.ar_order >= 1, "AR order must be >= 1");
  EXACLIM_CHECK(config_.harmonics >= 0, "harmonics must be >= 0");
  EXACLIM_CHECK(config_.steps_per_year >= 1, "steps_per_year must be >= 1");
}

linalg::Matrix factor_covariance(const linalg::Matrix& u,
                                 const EmulatorConfig& config,
                                 TrainReport* report) {
  const index_t n = u.rows();
  const index_t nb = std::min(config.tile_size, n);
  const index_t nt = (n + nb - 1) / nb;
  linalg::TiledSymmetricMatrix tiled = linalg::TiledSymmetricMatrix::from_dense(
      u, nb, linalg::make_band_policy(nt, config.cholesky_variant));
  runtime::RtCholeskyOptions opt;
  opt.threads = config.threads;
  opt.ft.enabled = config.fault_tolerance;
  opt.ft.integrity_checks = config.fault_tolerance;
  opt.ft.jitter_base = config.jitter_base;
  opt.ft.checkpoint_path = config.checkpoint_path;
  opt.ft.checkpoint_every = config.checkpoint_every;
  opt.ft.resume_path = config.resume_path;
  opt.ft.checkpoint_sync = config.checkpoint_sync;
  opt.stall_timeout_seconds = config.stall_timeout_seconds;
  opt.stall_grace_seconds = config.stall_grace_seconds;
  opt.verify = config.verify_mode;
  const runtime::RtCholeskyResult rt =
      runtime::cholesky_tiled_parallel(tiled, opt);
  if (report != nullptr) {
    report->precision_escalations = rt.precision_escalations;
    report->jitter_escalations = rt.jitter_escalations;
    report->checkpoints_written = rt.checkpoints_written;
    report->resumed_from_checkpoint = rt.resumed;
  }
  return tiled.to_dense(/*lower_only=*/true);
}

TrainReport ClimateEmulator::train(const climate::ClimateDataset& input,
                                   std::span<const double> annual_forcing) {
  const index_t L = config_.band_limit;
  const sht::GridShape grid = input.grid();
  const index_t num_points = grid.num_points();
  const index_t T = input.num_steps();
  const index_t R = input.num_ensembles();
  const index_t P = config_.ar_order;
  EXACLIM_CHECK(input.steps_per_year() == config_.steps_per_year,
                "dataset temporal resolution must match config");
  EXACLIM_CHECK(T > 2 * P, "too few time steps for the AR order");
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    input.num_years(),
                "forcing trajectory shorter than the dataset");

  TrainReport report;
  common::Timer total;

  // Input screening before any statistics touch the data: malformed cells
  // fail here as structured ValidationErrors naming exact coordinates, or —
  // under quarantine — are imputed into a private copy (never mutating the
  // caller's dataset).
  std::optional<climate::ClimateDataset> repaired;
  const climate::ClimateDataset* source = &input;
  if (config_.validate_input) {
    climate::ValidationOptions vopts;
    vopts.min_value = config_.valid_min;
    vopts.max_value = config_.valid_max;
    vopts.quarantine = config_.quarantine;
    climate::ValidationSummary vsum;
    if (config_.quarantine) {
      repaired.emplace(input);
      vsum = climate::validate_dataset(*repaired, vopts);
      source = &*repaired;
    } else {
      vsum = climate::validate_dataset(std::as_const(input), vopts);
    }
    report.validation_flagged = static_cast<index_t>(vsum.flagged());
    report.validation_quarantined = static_cast<index_t>(vsum.quarantined);
  }
  const climate::ClimateDataset& data = *source;
  plan_ = std::make_shared<const sht::SHTPlan>(L, grid);
  grid_ = grid;

  const unsigned threads =
      config_.threads == 0 ? common::default_thread_count() : config_.threads;

  // ---- Stage 1: per-location trend/scale (Eq. 2) -------------------------
  common::Timer stage;
  trend_.assign(static_cast<std::size_t>(num_points), stats::TrendModel{});
  const stats::TrendFitter trend_fitter(T, annual_forcing,
                                        config_.trend_config());
  common::parallel_for(
      0, num_points,
      [&](index_t p) {
        // Stack the R series for this point (r-major).
        std::vector<double> y(static_cast<std::size_t>(R * T));
        for (index_t r = 0; r < R; ++r) {
          for (index_t t = 0; t < T; ++t) {
            y[static_cast<std::size_t>(r * T + t)] =
                data.field(r, t)[static_cast<std::size_t>(p)];
          }
        }
        trend_[static_cast<std::size_t>(p)] = trend_fitter.fit(y, R);
      },
      threads);
  report.trend_seconds = stage.seconds();

  // Cache m_t once (shared across ensembles).
  std::vector<std::vector<double>> trend_series_per_point(
      static_cast<std::size_t>(num_points));
  common::parallel_for(
      0, num_points,
      [&](index_t p) {
        trend_series_per_point[static_cast<std::size_t>(p)] =
            stats::trend_series(trend_[static_cast<std::size_t>(p)], T,
                                annual_forcing);
      },
      threads);

  // ---- Stage 2: SHT of the standardized stochastic component -------------
  stage.reset();
  const index_t n_coeff = sh_coeff_count(L);
  // f[r][t] stored as one big row-major (R*T) x L^2 matrix.
  linalg::Matrix f(R * T, n_coeff);
  nugget_var_.assign(static_cast<std::size_t>(num_points), 0.0);
  // Fields go through the SHT in fixed batches of consecutive (r, t) rows:
  // each batch is standardized, analyzed straight into its rows of f, and
  // synthesized back for the truncation residual. The deterministic
  // reduction runs over batches, whose boundaries (like parallel_reduce's
  // chunking and combine order) are a function of R*T alone, so the nugget
  // section stays bit-stable at any --threads.
  const index_t batch = sht::SHTPlan::batch_fields();
  const index_t num_batches = (R * T + batch - 1) / batch;
  const std::vector<double> nugget_acc = common::parallel_reduce(
      0, num_batches,
      std::vector<double>(static_cast<std::size_t>(num_points), 0.0),
      [&](std::vector<double>& acc, index_t b) {
        const index_t rt0 = b * batch;
        const index_t kb = std::min(batch, R * T - rt0);
        const auto batch_points = static_cast<std::size_t>(kb * num_points);
        std::vector<double> z(batch_points);
        for (index_t k = 0; k < kb; ++k) {
          const index_t t = (rt0 + k) % T;
          const auto obs = data.field((rt0 + k) / T, t);
          double* zk = z.data() + k * num_points;
          for (index_t p = 0; p < num_points; ++p) {
            zk[p] = (obs[static_cast<std::size_t>(p)] -
                     trend_series_per_point[static_cast<std::size_t>(p)]
                                           [static_cast<std::size_t>(t)]) /
                    trend_[static_cast<std::size_t>(p)].sigma;
          }
        }
        const std::span<double> rows(
            f.data() + static_cast<std::size_t>(rt0 * n_coeff),
            static_cast<std::size_t>(kb * n_coeff));
        plan_->analyze_packed(z, kb, rows);
        // Truncation residual -> nugget variance accumulation.
        std::vector<double> back(batch_points);
        plan_->synthesize_packed(rows, kb, back);
        for (index_t k = 0; k < kb; ++k) {
          const double* zk = z.data() + k * num_points;
          const double* bk = back.data() + k * num_points;
          for (index_t p = 0; p < num_points; ++p) {
            const double e = zk[p] - bk[p];
            acc[static_cast<std::size_t>(p)] += e * e;
          }
        }
      },
      [num_points](std::vector<double>& into, std::vector<double>&& from) {
        for (index_t p = 0; p < num_points; ++p) {
          into[static_cast<std::size_t>(p)] += from[static_cast<std::size_t>(p)];
        }
      },
      threads);
  for (index_t p = 0; p < num_points; ++p) {
    nugget_var_[static_cast<std::size_t>(p)] =
        nugget_acc[static_cast<std::size_t>(p)] / static_cast<double>(R * T);
  }
  report.sht_seconds = stage.seconds();

  // ---- Stage 3: diagonal VAR(P) -------------------------------------------
  stage.reset();
  ar_.assign(static_cast<std::size_t>(n_coeff), stats::ArModel{});
  common::parallel_for(
      0, n_coeff,
      [&](index_t c) {
        std::vector<double> series(static_cast<std::size_t>(R * T));
        for (index_t rt = 0; rt < R * T; ++rt) {
          series[static_cast<std::size_t>(rt)] = f(rt, c);
        }
        ar_[static_cast<std::size_t>(c)] =
            stats::fit_ar_ensemble(series, R, T, P);
      },
      threads);
  report.ar_seconds = stage.seconds();

  // ---- Stage 4: innovation covariance + Cholesky --------------------------
  stage.reset();
  const index_t n_samples = R * (T - P);
  report.innovation_samples = n_samples;
  linalg::Matrix xi(n_samples, n_coeff);
  common::parallel_for(
      0, n_coeff,
      [&](index_t c) {
        index_t row = 0;
        for (index_t r = 0; r < R; ++r) {
          for (index_t t = P; t < T; ++t) {
            double pred = 0.0;
            const auto& phi = ar_[static_cast<std::size_t>(c)].phi;
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
  report.covariance_seconds = stage.seconds();

  // Mixed-precision tiled Cholesky of U-hat (the paper's headline solver).
  stage.reset();
  factor_ = factor_covariance(prepared.u, config_, &report);
  report.cholesky_seconds = stage.seconds();

  trained_ = true;
  report.total_seconds = total.seconds();
  return report;
}

climate::ClimateDataset ClimateEmulator::emulate(
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) const {
  EXACLIM_CHECK(trained_, "emulator has not been trained");
  EXACLIM_CHECK(num_steps >= 1 && num_ensembles >= 1,
                "need at least one step and one ensemble");
  const index_t tau = config_.steps_per_year;
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    (num_steps + tau - 1) / tau,
                "forcing trajectory shorter than requested emulation");
  const index_t L = config_.band_limit;
  const index_t num_points = grid_.num_points();

  climate::ClimateDataset out(grid_, num_steps, num_ensembles, tau);

  const unsigned threads =
      config_.threads == 0 ? common::default_thread_count() : config_.threads;

  // Trend series are shared across ensembles; compute once in parallel.
  std::vector<std::vector<double>> trend_series_per_point(
      static_cast<std::size_t>(num_points));
  common::parallel_for(
      0, num_points,
      [&](index_t p) {
        trend_series_per_point[static_cast<std::size_t>(p)] =
            stats::trend_series(trend_[static_cast<std::size_t>(p)],
                                num_steps, annual_forcing);
      },
      threads);

  // Each panel's kept steps are already packed coefficient rows; they are
  // synthesized in fixed batches, one batch per parallel iteration,
  // straight into the member's consecutive output fields, which then take
  // the nugget and the trend in place.
  const index_t n_coeff = sh_coeff_count(L);
  const index_t batch = sht::SHTPlan::batch_fields();
  for (index_t r = 0; r < num_ensembles; ++r) {
    run_member_var(factor_, ar_, config_, num_steps, seed, r,
                   [&](const StepPanel& panel) {
      common::parallel_for(
          0, (panel.num_steps + batch - 1) / batch,
          [&](index_t b) {
            const index_t i0 = b * batch;
            const index_t kb = std::min(batch, panel.num_steps - i0);
            plan_->synthesize_packed(
                {panel.coefficients + i0 * n_coeff,
                 static_cast<std::size_t>(kb * n_coeff)},
                kb,
                {out.field(r, panel.first_step + i0).data(),
                 static_cast<std::size_t>(kb * num_points)});
            for (index_t k = 0; k < kb; ++k) {
              const index_t i = i0 + k;
              common::Rng nug(panel.nugget_seeds[i]);
              const index_t t = panel.first_step + i;
              auto dst = out.field(r, t);
              for (index_t p = 0; p < num_points; ++p) {
                double z = dst[static_cast<std::size_t>(p)];
                z += std::sqrt(nugget_var_[static_cast<std::size_t>(p)]) *
                     nug.normal();
                const auto& tm = trend_[static_cast<std::size_t>(p)];
                dst[static_cast<std::size_t>(p)] =
                    trend_series_per_point[static_cast<std::size_t>(p)]
                                          [static_cast<std::size_t>(t)] +
                    tm.sigma * z;
              }
            }
          },
          threads);
    });
  }
  return out;
}

void ClimateEmulator::restore(sht::GridShape grid,
                              std::vector<stats::TrendModel> trend,
                              std::vector<stats::ArModel> ar,
                              linalg::Matrix factor,
                              std::vector<double> nugget_var) {
  EXACLIM_CHECK(static_cast<index_t>(trend.size()) == grid.num_points(),
                "trend model count must match grid");
  EXACLIM_CHECK(static_cast<index_t>(ar.size()) ==
                    sh_coeff_count(config_.band_limit),
                "AR model count must match band limit");
  EXACLIM_CHECK(factor.rows() == sh_coeff_count(config_.band_limit) &&
                    factor.rows() == factor.cols(),
                "factor dimension must be L^2");
  EXACLIM_CHECK(static_cast<index_t>(nugget_var.size()) == grid.num_points(),
                "nugget variance count must match grid");
  grid_ = grid;
  trend_ = std::move(trend);
  ar_ = std::move(ar);
  factor_ = std::move(factor);
  nugget_var_ = std::move(nugget_var);
  plan_ = std::make_shared<const sht::SHTPlan>(config_.band_limit, grid_);
  trained_ = true;
}

}  // namespace exaclim::core
