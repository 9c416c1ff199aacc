// Emulator configuration.
#pragma once

#include <limits>
#include <string>

#include "common/io.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/verify_mode.hpp"
#include "stats/trend.hpp"

namespace exaclim::core {

struct EmulatorConfig {
  index_t band_limit = 16;      ///< L: spherical-harmonic truncation degree
  index_t ar_order = 3;         ///< P (paper uses 3)
  index_t harmonics = 5;        ///< K periodic terms in the trend (paper: 5)
  index_t steps_per_year = 64;  ///< tau (8760 hourly, 365 daily, 12 monthly)

  /// Precision variant for the Cholesky of the innovation covariance.
  linalg::PrecisionVariant cholesky_variant = linalg::PrecisionVariant::DP;
  index_t tile_size = 128;  ///< nb for the tiled solver
  unsigned threads = 0;     ///< 0 = hardware concurrency

  double jitter_base = 1e-10;  ///< diagonal perturbation scale (Eq. 9 repair)

  /// Input screening (climate::validate_dataset) before training. NaN/Inf
  /// and constant-field checks are always part of it; the range screen only
  /// engages when valid_min/valid_max are set to finite bounds.
  bool validate_input = true;
  /// Impute flagged cells (field-mean of valid cells) instead of failing.
  bool quarantine = false;
  double valid_min = -std::numeric_limits<double>::infinity();
  double valid_max = std::numeric_limits<double>::infinity();

  /// Task-level fault tolerance for the tiled Cholesky: retry with precision
  /// escalation and per-tile jitter instead of aborting on the first
  /// NumericalError.
  bool fault_tolerance = false;
  std::string checkpoint_path;   ///< empty = no checkpointing
  index_t checkpoint_every = 0;  ///< kernel tasks per checkpoint round; 0 =
                                 ///< one final checkpoint only
  std::string resume_path;       ///< empty = start fresh
  /// Checkpoint durability (--checkpoint-sync full|data|none).
  common::SyncPolicy checkpoint_sync = common::SyncPolicy::Full;

  /// Scheduler stall watchdog (--stall-timeout): > 0 dumps per-worker state
  /// after this many seconds without a completed task and fails the run with
  /// a structured StallError once the grace period (default: same value)
  /// also lapses. 0 disables.
  double stall_timeout_seconds = 0.0;
  double stall_grace_seconds = 0.0;

  /// DAG verification gate (--verify off|static|dynamic): static proves the
  /// constructed task graph race-free before execution, dynamic additionally
  /// shadow-checks the executed schedule. Default resolves through
  /// EXACLIM_VERIFY, falling back to static.
  runtime::VerifyMode verify_mode = runtime::VerifyMode::Default;

  /// Profile grid for the trend's rho; empty = default {0, .05, ..., .95}.
  std::vector<double> rho_grid;

  /// Burn-in steps discarded when simulating the VAR forward.
  index_t emulation_burn_in = 64;

  stats::TrendFitConfig trend_config() const {
    stats::TrendFitConfig c;
    c.harmonics = harmonics;
    c.period = steps_per_year;
    c.rho_grid = rho_grid;
    return c;
  }
};

}  // namespace exaclim::core
