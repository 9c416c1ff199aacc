// The exascale climate emulator (the paper's primary contribution).
//
// Training (Section III-A, Figure 3 pipeline):
//   1. Per grid point: fit the distributed-lag + harmonic mean model m_t and
//      scale sigma by profiled MLE (Eq. 2), form the standardized stochastic
//      component Z^(r)_t = (y - m_t) / sigma.
//   2. Per time slot: fast SHT of Z into packed coefficients f_t in R^{L^2};
//      the truncation residual epsilon estimates the nugget v^2 per point.
//   3. Per coefficient: diagonal VAR(P) — scalar AR(P) fits shared across
//      the ensemble.
//   4. Innovation covariance U-hat (Eq. 9) with diagonal perturbation when
//      rank deficient, then mixed-precision tiled Cholesky U = V V^T.
// Emulation (Section III-B): xi ~ N(0, U) via V, VAR forward pass, inverse
// SHT, add epsilon, scale by sigma, add m_t. The innovations are drawn in
// panels of up to 64 steps on the sampling engine serving uses.
//
// All per-point / per-slot / per-coefficient stages run through
// common::parallel_for; the Cholesky runs on the task runtime.
#pragma once

#include <memory>
#include <optional>

#include "climate/dataset.hpp"
#include "core/config.hpp"
#include "linalg/matrix.hpp"
#include "sht/sht.hpp"
#include "stats/ar.hpp"
#include "stats/trend.hpp"

namespace exaclim::core {

/// Timing/diagnostics of one training run.
struct TrainReport {
  double trend_seconds = 0.0;
  double sht_seconds = 0.0;
  double ar_seconds = 0.0;
  double covariance_seconds = 0.0;
  double cholesky_seconds = 0.0;
  double total_seconds = 0.0;
  double covariance_jitter = 0.0;
  bool covariance_deficient = false;
  index_t innovation_samples = 0;  ///< R (T - P)

  // Fault-tolerance outcomes from the tiled Cholesky.
  index_t precision_escalations = 0;
  index_t jitter_escalations = 0;
  index_t checkpoints_written = 0;
  bool resumed_from_checkpoint = false;

  // Input-screening outcomes (climate::validate_dataset).
  index_t validation_flagged = 0;      ///< cells/fields flagged by screening
  index_t validation_quarantined = 0;  ///< cells imputed (--quarantine)
};

/// The training factorization both emulators share: tiles the innovation
/// covariance `u` under config's precision variant and tile size, factorizes
/// it with runtime::cholesky_tiled_parallel using config's thread,
/// fault-tolerance, checkpoint, stall-watchdog and verify settings, and
/// returns the dense lower factor V (U = V V^T). When `report` is non-null
/// it receives the fault-tolerance outcomes.
linalg::Matrix factor_covariance(const linalg::Matrix& u,
                                 const EmulatorConfig& config,
                                 TrainReport* report = nullptr);

/// A trained emulator. Copyable; serializable via core/serialize.hpp.
class ClimateEmulator {
 public:
  explicit ClimateEmulator(EmulatorConfig config);

  const EmulatorConfig& config() const { return config_; }

  /// Trains on an ensemble dataset with the given annual forcing trajectory
  /// (length >= dataset years). Throws on dimension mismatches.
  TrainReport train(const climate::ClimateDataset& data,
                    std::span<const double> annual_forcing);

  bool is_trained() const { return trained_; }

  /// Generates `num_ensembles` emulated members of `num_steps` steps under
  /// `annual_forcing` (may differ from training forcing: scenario mode).
  /// Throws InvalidArgument unless num_steps >= 1 and num_ensembles >= 1.
  ///
  /// Reproducibility contract: the output is a pure function of the trained
  /// model, `annual_forcing` and `seed`. Member r's step s (counted from
  /// the start of the burn-in) draws its innovation normals, then its
  /// nugget seed, from its own stream Rng(seed).split(r).split(s), and the
  /// innovations run through the same fixed-order multi-RHS sampling engine
  /// as serving (core/var_forward.hpp). So the bytes are identical at any
  /// `threads`, member r does not depend on how many members are asked
  /// for, and a T-step run is exactly the first T steps of any longer run
  /// with the same seed.
  climate::ClimateDataset emulate(index_t num_steps, index_t num_ensembles,
                                  std::span<const double> annual_forcing,
                                  std::uint64_t seed) const;

  // --- Introspection (tests, serialization, science diagnostics) ---------
  const sht::GridShape& grid() const { return grid_; }
  const std::vector<stats::TrendModel>& trend_models() const { return trend_; }
  const std::vector<stats::ArModel>& ar_models() const { return ar_; }
  const linalg::Matrix& cholesky_factor() const { return factor_; }
  const std::vector<double>& nugget_variance() const { return nugget_var_; }

  // Used by deserialization.
  void restore(sht::GridShape grid, std::vector<stats::TrendModel> trend,
               std::vector<stats::ArModel> ar, linalg::Matrix factor,
               std::vector<double> nugget_var);

 private:
  EmulatorConfig config_;
  bool trained_ = false;
  sht::GridShape grid_{};
  std::vector<stats::TrendModel> trend_;  ///< one per grid point
  std::vector<stats::ArModel> ar_;        ///< one per packed coefficient
  linalg::Matrix factor_;                 ///< V, lower Cholesky of U-hat
  std::vector<double> nugget_var_;        ///< v^2 per grid point
  std::shared_ptr<const sht::SHTPlan> plan_;  ///< rebuilt on train/restore
};

}  // namespace exaclim::core
