// Statistical-consistency evaluation between simulations and emulations
// (the scientific acceptance criterion behind Figures 2 and 4).
#pragma once

#include "climate/dataset.hpp"
#include "stats/diagnostics.hpp"

namespace exaclim::core {

struct ConsistencyReport {
  /// Pooled value distributions (all points, steps, ensembles).
  stats::MomentComparison pooled;
  /// RMSE between time-mean fields, relative to the simulation's spatial SD.
  double mean_field_rel_rmse = 0.0;
  /// RMSE between per-point temporal SD fields, relative to mean SD.
  double sd_field_rel_rmse = 0.0;
  /// Mean absolute difference of lag-1..5 autocorrelations at probe points.
  double acf_mad = 0.0;
  /// Mean absolute log10 ratio of spherical power spectra (degree 1..L-1).
  double spectrum_log10_mad = 0.0;

  /// A single pass/fail style score: all four structural metrics small.
  bool consistent(double tol = 0.35) const {
    return mean_field_rel_rmse < tol && sd_field_rel_rmse < tol &&
           acf_mad < tol && spectrum_log10_mad < tol;
  }
};

/// Compares two datasets on the same grid. `band_limit` controls the
/// spectrum comparison (use the emulator's L). The spectra's SHT batches run
/// on up to `threads` workers (0 = the worker team's width); the report is
/// bit-identical at any thread count.
ConsistencyReport evaluate_consistency(const climate::ClimateDataset& sim,
                                       const climate::ClimateDataset& emu,
                                       index_t band_limit,
                                       unsigned threads = 0);

}  // namespace exaclim::core
