// Figure 4: daily data vs emulations under DP, DP/SP and DP/HP.
//
// The paper's claim: emulated temperature maps stay statistically consistent
// with the simulations regardless of which mixed-precision variant factors
// the innovation covariance. We train four emulators differing only in the
// Cholesky precision, emulate, and print per-variant consistency metrics
// plus the factorization residual (the numerical side of the same story).
#include "bench_util.hpp"
#include "climate/synthetic_esm.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/solve.hpp"
#include "stats/covariance.hpp"

using namespace exaclim;

int main() {
  bench::print_header(
      "Figure 4 — emulation fidelity across precision variants (daily)");

  const index_t tau = 96;  // "daily" cadence, compressed year
  climate::SyntheticEsmConfig data_cfg;
  data_cfg.band_limit = 16;
  data_cfg.grid = {17, 32};
  data_cfg.num_years = 4;
  data_cfg.steps_per_year = tau;
  data_cfg.num_ensembles = 2;
  const auto esm = climate::generate_synthetic_esm(data_cfg);

  std::printf("\n%-9s %12s %12s %10s %10s %10s %12s\n", "variant",
              "mean rRMSE", "SD rRMSE", "ACF MAD", "spec MAD", "pooled KS",
              "chol resid");
  for (linalg::PrecisionVariant v : linalg::kAllVariants) {
    core::EmulatorConfig cfg;
    cfg.band_limit = 16;
    cfg.ar_order = 3;
    cfg.harmonics = 5;
    cfg.steps_per_year = tau;
    cfg.cholesky_variant = v;
    cfg.tile_size = 64;
    core::ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    const auto emu =
        emulator.emulate(esm.data.num_steps(), 2, esm.forcing, 1234);
    const auto report = core::evaluate_consistency(esm.data, emu, 16);

    // Residual of V V^T against the (reconstructed) covariance: quantifies
    // the precision loss itself.
    const auto& factor = emulator.cholesky_factor();
    const linalg::Matrix u_approx = linalg::matmul_nt(factor, factor);
    // Reference: DP factor of the same covariance comes from re-deriving it
    // with the DP variant; compare against that emulator's U.
    static linalg::Matrix u_ref;  // set on the DP pass (first in the list)
    if (v == linalg::PrecisionVariant::DP) u_ref = u_approx;
    double resid = 0.0;
    double norm = 0.0;
    for (index_t i = 0; i < u_ref.rows(); ++i) {
      for (index_t j = 0; j < u_ref.cols(); ++j) {
        const double d = u_approx(i, j) - u_ref(i, j);
        resid += d * d;
        norm += u_ref(i, j) * u_ref(i, j);
      }
    }
    std::printf("%-9s %12.4f %12.4f %10.4f %10.4f %10.4f %12.3e\n",
                linalg::variant_name(v).c_str(), report.mean_field_rel_rmse,
                report.sd_field_rel_rmse, report.acf_mad,
                report.spectrum_log10_mad, report.pooled.ks,
                std::sqrt(resid / (norm > 0.0 ? norm : 1.0)));
  }
  std::printf("\nPaper's conclusion: all variants produce statistically\n"
              "consistent emulations; precision loss appears only in the\n"
              "factor residual, not in the climate statistics.\n");
  return 0;
}
