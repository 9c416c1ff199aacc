// End-to-end integration tests: synthetic ESM -> train -> emulate ->
// statistical consistency, across temporal resolutions and model scales;
// plus the full HPC path (runtime Cholesky inside training).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "climate/forcing.hpp"
#include "climate/storage_model.hpp"
#include "climate/synthetic_esm.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "stats/diagnostics.hpp"

namespace {

using namespace exaclim;

struct PipelineCase {
  index_t band_limit;
  index_t nlat;
  index_t nlon;
  index_t steps_per_year;
  index_t num_years;
  index_t steps_per_day;
  const char* label;
};

class EndToEnd : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(EndToEnd, TrainEmulateConsistent) {
  const auto pc = GetParam();
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = pc.band_limit;
  esm_cfg.grid = {pc.nlat, pc.nlon};
  esm_cfg.num_years = pc.num_years;
  esm_cfg.steps_per_year = pc.steps_per_year;
  esm_cfg.steps_per_day = pc.steps_per_day;
  esm_cfg.num_ensembles = 2;
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  core::EmulatorConfig cfg;
  cfg.band_limit = pc.band_limit;
  cfg.ar_order = 2;
  cfg.harmonics = 3;
  cfg.steps_per_year = pc.steps_per_year;
  cfg.tile_size = 32;
  core::ClimateEmulator emulator(cfg);
  const auto report = emulator.train(esm.data, esm.forcing);
  EXPECT_GT(report.total_seconds, 0.0);

  const auto emu =
      emulator.emulate(esm.data.num_steps(), 2, esm.forcing, 2024);
  const auto consistency =
      core::evaluate_consistency(esm.data, emu, pc.band_limit);
  EXPECT_TRUE(consistency.consistent(0.5))
      << pc.label << ": mean=" << consistency.mean_field_rel_rmse
      << " sd=" << consistency.sd_field_rel_rmse
      << " acf=" << consistency.acf_mad
      << " spec=" << consistency.spectrum_log10_mad;
  // Pooled distributions overlap strongly.
  EXPECT_LT(consistency.pooled.ks, 0.2) << pc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEnd,
    ::testing::Values(
        PipelineCase{8, 9, 16, 36, 4, 1, "daily-ish-small"},
        PipelineCase{8, 12, 24, 48, 3, 4, "hourly-ish-diurnal"},
        PipelineCase{12, 13, 24, 36, 4, 1, "medium-L"},
        PipelineCase{16, 17, 32, 24, 5, 1, "large-L-short-year"}));

TEST(Integration, HigherBandLimitShrinksNugget) {
  // With more spherical-harmonic resolution, less energy is left to the
  // epsilon nugget — the fidelity/storage dial of the method.
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = 16;
  esm_cfg.grid = {17, 32};
  esm_cfg.num_years = 3;
  esm_cfg.steps_per_year = 32;
  esm_cfg.num_ensembles = 1;
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  double mean_nugget[2];
  int idx = 0;
  for (index_t L : {6, 14}) {
    core::EmulatorConfig cfg;
    cfg.band_limit = L;
    cfg.ar_order = 1;
    cfg.harmonics = 2;
    cfg.steps_per_year = 32;
    cfg.tile_size = 32;
    core::ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    double acc = 0.0;
    for (double v : emulator.nugget_variance()) acc += v;
    mean_nugget[idx++] = acc / static_cast<double>(emulator.nugget_variance().size());
  }
  EXPECT_LT(mean_nugget[1], mean_nugget[0]);
}

TEST(Integration, EmulatorGeneratesMoreEnsemblesThanTraining) {
  // The storage story: train on R=2, generate R=8 statistically consistent
  // members without touching the original data.
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = 8;
  esm_cfg.grid = {9, 16};
  esm_cfg.num_years = 3;
  esm_cfg.steps_per_year = 32;
  esm_cfg.num_ensembles = 2;
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 32;
  cfg.tile_size = 16;
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);
  const auto emu = emulator.emulate(esm.data.num_steps(), 8, esm.forcing, 5);
  EXPECT_EQ(emu.num_ensembles(), 8);
  // Ensemble members differ but share climatology.
  const auto m0 = emu.time_series(0, 4, 3);
  const auto m7 = emu.time_series(7, 4, 3);
  EXPECT_NE(m0, m7);
  EXPECT_NEAR(stats::mean(m0), stats::mean(m7), 4.0);
}

TEST(Integration, ModelFileIsSmallerThanData) {
  // The serialized emulator undercuts the raw dataset it was trained on —
  // the in-practice version of the storage-savings claim.
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = 8;
  esm_cfg.grid = {9, 16};
  esm_cfg.num_years = 5;
  esm_cfg.steps_per_year = 64;
  esm_cfg.num_ensembles = 4;
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 64;
  cfg.tile_size = 16;
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);

  const std::string model_path = ::testing::TempDir() + "/int_model.bin";
  const std::string data_path = ::testing::TempDir() + "/int_data.bin";
  core::save_emulator(emulator, model_path);
  esm.data.save(data_path);
  const auto model_bytes = std::filesystem::file_size(model_path);
  const auto data_bytes = std::filesystem::file_size(data_path);
  EXPECT_LT(model_bytes * 5, data_bytes);  // >5x smaller even at toy scale
  std::filesystem::remove(model_path);
  std::filesystem::remove(data_path);
}

TEST(Integration, ScenarioEmulationTracksForcingDifference) {
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = 8;
  esm_cfg.grid = {9, 16};
  esm_cfg.num_years = 6;
  esm_cfg.steps_per_year = 24;
  esm_cfg.num_ensembles = 2;
  esm_cfg.forcing = climate::scenario_forcing(6, 0.5, 0.5);
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 1;
  cfg.harmonics = 2;
  cfg.steps_per_year = 24;
  cfg.tile_size = 16;
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);

  const auto ssp_low = climate::scenario_forcing(6, 0.5, 0.0);
  const auto ssp_high = climate::scenario_forcing(6, 0.5, 1.0);
  const auto low = emulator.emulate(6 * 24, 2, ssp_low, 77);
  const auto high = emulator.emulate(6 * 24, 2, ssp_high, 77);
  // Global-mean final-year difference tracks the forcing gap times the
  // fitted sensitivity (positive by construction).
  double low_mean = 0.0;
  double high_mean = 0.0;
  for (index_t t = 5 * 24; t < 6 * 24; ++t) {
    const auto lf = low.field(0, t);
    const auto hf = high.field(0, t);
    for (std::size_t p = 0; p < lf.size(); ++p) {
      low_mean += lf[p];
      high_mean += hf[p];
    }
  }
  EXPECT_GT(high_mean, low_mean);
}

}  // namespace
