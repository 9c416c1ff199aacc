// Determinism guarantees: chunk-stable parallel reductions make training
// bit-reproducible across thread counts, and checkpoint/resume replays to
// the same bytes. Labelled `determinism` in CTest; the tier-1 acceptance
// check is the byte comparison of EXACMDL4 model artifacts below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "core/serialize.hpp"
#include "stats/covariance.hpp"
#include "stats/trend.hpp"

namespace {

using namespace exaclim;

// ---------- parallel_reduce ---------------------------------------------------

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  // FP addition is not associative, so a reduction that partitions by thread
  // count gives different bits at --threads 1 vs 4. parallel_reduce chunks by
  // a fixed decomposition and combines in a fixed order instead: every width
  // must produce the exact same double.
  const index_t n = 100000;
  std::vector<double> values(static_cast<std::size_t>(n));
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  }
  auto sum_with = [&](unsigned threads) {
    return common::parallel_reduce(
        index_t{0}, n, 0.0,
        [&](double& acc, index_t i) {
          acc += values[static_cast<std::size_t>(i)];
        },
        [](double& into, double from) { into += from; }, threads);
  };
  const double s1 = sum_with(1);
  for (unsigned t : {2u, 3u, 4u, 8u, 16u}) {
    EXPECT_EQ(s1, sum_with(t)) << "threads=" << t;
  }
  // And it is not trivially zero.
  EXPECT_NE(s1, 0.0);
}

TEST(ParallelReduce, EmptyAndSingleElementRanges) {
  auto body = [](index_t& acc, index_t i) { acc += i; };
  auto comb = [](index_t& into, index_t from) { into += from; };
  EXPECT_EQ(common::parallel_reduce(index_t{5}, index_t{5}, index_t{-7}, body,
                                    comb, 4),
            -7);
  EXPECT_EQ(common::parallel_reduce(index_t{3}, index_t{4}, index_t{0}, body,
                                    comb, 4),
            3);
}

TEST(ParallelReduce, OrderedCombineSeesChunksInIndexOrder) {
  // Record which chunk produced the first element: after the pairwise tree,
  // partial 0 must still be the accumulator (its value merged left-to-right
  // pairs), so reducing "first index seen" yields chunk 0's first index.
  const index_t n = 4096;
  const index_t first = common::parallel_reduce(
      index_t{0}, n, index_t{-1},
      [](index_t& acc, index_t i) {
        if (acc < 0) acc = i;
      },
      [](index_t& into, index_t from) {
        if (into < 0) into = from;
      },
      8);
  EXPECT_EQ(first, 0);
}

// ---------- training stages ---------------------------------------------------

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(StageDeterminism, CovarianceBytesIdenticalAcrossThreadCounts) {
  // Ragged in both tile (d = 3 * 128 - 35) and chunk (N = 2 * 256 + 89)
  // directions, so edge tiles and the short final chunk are both exercised.
  common::Rng rng(31);
  linalg::Matrix xi(601, 349);
  for (index_t i = 0; i < xi.rows(); ++i) {
    for (index_t j = 0; j < xi.cols(); ++j) xi(i, j) = rng.normal();
  }
  auto bytes = [&](unsigned threads) {
    const linalg::Matrix u = stats::empirical_covariance_parallel(xi, threads);
    return std::vector<double>(u.data(), u.data() + u.rows() * u.cols());
  };
  const std::vector<double> u1 = bytes(1);
  for (unsigned t : {2u, 4u, 7u}) {
    EXPECT_TRUE(same_bytes(u1, bytes(t))) << "threads=" << t;
  }
  // prepare_covariance (scans and PD check included) is thread-invariant too.
  const stats::PreparedCovariance p1 = stats::prepare_covariance(xi, 1e-10, 1);
  for (unsigned t : {2u, 4u, 7u}) {
    const stats::PreparedCovariance pt =
        stats::prepare_covariance(xi, 1e-10, t);
    EXPECT_TRUE(same_bytes(
        std::vector<double>(p1.u.data(), p1.u.data() + u1.size()),
        std::vector<double>(pt.u.data(), pt.u.data() + u1.size())))
        << "threads=" << t;
    EXPECT_EQ(p1.jitter, pt.jitter);
  }
}

TEST(StageDeterminism, TrendFitterBytesIdenticalAcrossThreadCounts) {
  const index_t points = 97;
  const index_t R = 2;
  const index_t T = 72;
  common::Rng rng(32);
  std::vector<double> forcing(7);
  for (auto& v : forcing) v = rng.normal(1.0, 0.2);
  std::vector<double> y(static_cast<std::size_t>(points * R * T));
  for (auto& v : y) v = rng.normal(3.0, 1.0);
  stats::TrendFitConfig cfg;
  cfg.harmonics = 2;
  cfg.period = 12;
  const stats::TrendFitter fitter(T, forcing, cfg);
  auto bytes = [&](unsigned threads) {
    std::vector<stats::TrendModel> models(static_cast<std::size_t>(points));
    common::parallel_for(
        0, points,
        [&](index_t p) {
          const std::size_t off = static_cast<std::size_t>(p * R * T);
          models[static_cast<std::size_t>(p)] = fitter.fit(
              std::span<const double>(y).subspan(off,
                                                 static_cast<std::size_t>(R * T)),
              R);
        },
        threads);
    std::vector<double> out;
    for (const auto& m : models) {
      out.insert(out.end(), {m.beta0, m.beta1, m.beta2, m.rho, m.sigma});
      out.insert(out.end(), m.cos_coeff.begin(), m.cos_coeff.end());
      out.insert(out.end(), m.sin_coeff.begin(), m.sin_coeff.end());
    }
    return out;
  };
  const std::vector<double> m1 = bytes(1);
  for (unsigned t : {2u, 4u, 7u}) {
    EXPECT_TRUE(same_bytes(m1, bytes(t))) << "threads=" << t;
  }
}

// ---------- end-to-end training -----------------------------------------------

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

climate::SyntheticEsmConfig tiny_esm() {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = 8;
  cfg.grid = {9, 16};
  cfg.num_years = 4;
  cfg.steps_per_year = 48;
  cfg.num_ensembles = 2;
  cfg.weather_scale = 2.0;
  return cfg;
}

core::EmulatorConfig tiny_config() {
  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 48;
  cfg.tile_size = 16;
  return cfg;
}

std::vector<unsigned char> train_model_bytes(core::EmulatorConfig cfg,
                                             const std::string& tag) {
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);
  TempFile model("determinism_" + tag + ".bin");
  core::save_emulator(emulator, model.path, core::FactorStorage::FP64);
  return common::read_file_bytes(model.path);
}

TEST(TrainDeterminism, ModelBytesIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the deterministic-reduction work: two train
  // runs at different --threads produce byte-identical EXACMDL4 artifacts.
  core::EmulatorConfig cfg = tiny_config();
  cfg.threads = 1;
  const auto bytes1 = train_model_bytes(cfg, "t1");
  cfg.threads = 4;
  const auto bytes4 = train_model_bytes(cfg, "t4");
  ASSERT_EQ(bytes1.size(), bytes4.size());
  EXPECT_TRUE(bytes1 == bytes4)
      << "model artifact differs between --threads 1 and --threads 4";
}

TEST(TrainDeterminism, RepeatedRunsIdentical) {
  core::EmulatorConfig cfg = tiny_config();
  cfg.threads = 4;
  const auto a = train_model_bytes(cfg, "rep_a");
  const auto b = train_model_bytes(cfg, "rep_b");
  EXPECT_TRUE(a == b);
}

TEST(TrainDeterminism, CheckpointedAndResumedRunsMatchPlain) {
  // Kill-and-resume determinism: a run that checkpoints every few kernel
  // tasks, and a second run resumed from its final snapshot, must both
  // reproduce the uninterrupted artifact bit for bit.
  const auto plain = train_model_bytes(tiny_config(), "plain");

  TempFile ckpt("determinism_snapshot.bin");
  core::EmulatorConfig cfg = tiny_config();
  cfg.threads = 4;
  cfg.checkpoint_path = ckpt.path;
  cfg.checkpoint_every = 4;
  const auto checkpointed = train_model_bytes(cfg, "ckpt");
  EXPECT_TRUE(plain == checkpointed)
      << "periodic checkpointing perturbed the trained model";

  core::EmulatorConfig rcfg = tiny_config();
  rcfg.threads = 2;
  rcfg.resume_path = ckpt.path;
  const auto resumed = train_model_bytes(rcfg, "resume");
  EXPECT_TRUE(plain == resumed)
      << "resume from the final checkpoint diverged from the plain run";
}

// ---------- emulation ---------------------------------------------------------
//
// Emulation draws its innovations as multi-RHS panels on the task runtime;
// each (member, step) column has its own RNG stream and the sampling DAG
// fixes every accumulation order, so output bytes depend on neither the
// thread count nor how many steps a run asks for.

/// Steps [0, steps) of every member of `d`, member-major.
std::vector<double> leading_steps(const climate::ClimateDataset& d,
                                  index_t steps) {
  std::vector<double> out;
  for (index_t r = 0; r < d.num_ensembles(); ++r) {
    for (index_t t = 0; t < steps; ++t) {
      const auto f = d.field(r, t);
      out.insert(out.end(), f.begin(), f.end());
    }
  }
  return out;
}

const unsigned kEmulateThreads[] = {1, 2, 4, 7};

TEST(EmulateDeterminism, UnivariateBytesIdenticalAcrossThreadCounts) {
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  std::vector<double> first;
  for (const unsigned t : kEmulateThreads) {
    core::EmulatorConfig cfg = tiny_config();
    cfg.threads = t;
    core::ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    const auto bytes = emulator.emulate(48, 2, esm.forcing, 17).raw();
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_TRUE(same_bytes(first, bytes)) << "threads=" << t;
    }
  }
}

TEST(EmulateDeterminism, UnivariateShortRunIsPrefixOfLongRun) {
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  core::ClimateEmulator emulator(tiny_config());
  emulator.train(esm.data, esm.forcing);
  const auto short_run = emulator.emulate(24, 2, esm.forcing, 23);
  const auto long_run = emulator.emulate(48, 2, esm.forcing, 23);
  EXPECT_TRUE(same_bytes(short_run.raw(),
                         leading_steps(long_run, 24)));
}

climate::BivariateEsm tiny_bivariate() {
  climate::SyntheticEsmConfig cfg = tiny_esm();
  cfg.nugget_noise = 0.15;
  return climate::generate_bivariate_esm(cfg, 0.5);
}

TEST(EmulateDeterminism, MultivariateBytesIdenticalAcrossThreadCounts) {
  const auto data = tiny_bivariate();
  std::vector<double> first;
  for (const unsigned t : kEmulateThreads) {
    core::EmulatorConfig cfg = tiny_config();
    cfg.threads = t;
    core::MultiVariateEmulator emulator(cfg);
    emulator.train({&data.primary, &data.secondary}, data.forcing);
    const auto emu = emulator.emulate(48, 2, data.forcing, 29);
    std::vector<double> bytes = emu[0].raw();
    bytes.insert(bytes.end(), emu[1].raw().begin(), emu[1].raw().end());
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_TRUE(same_bytes(first, bytes)) << "threads=" << t;
    }
  }
}

TEST(EmulateDeterminism, MultivariateShortRunIsPrefixOfLongRun) {
  const auto data = tiny_bivariate();
  core::MultiVariateEmulator emulator(tiny_config());
  emulator.train({&data.primary, &data.secondary}, data.forcing);
  const auto short_run = emulator.emulate(24, 2, data.forcing, 31);
  const auto long_run = emulator.emulate(48, 2, data.forcing, 31);
  for (std::size_t v = 0; v < 2; ++v) {
    EXPECT_TRUE(same_bytes(short_run[v].raw(),
                           leading_steps(long_run[v], 24)))
        << "variable " << v;
  }
}

// ---------- consistency ---------------------------------------------------------

TEST(ConsistencyDeterminism, ReportBitIdenticalAtThreads1And4) {
  // The spectrum comparison analyzes its subsampled fields in SHT batches
  // across workers and sums the per-field spectra in field order, so the
  // whole report is the same double for double at any width.
  climate::SyntheticEsmConfig esm_cfg = tiny_esm();
  esm_cfg.num_ensembles = 6;  // 96 subsampled fields: six SHT batches
  const auto esm = climate::generate_synthetic_esm(esm_cfg);
  core::ClimateEmulator emulator(tiny_config());
  emulator.train(esm.data, esm.forcing);
  const auto emu =
      emulator.emulate(esm.data.num_steps(), 6, esm.forcing, 41);
  auto flatten = [](const core::ConsistencyReport& r) {
    const stats::MomentComparison& p = r.pooled;
    return std::vector<double>{p.mean_a, p.mean_b, p.sd_a, p.sd_b,
                               p.q05_a, p.q05_b, p.q95_a, p.q95_b,
                               p.ks, r.mean_field_rel_rmse,
                               r.sd_field_rel_rmse, r.acf_mad,
                               r.spectrum_log10_mad};
  };
  const auto r1 = flatten(core::evaluate_consistency(esm.data, emu, 8, 1));
  const auto r4 = flatten(core::evaluate_consistency(esm.data, emu, 8, 4));
  EXPECT_TRUE(same_bytes(r1, r4));
  EXPECT_GT(r1.back(), 0.0);  // the spectra were compared at all
}

}  // namespace
