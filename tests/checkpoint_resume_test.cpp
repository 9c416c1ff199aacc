// Checkpoint/restart for the tiled Cholesky: a run killed mid-factorization
// (here: a deterministic injected fault, the reproducible stand-in for a
// crash) must resume from its last checkpoint and produce a factor that is
// bit-for-bit identical to an uninterrupted run. Bit-exactness is achievable
// because the DAG serializes all writers of a tile and every kernel is
// deterministic, so "which tasks already ran" fully determines the bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::runtime;
using common::FaultInjector;
using common::FaultPlan;

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

constexpr index_t kN = 192;
constexpr index_t kNb = 32;
constexpr index_t kNt = 6;

linalg::Matrix decaying_spd() {
  linalg::Matrix a(kN, kN);
  for (index_t i = 0; i < kN; ++i) {
    for (index_t j = 0; j < kN; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 25.0);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

linalg::TiledSymmetricMatrix make_tiled(const linalg::Matrix& a,
                                        linalg::PrecisionVariant variant) {
  return linalg::TiledSymmetricMatrix::from_dense(
      a, kNb, linalg::make_band_policy(kNt, variant));
}

void expect_bitwise_equal(const linalg::TiledSymmetricMatrix& tiled,
                          const linalg::Matrix& l_ref) {
  const linalg::Matrix l = tiled.to_dense(/*lower_only=*/true);
  for (index_t i = 0; i < kN; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_EQ(l(i, j), l_ref(i, j)) << i << "," << j;
    }
  }
}

TEST(CheckpointResume, KilledRunResumesBitForBit) {
  const linalg::Matrix a = decaying_spd();
  const std::string ck = ::testing::TempDir() + "/exaclim_resume_kill.ckpt";

  // Uninterrupted reference run (mixed precision, so tile scales and packed
  // halves must survive the checkpoint round trip too).
  auto clean = make_tiled(a, linalg::PrecisionVariant::DP_HP);
  const auto ref = cholesky_tiled_parallel(clean, {});
  const linalg::Matrix l_ref = clean.to_dense(true);

  // "Kill" a checkpointing run late in the DAG: POTRF(4,4) is deep in the
  // dependency chain, so several 5-task checkpoint rounds land first.
  {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=1;numerical=1;kind=POTRF;at=4,4"));
    auto doomed = make_tiled(a, linalg::PrecisionVariant::DP_HP);
    RtCholeskyOptions opt;
    opt.ft.checkpoint_path = ck;
    opt.ft.checkpoint_every = 5;
    try {
      cholesky_tiled_parallel(doomed, opt);
      FAIL() << "expected TaskFailure";
    } catch (const TaskFailure& e) {
      EXPECT_EQ(e.kind(), "POTRF");
      EXPECT_EQ(e.row(), 4);
      EXPECT_EQ(e.col(), 4);
    }
  }
  ASSERT_TRUE(std::filesystem::exists(ck));

  // Resume on a fresh matrix: restored tiles + pruned frontier must yield
  // the reference factor exactly, executing only the unfinished remainder.
  auto resumed = make_tiled(a, linalg::PrecisionVariant::DP_HP);
  RtCholeskyOptions opt;
  opt.ft.resume_path = ck;
  const auto result = cholesky_tiled_parallel(resumed, opt);
  EXPECT_TRUE(result.resumed);
  EXPECT_LT(result.run.tasks_executed, ref.run.tasks_executed);
  expect_bitwise_equal(resumed, l_ref);
  std::filesystem::remove(ck);
}

TEST(CheckpointResume, FinalCheckpointRestoresCompletedRun) {
  // checkpoint_every = 0: one snapshot at completion. Resuming from it must
  // skip every kernel task and reproduce the factor from the payloads alone.
  const linalg::Matrix a = decaying_spd();
  const std::string ck = ::testing::TempDir() + "/exaclim_resume_final.ckpt";

  auto first = make_tiled(a, linalg::PrecisionVariant::DP_HP);
  RtCholeskyOptions opt;
  opt.ft.checkpoint_path = ck;
  const auto run1 = cholesky_tiled_parallel(first, opt);
  EXPECT_EQ(run1.checkpoints_written, 1);
  const linalg::Matrix l_ref = first.to_dense(true);

  auto second = make_tiled(a, linalg::PrecisionVariant::DP_HP);
  RtCholeskyOptions opt2;
  opt2.ft.resume_path = ck;
  const auto run2 = cholesky_tiled_parallel(second, opt2);
  EXPECT_TRUE(run2.resumed);
  // Only CONVERT tasks (recomputed from restored tiles) may execute.
  EXPECT_EQ(run2.run.tasks_executed, run2.convert_tasks);
  expect_bitwise_equal(second, l_ref);
  std::filesystem::remove(ck);
}

TEST(CheckpointResume, PeriodicCheckpointsMatchUninterruptedRun) {
  // Checkpointing must be an observer: a run quiesced every 3 tasks writes
  // many snapshots but the factor stays bit-identical to a straight run.
  const linalg::Matrix a = decaying_spd();
  const std::string ck = ::testing::TempDir() + "/exaclim_resume_periodic.ckpt";

  auto clean = make_tiled(a, linalg::PrecisionVariant::DP);
  cholesky_tiled_parallel(clean, {});
  const linalg::Matrix l_ref = clean.to_dense(true);

  auto ckpt = make_tiled(a, linalg::PrecisionVariant::DP);
  RtCholeskyOptions opt;
  opt.ft.checkpoint_path = ck;
  opt.ft.checkpoint_every = 3;
  const auto result = cholesky_tiled_parallel(ckpt, opt);
  EXPECT_GT(result.checkpoints_written, 1);
  expect_bitwise_equal(ckpt, l_ref);
  std::filesystem::remove(ck);
}

TEST(CheckpointResume, ResumeComposesWithFaultToleranceAndIntegrity) {
  // The full stack at once: escalation-recovering run, periodic checkpoints,
  // CRC tile guards — then an injected kill, then a guarded resume.
  const linalg::Matrix a = decaying_spd();
  const std::string ck = ::testing::TempDir() + "/exaclim_resume_full.ckpt";

  {
    InjectorGuard guard;
    // POTRF faults recover via the ladder; the TRSM fault is the kill.
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=5;numerical=1;kind=TRSM;at=5,3"));
    auto doomed = make_tiled(a, linalg::PrecisionVariant::DP);
    RtCholeskyOptions opt;
    opt.ft.enabled = true;
    opt.ft.integrity_checks = true;
    opt.ft.checkpoint_path = ck;
    opt.ft.checkpoint_every = 4;
    // TRSM has no recovery ladder: the injected fault exhausts the recover
    // hook path and must surface structurally even with ft enabled.
    try {
      cholesky_tiled_parallel(doomed, opt);
      FAIL() << "expected TaskFailure";
    } catch (const TaskFailure& e) {
      EXPECT_EQ(e.kind(), "TRSM");
      EXPECT_EQ(e.row(), 5);
      EXPECT_EQ(e.col(), 3);
    }
  }
  ASSERT_TRUE(std::filesystem::exists(ck));

  auto resumed = make_tiled(a, linalg::PrecisionVariant::DP);
  RtCholeskyOptions opt;
  opt.ft.enabled = true;
  opt.ft.integrity_checks = true;
  opt.ft.resume_path = ck;
  const auto result = cholesky_tiled_parallel(resumed, opt);
  EXPECT_TRUE(result.resumed);

  auto clean = make_tiled(a, linalg::PrecisionVariant::DP);
  cholesky_tiled_parallel(clean, {});
  expect_bitwise_equal(resumed, clean.to_dense(true));
  std::filesystem::remove(ck);
}

TEST(CheckpointResume, ResumeAgainstWrongProblemFailsLoudly) {
  const linalg::Matrix a = decaying_spd();
  const std::string ck = ::testing::TempDir() + "/exaclim_resume_wrong.ckpt";
  auto tiled = make_tiled(a, linalg::PrecisionVariant::DP);
  RtCholeskyOptions opt;
  opt.ft.checkpoint_path = ck;
  cholesky_tiled_parallel(tiled, opt);

  // Same dimension, different tiling: the checkpoint header must refuse.
  auto other = linalg::TiledSymmetricMatrix::from_dense(
      a, 48, linalg::make_band_policy(4, linalg::PrecisionVariant::DP));
  RtCholeskyOptions opt2;
  opt2.ft.resume_path = ck;
  EXPECT_THROW(cholesky_tiled_parallel(other, opt2), IoError);
  std::filesystem::remove(ck);
}

}  // namespace
