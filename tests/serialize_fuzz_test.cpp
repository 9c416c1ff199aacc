// Corruption fuzz for the framed, checksummed artifact formats: every
// single-bit flip and every truncation of an EXACMDL4 model file or an
// EXACKPT1 checkpoint must surface as a clean IoError — never a crash, a
// silent success, or an unbounded allocation. Also pins the version-bump
// contract: EXACMDL3-era files are rejected with an actionable message.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/checkpoint.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::core;

/// One trained-and-saved model shared by every fuzz case.
class SerializeFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    climate::SyntheticEsmConfig data_cfg;
    data_cfg.band_limit = 6;
    data_cfg.grid = {7, 12};
    data_cfg.num_years = 2;
    data_cfg.steps_per_year = 32;
    data_cfg.num_ensembles = 2;
    const auto esm = climate::generate_synthetic_esm(data_cfg);
    EmulatorConfig cfg;
    cfg.band_limit = 6;
    cfg.ar_order = 2;
    cfg.harmonics = 2;
    cfg.steps_per_year = 32;
    cfg.tile_size = 25;
    ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    path_ = ::testing::TempDir() + "/exaclim_fuzz_model.bin";
    save_emulator(emulator, path_, FactorStorage::FP32);
    image_ = new std::vector<unsigned char>(common::read_file_bytes(path_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(path_);
    delete image_;
    image_ = nullptr;
  }

  /// Writes `bytes` to a scratch path and reports how load_emulator reacts.
  enum class Outcome { Ok, IoErr, OtherErr };
  static Outcome load_outcome(const std::vector<unsigned char>& bytes) {
    const std::string p = ::testing::TempDir() + "/exaclim_fuzz_mut.bin";
    common::atomic_write_file(p, bytes.data(), bytes.size());
    Outcome out = Outcome::Ok;
    try {
      (void)load_emulator(p);
    } catch (const IoError&) {
      out = Outcome::IoErr;
    } catch (const std::exception&) {
      out = Outcome::OtherErr;
    }
    std::filesystem::remove(p);
    return out;
  }

  static std::string path_;
  static std::vector<unsigned char>* image_;
};

std::string SerializeFuzz::path_;
std::vector<unsigned char>* SerializeFuzz::image_ = nullptr;

TEST_F(SerializeFuzz, PristineImageLoads) {
  EXPECT_EQ(load_outcome(*image_), Outcome::Ok);
}

TEST_F(SerializeFuzz, EverySampledBitflipThrowsIoError) {
  // The frame (magic, total length, per-section length + CRC32C) must catch
  // a flip anywhere: headers via structural checks, payloads via checksum.
  // Exhaustive over the frame header region, sampled over the body.
  common::Rng rng(97);
  std::vector<std::size_t> positions;
  for (std::size_t b = 0; b < 64 && b < image_->size(); ++b) {
    positions.push_back(b);
  }
  for (int s = 0; s < 160; ++s) {
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image_->size()))));
  }
  for (const std::size_t pos : positions) {
    std::vector<unsigned char> mutant = *image_;
    mutant[pos] ^= static_cast<unsigned char>(
        1u << rng.uniform_u64(8));
    EXPECT_EQ(load_outcome(mutant), Outcome::IoErr) << "byte " << pos;
  }
}

TEST_F(SerializeFuzz, EverySampledTruncationThrowsIoError) {
  common::Rng rng(131);
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 15, 16, 17};
  for (int s = 0; s < 60; ++s) {
    lengths.push_back(static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image_->size()))));
  }
  for (const std::size_t len : lengths) {
    std::vector<unsigned char> mutant(image_->begin(),
                                      image_->begin() +
                                          static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(load_outcome(mutant), Outcome::IoErr) << "length " << len;
  }
}

TEST_F(SerializeFuzz, TrailingGarbageThrowsIoError) {
  // The total-length header pins the exact payload size, so appended bytes
  // (a torn rename over a longer old file, say) are rejected up front.
  std::vector<unsigned char> mutant = *image_;
  mutant.insert(mutant.end(), {0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(load_outcome(mutant), Outcome::IoErr);
}

TEST_F(SerializeFuzz, OldFormatVersionRejectedByName) {
  // An EXACMDL3-era file shares the 7-byte family prefix but not the
  // version byte: the reader must say "unsupported version", not "corrupt".
  std::vector<unsigned char> old_file = *image_;
  old_file[7] = '3';
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_v3.bin";
  common::atomic_write_file(p, old_file.data(), old_file.size());
  try {
    (void)load_emulator(p);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(p);
}

TEST_F(SerializeFuzz, ForeignMagicRejected) {
  std::vector<unsigned char> alien = *image_;
  for (int b = 0; b < 8; ++b) alien[static_cast<std::size_t>(b)] = 'X';
  EXPECT_EQ(load_outcome(alien), Outcome::IoErr);
}

// ---------- checkpoint artifact ---------------------------------------------

linalg::TiledSymmetricMatrix small_tiled() {
  const index_t n = 64;
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 10.0);
    }
    a(i, i) += 1e-3;
  }
  return linalg::TiledSymmetricMatrix::from_dense(
      a, 16, linalg::make_band_policy(4, linalg::PrecisionVariant::DP_HP));
}

TEST(CheckpointFuzz, BitflipsAndTruncationsThrowIoError) {
  auto tiled = small_tiled();
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_ckpt.bin";
  runtime::write_cholesky_checkpoint(p, tiled, std::vector<std::uint8_t>(10, 1));
  const auto image = common::read_file_bytes(p);

  common::Rng rng(211);
  for (int s = 0; s < 120; ++s) {
    std::vector<unsigned char> mutant = image;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image.size())));
    mutant[pos] ^= static_cast<unsigned char>(1u << rng.uniform_u64(8));
    common::atomic_write_file(p, mutant.data(), mutant.size());
    auto scratch = small_tiled();
    EXPECT_THROW((void)runtime::read_cholesky_checkpoint(p, scratch), IoError)
        << "byte " << pos;
  }
  for (int s = 0; s < 40; ++s) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image.size())));
    common::atomic_write_file(p, image.data(), len);
    auto scratch = small_tiled();
    EXPECT_THROW((void)runtime::read_cholesky_checkpoint(p, scratch), IoError)
        << "length " << len;
  }
  std::filesystem::remove(p);
}

TEST(CheckpointFuzz, ShapeMismatchNamesBothShapes) {
  auto tiled = small_tiled();
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_ckpt_shape.bin";
  runtime::write_cholesky_checkpoint(p, tiled,
                                     std::vector<std::uint8_t>(10, 0));
  // Resume against a differently-tiled matrix must fail loudly.
  const index_t n = 64;
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 2.0;
  auto other = linalg::TiledSymmetricMatrix::from_dense(
      a, 32, linalg::make_band_policy(2, linalg::PrecisionVariant::DP));
  try {
    (void)runtime::read_cholesky_checkpoint(p, other);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(p);
}

}  // namespace
