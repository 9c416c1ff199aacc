// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::bench {

/// SPD covariance-like matrix with exponentially decaying off-diagonal
/// strength (the structure of the emulator's innovation covariance).
inline linalg::Matrix decaying_spd(index_t n, double length_scale) {
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / length_scale);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// "paper X vs ours Y (ratio Z)" helper.
inline void print_vs(const char* label, double paper, double ours) {
  std::printf("  %-42s paper %10.3g | ours %10.3g | ratio %5.2f\n", label,
              paper, ours, paper != 0.0 ? ours / paper : 0.0);
}

/// Seconds per invocation of fn, warmed up and averaged over enough
/// repetitions to fill ~`budget` seconds (at least min_reps).
template <typename F>
double time_op(F&& fn, double budget = 0.1, int min_reps = 2) {
  fn();  // warm-up (also primes pack buffers / thread-local scratch)
  common::Timer warm;
  fn();
  const double est = warm.seconds();
  const int reps =
      std::max(min_reps, est > 0.0 ? static_cast<int>(budget / est) : 1000);
  common::Timer t;
  for (int r = 0; r < reps; ++r) fn();
  return t.seconds() / reps;
}

/// Median and quartiles of seconds per invocation over `reps` timed blocks.
struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  int reps = 0;
};

/// Like time_op, but reports the spread: after a warm-up call and a probe
/// call, each of `reps` blocks repeats fn until ~`block` seconds have passed,
/// so one sample sits well above the timer's resolution.
template <typename F>
Spread time_spread(F&& fn, int reps = 11, double block = 0.02) {
  fn();
  common::Timer probe;
  fn();
  const double est = std::max(probe.seconds(), 1e-7);
  const int calls = std::max(1, static_cast<int>(block / est));
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    common::Timer t;
    for (int c = 0; c < calls; ++c) fn();
    s.push_back(t.seconds() / calls);
  }
  std::sort(s.begin(), s.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  };
  return {at(0.5), at(0.25), at(0.75), reps};
}

/// Accumulates rows and writes the machine-readable BENCH_*.json files that
/// future PRs regress against. Values are emitted as given; rows are flat
/// key/value objects.
class JsonBench {
 public:
  void add(std::string row) { rows_.push_back(std::move(row)); }

  /// Writes {"meta": {...}, "results": [rows]} to `path`.
  bool write(const char* path, const std::string& meta) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"meta\": %s,\n  \"results\": [\n", meta.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> rows_;
};

}  // namespace exaclim::bench
