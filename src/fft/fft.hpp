// From-scratch complex FFT.
//
// The SHT of the paper (Eq. 4-8) needs DFTs along longitude (length N_phi)
// and along the extended colatitude (length 2*N_theta - 2); neither is a
// power of two for ERA5-style grids (N_phi = 1440, N_theta = 721). We provide
// an iterative radix-2 Cooley-Tukey transform for power-of-two lengths and
// Bluestein's chirp-z algorithm for everything else, both behind a cached
// Plan so twiddle factors are computed once per length.
//
// Conventions:
//   forward:  X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N)
//   inverse:  x[n] = (1/N) * sum_k X[k] * exp(+2*pi*i*n*k/N)
// so inverse(forward(x)) == x.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace exaclim::fft {

/// A reusable transform of fixed length. Thread-safe for concurrent execute
/// calls once constructed: the data lives in caller buffers, and the
/// Bluestein path's convolution buffer is per-thread scratch.
class Plan {
 public:
  /// Builds a plan for length n >= 1.
  explicit Plan(index_t n);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  index_t size() const;

  /// In-place forward DFT of `data` (length must equal size()).
  void forward(cplx* data) const;
  /// In-place inverse DFT (normalized by 1/N).
  void inverse(cplx* data) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide plan cache keyed by length. Returns a shared plan; safe to
/// call concurrently.
std::shared_ptr<const Plan> get_plan(index_t n);

/// Convenience one-shot transforms (use the plan cache).
void forward(std::vector<cplx>& data);
void inverse(std::vector<cplx>& data);

/// Naive O(N^2) DFT used as a testing oracle.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse_dir);

}  // namespace exaclim::fft
