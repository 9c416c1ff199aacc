// Per-precision BLAS3 kernels for the tile-based mixed-precision Cholesky.
//
// The paper runs POTRF/TRSM/SYRK/GEMM tile kernels in fp64, fp32 or fp16
// (tensor cores: fp16 inputs, fp32 accumulation). We reproduce the same
// numerics on the CPU:
//   * FP64 kernels: plain double arithmetic.
//   * FP32 kernels: plain float arithmetic.
//   * FP16 "tensor-core" path: operands are rounded through IEEE binary16 and
//     the multiply-accumulate runs in fp32 (see the gemm/syrk task bodies
//     in runtime/tiled_cholesky_rt.cpp), which is exactly the
//     V100/A100/H100/MI250X tensor-core contract the paper relies on.
//
// All tiles are row-major with a leading dimension equal to the tile width.
// Kernels take explicit (m, n, k) so ragged edge tiles work.
#pragma once

#include <cstddef>
#include <string>

#include "common/half.hpp"
#include "common/types.hpp"

namespace exaclim::linalg {

/// Storage/compute precision of a tile.
enum class Precision : std::uint8_t { FP64 = 0, FP32 = 1, FP16 = 2 };

/// Human-readable name ("DP", "SP", "HP") matching the paper's terminology.
std::string precision_name(Precision p);

/// Bytes per element.
std::size_t precision_bytes(Precision p);

/// RAII thread-local tile context. While one is alive on the calling thread,
/// NumericalError messages thrown from the tile kernels name the tile
/// (row, col) and the active precision, so a failed POTRF/TRSM in a large
/// tiled run is actionable instead of anonymous. Set by the runtime task
/// bodies around each kernel invocation; nesting restores the outer context
/// on destruction.
class ScopedTileContext {
 public:
  ScopedTileContext(index_t row, index_t col, Precision p);
  ~ScopedTileContext();

  ScopedTileContext(const ScopedTileContext&) = delete;
  ScopedTileContext& operator=(const ScopedTileContext&) = delete;

 private:
  index_t prev_row_;
  index_t prev_col_;
  Precision prev_prec_;
  bool prev_active_;
};

/// " on tile (r,c) [precision DP]" while a ScopedTileContext is active on
/// this thread, "" otherwise. Appended to kernel failure messages.
std::string tile_context_suffix();

/// Memory-pressure ladder rung 2: trims the calling thread's blocked-kernel
/// scratch arenas if the MemoryBudget pressure epoch moved since the last
/// call. Must only be called when no kernel is running on this thread (the
/// scheduler calls it between tasks). Near-free when there is no pressure.
void trim_thread_scratch_on_pressure();

/// Frees the calling thread's blocked-kernel scratch arenas unconditionally.
/// For one-off large factorizations off the tile hot path (the FP64
/// positive-definiteness check), whose pack buffers would otherwise stay
/// resident for the life of the thread. Same contract as above: only when no
/// kernel is running on this thread.
void release_thread_scratch();

// --- Kernel tuning -----------------------------------------------------------
//
// The cache-blocking parameters of the packed engine (KC slivers in L1, an
// MC x KC packed A block in L2, a KC x NC packed B panel in L3) are runtime
// values. The default is the fixed 256/96/4096 set every committed artifact
// was produced with; `--tune=auto` derives machine-specific values from the
// L1d/L2/L3 sizes the topology map reads from /sys and breaks the
// analytic-vs-default tie with a one-shot GEMM micro-probe. Tuning is
// process-global and must be applied before parallel kernel work starts.
// Block sizes change the accumulation split (and therefore the low-order
// bits) of every blocked kernel, which is why `fixed` is the default: it
// keeps EXACMDL4 artifacts byte-identical across machines and runs.

/// Cache-blocking parameters for one element width.
struct BlockSizes {
  index_t kc = 256;   ///< k-panel depth (packed slivers stay L1-resident)
  index_t mc = 96;    ///< A-block rows (MC x KC packed block targets L2)
  index_t nc = 4096;  ///< B-panel rows (KC x NC packed panel targets L3)
};

enum class TuneMode : std::uint8_t { Fixed = 0, Auto = 1 };

/// The active (or a candidate) engine tuning, plus its provenance.
struct KernelTuning {
  BlockSizes f64;  ///< blocking for 8-byte elements
  BlockSizes f32;  ///< blocking for 4-byte elements (also the packed-f16 path)
  TuneMode mode = TuneMode::Fixed;
  bool probed = false;  ///< the micro-probe ran (auto mode with cache info)
  std::size_t l1d_bytes = 0;  ///< detected cache sizes (0 = unknown)
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
};

/// The compiled-in default blocking (what `--tune=fixed` applies), with the
/// detected cache sizes filled in for reporting.
KernelTuning fixed_tuning();

/// Analytic KC/MC/NC from the topology map's cache sizes, tie-broken against
/// the fixed defaults by a one-shot GEMM micro-probe (memoized per process,
/// so repeated calls are cheap and return the same choice). Falls back to
/// the fixed blocking when cache sizes are unavailable.
KernelTuning derive_auto_tuning();

/// Currently applied tuning (copy; safe to call from any thread).
KernelTuning active_tuning();

/// Applies a tuning to the engine. NOT thread-safe against running kernels:
/// call before parallel work starts (the CLI does this in its global-flag
/// phase). Throws InvalidArgument on non-positive block sizes.
void apply_tuning(const KernelTuning& tuning);

/// `fixed` -> defaults, `auto` -> derive_auto_tuning(); convenience wrapper.
void set_tune_mode(TuneMode mode);

/// Parses "fixed" | "auto" (the --tune / EXACLIM_TUNE grammar); throws
/// InvalidArgument naming the flag otherwise.
TuneMode parse_tune_mode(const std::string& text);

/// "fixed" or "auto".
std::string tune_mode_name(TuneMode mode);

// --- Factorization kernels -------------------------------------------------
//
// The primary entry points below run the cache-blocked engine: packed panels
// streamed through an MR x NR register-tiled micro-kernel (see docs/PERF.md).
// Each kernel keeps its original scalar implementation as a `*_ref` oracle;
// the blocked results match the oracles to accumulation-order rounding
// (~1e-13 relative in f64), which tests/kernels_blocked_test.cpp asserts.

/// In-place lower Cholesky of the n x n tile `a`. Throws NumericalError on a
/// non-positive pivot. Strictly-upper entries are left untouched. Recursive
/// blocked: A = [[A11, .], [A21, A22]] splits at a panel-aligned midpoint so
/// the off-diagonal half becomes one blocked TRSM + SYRK pair per level,
/// bottoming out in a vectorized unblocked panel factorization.
void potrf_lower_f64(double* a, index_t n);
void potrf_lower_f32(float* a, index_t n);

/// Solves X * L^T = B for X, overwriting B (m x n), with L the n x n lower
/// Cholesky factor of the panel's diagonal tile. This is the tile TRSM of the
/// right-looking factorization. Blocked: NB-wide column panels of B clear
/// their left contribution through the packed GEMM engine, then the small
/// triangular block solves on row slivers of B packed column-major so the
/// forward substitution vectorizes across rows.
void trsm_rlt_f64(const double* l, double* b, index_t m, index_t n);
void trsm_rlt_f32(const float* l, float* b, index_t m, index_t n);

/// C (m x n) -= A (m x k) * B (n x k)^T. The trailing-update GEMM.
void gemm_nt_minus_f64(const double* a, const double* b, double* c, index_t m,
                       index_t n, index_t k);
void gemm_nt_minus_f32(const float* a, const float* b, float* c, index_t m,
                       index_t n, index_t k);

/// C (m x m, lower triangle incl. diagonal) -= A (m x k) * A^T.
void syrk_ln_minus_f64(const double* a, double* c, index_t m, index_t k);
void syrk_ln_minus_f32(const float* a, float* c, index_t m, index_t k);

// --- Packed-half kernels -----------------------------------------------------
//
// The HP tile path stores tiles as packed binary16 plus one per-tile scale
// (true value = float(h) * scale, see TileBuffer). These kernels consume the
// packed halves directly: operand panels are widened f16 -> f32 while being
// packed into the blocked engine's sliver buffers (F16C-vectorized when the
// ISA has it), the multiply-accumulate runs in f32 — the tensor-core
// contract — and the operand scales are folded into a single alpha applied
// at accumulator write-back. No f32 copy of the operand tiles is ever
// materialized, unlike the previous round-through-f32 path.

/// C (f32, m x n) -= (a_scale * b_scale) * Ah (m x k) * Bh (n x k)^T.
void gemm_nt_minus_f16(const common::half* a, float a_scale,
                       const common::half* b, float b_scale, float* c,
                       index_t m, index_t n, index_t k);

/// C (f32, m x m lower incl. diagonal) -= a_scale^2 * Ah (m x k) * Ah^T.
void syrk_ln_minus_f16(const common::half* a, float a_scale, float* c,
                       index_t m, index_t k);

/// Scaled-f16 TRSM: solves X * L^T = b_scale * Bh for X (written to the f32
/// buffer `x`, m x n), consuming the packed-half RHS directly — the
/// Repr::F16P operand form, no widened f32 copy of B made by the caller. The
/// solve runs on the unscaled halves and the (power-of-two, hence exact)
/// scale is applied once at write-back; the caller typically repacks `x`
/// with a fresh tile scale.
void trsm_rlt_f16(const float* l, const common::half* b, float b_scale,
                  float* x, index_t m, index_t n);

// --- Scalar reference oracles ----------------------------------------------
//
// The seed's element-wise kernels, kept verbatim as correctness oracles for
// the blocked engine and as the baseline the BENCH_kernels.json speedups are
// measured against. Semantics are identical to the blocked entry points.

void potrf_lower_ref_f64(double* a, index_t n);
void potrf_lower_ref_f32(float* a, index_t n);
void trsm_rlt_ref_f64(const double* l, double* b, index_t m, index_t n);
void trsm_rlt_ref_f32(const float* l, float* b, index_t m, index_t n);
void gemm_nt_minus_ref_f64(const double* a, const double* b, double* c,
                           index_t m, index_t n, index_t k);
void gemm_nt_minus_ref_f32(const float* a, const float* b, float* c, index_t m,
                           index_t n, index_t k);
void syrk_ln_minus_ref_f64(const double* a, double* c, index_t m, index_t k);
void syrk_ln_minus_ref_f32(const float* a, float* c, index_t m, index_t k);

// --- Precision conversion ---------------------------------------------------

/// Element-wise conversions (round-to-nearest-even where narrowing).
void convert_f64_to_f32(const double* src, float* dst, index_t count);
void convert_f32_to_f64(const float* src, double* dst, index_t count);
void convert_f64_to_f16(const double* src, common::half* dst, index_t count);
void convert_f16_to_f64(const common::half* src, double* dst, index_t count);
void convert_f32_to_f16(const float* src, common::half* dst, index_t count);
void convert_f16_to_f32(const common::half* src, float* dst, index_t count);

/// Rounds a float buffer through binary16 in place (tensor-core operand
/// rounding without a separate half buffer). Values beyond +-65504 saturate
/// to infinity; the scaled conversions below are the overflow-safe form.
void round_through_f16(float* data, index_t count);

// --- Scaled f16 conversion ---------------------------------------------------
//
// Max-abs normalization into binary16: the narrowing conversions choose a
// power-of-two scale s with max|v| / s in [16384, 32768] (safely inside the
// binary16 range) and store h = round_f16(v / s), so tile entries of any
// magnitude survive the 5-bit exponent — the compute-path mirror of the
// serializer's FactorStorage::FP16Scaled. The scale is exact to apply
// (power of two), division by it rounds nothing, and an all-zero buffer
// gets s = 1. The returned scale is always a normal float.

/// Narrows with per-buffer scaling; returns the chosen scale. The f64
/// variant rounds once, straight from double (see double_to_half_bits).
float convert_f64_to_f16_scaled(const double* src, common::half* dst,
                                index_t count);
float convert_f32_to_f16_scaled(const float* src, common::half* dst,
                                index_t count);

/// Widens packed halves and re-applies the scale (exact but for f16
/// subnormals scaled back up, where the product may round once).
void convert_f16_scaled_to_f64(const common::half* src, float scale,
                               double* dst, index_t count);
void convert_f16_scaled_to_f32(const common::half* src, float scale,
                               float* dst, index_t count);

// --- Sampling: batched multi-RHS apply over a lower-triangular factor -------
//
// Every correlated draw in the library — a served request or an emulator
// innovation — is a column of X = L * Z, where L is the n x n lower-
// triangular Cholesky factor and Z holds K independent standard-normal
// columns. The kernel below reads the factor in place: either the packed
// lower-triangle rows exactly as the model file serializes them (one of
// three storage precisions, mirroring core::FactorStorage — typically an
// mmap'd model section), or a dense row-major f64 matrix such as a trained
// emulator's factor. The K right-hand sides amortize each factor element
// loaded from memory across the whole panel (the multi-RHS form of the
// triangular apply).

/// Element layout of a packed lower-triangle factor payload.
enum class PackedStorage : std::uint8_t {
  F64 = 0,        ///< row i = (i+1) doubles at element offset i(i+1)/2
  F32 = 1,        ///< same layout in floats
  F16Scaled = 2,  ///< row i = one float scale then (i+1) binary16 halves
};

/// Read-only view of a factor; `bytes` is borrowed, not owned.
struct PackedFactorView {
  const unsigned char* bytes = nullptr;
  std::size_t size_bytes = 0;
  index_t n = 0;
  PackedStorage storage = PackedStorage::F64;
  /// F64 only: row r starts at element r * n (a row-major n x n matrix read
  /// in place; its strict upper triangle is never read) instead of at the
  /// packed offset r(r+1)/2.
  bool dense_rows = false;
};

/// Exact payload size of a packed factor of dimension n.
std::size_t packed_factor_bytes(PackedStorage storage, index_t n);

/// In-place view of a row-major n x n f64 lower-triangular factor (e.g. a
/// linalg::Matrix's data()); `data` must outlive the view.
PackedFactorView dense_factor_view(const double* data, index_t n);

/// Batched sampling apply over one block of the factor:
///   X[r, k] += sum_{c in [c0, min(c1, r+1))} L(r, c) * Z[c, k]
/// for r in [r0, r1), k in [0, k_cols). X and Z are row-major n x k_cols
/// panels. `skip` is a bitmask of cancelled batch columns (bit k set =
/// column k is left byte-untouched; k_cols <= 64). Register-blocked: 4 rows
/// x 16 columns of X stay in registers while the factor columns stream
/// past, yet every element still accumulates its terms one multiply and one
/// add at a time over c in fixed ascending order — the result is
/// bit-identical to the plain triple loop. Combined with the sampling DAG
/// serializing the block passes over each X row in ascending block-column
/// order, a column's draw is bit-identical for any batch width, co-batched
/// column set, tile size or thread count. Widening (f32/f16 storage)
/// happens per element, at load.
void sample_apply_packed(const PackedFactorView& l, index_t r0, index_t r1,
                         index_t c0, index_t c1, const double* z, double* x,
                         index_t k_cols, std::uint64_t skip);

}  // namespace exaclim::linalg
