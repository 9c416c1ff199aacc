#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

#if defined(__F16C__)
#include <immintrin.h>
#endif

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/topology.hpp"

namespace exaclim::linalg {

std::string precision_name(Precision p) {
  switch (p) {
    case Precision::FP64: return "DP";
    case Precision::FP32: return "SP";
    case Precision::FP16: return "HP";
  }
  return "??";
}

std::size_t precision_bytes(Precision p) {
  switch (p) {
    case Precision::FP64: return 8;
    case Precision::FP32: return 4;
    case Precision::FP16: return 2;
  }
  return 0;
}

namespace {

/// Thread-local tile coordinates + precision for kernel failure messages.
struct TileContext {
  index_t row = -1;
  index_t col = -1;
  Precision prec = Precision::FP64;
  bool active = false;
};
thread_local TileContext g_tile_context;

}  // namespace

ScopedTileContext::ScopedTileContext(index_t row, index_t col, Precision p)
    : prev_row_(g_tile_context.row),
      prev_col_(g_tile_context.col),
      prev_prec_(g_tile_context.prec),
      prev_active_(g_tile_context.active) {
  g_tile_context = {row, col, p, true};
}

ScopedTileContext::~ScopedTileContext() {
  g_tile_context = {prev_row_, prev_col_, prev_prec_, prev_active_};
}

std::string tile_context_suffix() {
  if (!g_tile_context.active) return {};
  return " on tile (" + std::to_string(g_tile_context.row) + "," +
         std::to_string(g_tile_context.col) + ") [precision " +
         precision_name(g_tile_context.prec) + "]";
}

namespace {

/// Widens `count` contiguous halves to floats. F16C gives an 8-wide hardware
/// conversion; the scalar tail (and the no-F16C fallback) use the bit-exact
/// software path.
inline void widen_f16_block(const common::half* src, float* dst,
                            index_t count) {
  index_t i = 0;
#if defined(__F16C__)
  for (; i + 8 <= count; i += 8) {
    __m128i h;
    std::memcpy(&h, src + i, 16);
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < count; ++i) dst[i] = common::half_bits_to_float(src[i].bits());
}

/// Picks the power-of-two scale s with max_abs / s in [16384, 32768], the
/// max-abs normalization shared by every scaled f16 conversion. Clamped so
/// both s and 1/s stay normal floats; an all-zero (or non-finite-max) buffer
/// gets s = 1.
inline float pick_f16_scale(double max_abs) {
  if (!(max_abs > 0.0) || !std::isfinite(max_abs)) return 1.0f;
  int e = 0;
  std::frexp(max_abs, &e);  // max_abs = f * 2^e, f in [0.5, 1)
  const int scale_exp = std::clamp(e - 15, -125, 126);
  return static_cast<float>(std::ldexp(1.0, scale_exp));
}

// ===========================================================================
// Scalar reference kernels (the seed implementations, retained as oracles).
// ===========================================================================

/// Generic unblocked Cholesky on a tile; T is float or double.
template <typename T>
void potrf_ref_impl(T* a, index_t n) {
  for (index_t kk = 0; kk < n; ++kk) {
    T pivot = a[kk * n + kk];
    EXACLIM_NUMERIC_CHECK(pivot > T(0),
                          "tile is not positive definite (tile POTRF)" +
                              tile_context_suffix());
    const T lkk = std::sqrt(pivot);
    a[kk * n + kk] = lkk;
    const T inv = T(1) / lkk;
    for (index_t i = kk + 1; i < n; ++i) a[i * n + kk] *= inv;
    // Rank-1 update of the trailing lower triangle.
    for (index_t j = kk + 1; j < n; ++j) {
      const T ljk = a[j * n + kk];
      if (ljk == T(0)) continue;
      for (index_t i = j; i < n; ++i) {
        a[i * n + j] -= a[i * n + kk] * ljk;
      }
    }
  }
}

/// X * L^T = B: for each row x of B solve x L^T = b, i.e. a forward
/// substitution across columns since L^T is upper-triangular.
template <typename T>
void trsm_ref_impl(const T* l, T* b, index_t m, index_t n) {
  for (index_t r = 0; r < m; ++r) {
    T* x = b + r * n;
    for (index_t j = 0; j < n; ++j) {
      T acc = x[j];
      for (index_t p = 0; p < j; ++p) acc -= x[p] * l[j * n + p];
      EXACLIM_NUMERIC_CHECK(l[j * n + j] != T(0),
                            "singular TRSM pivot" + tile_context_suffix());
      x[j] = acc / l[j * n + j];
    }
  }
}

/// C -= A * B^T with k-inner dot products; the j-by-4 unroll keeps four
/// accumulators live so the compiler vectorizes the shared A row loads.
template <typename T>
void gemm_ref_impl(const T* a, const T* b, T* c, index_t m, index_t n,
                   index_t k) {
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const T* b0 = b + (j + 0) * k;
    const T* b1 = b + (j + 1) * k;
    const T* b2 = b + (j + 2) * k;
    const T* b3 = b + (j + 3) * k;
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a + i * k;
      T acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
      for (index_t p = 0; p < k; ++p) {
        const T av = ai[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      T* ci = c + i * n + j;
      ci[0] -= acc0;
      ci[1] -= acc1;
      ci[2] -= acc2;
      ci[3] -= acc3;
    }
  }
  for (; j < n; ++j) {
    const T* bj = b + j * k;
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a + i * k;
      T acc = 0;
      for (index_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      c[i * n + j] -= acc;
    }
  }
}

/// C(lower) -= A A^T.
template <typename T>
void syrk_ref_impl(const T* a, T* c, index_t m, index_t k) {
  for (index_t i = 0; i < m; ++i) {
    const T* ai = a + i * k;
    for (index_t j = 0; j <= i; ++j) {
      const T* aj = a + j * k;
      T acc = 0;
      for (index_t p = 0; p < k; ++p) acc += ai[p] * aj[p];
      c[i * m + j] -= acc;
    }
  }
}

// ===========================================================================
// Cache-blocked engine.
//
// BLIS-style three-level blocking: the k dimension is cut into KC panels,
// rows of A into MC blocks and rows of B into NC blocks. Both operand panels
// are packed into contiguous sliver-major buffers so the micro-kernel streams
// them with unit stride, and an MR x NR accumulator tile lives entirely in
// registers. Because the NT product C -= A * B^T contracts the rows of both
// operands, the packed layouts for A and B are identical up to the sliver
// width. Ragged edges are zero-padded in the pack buffers; only valid
// elements are written back. All kernels below are leading-dimension aware so
// the blocked POTRF/TRSM can call straight into sub-panels of a tile.
//
// KC/MC/NC are runtime values (see KernelTuning in the header): defaults are
// the committed 256/96/4096 set, `--tune=auto` replaces them with
// cache-derived values. They are read once per kernel entry from relaxed
// atomics — tuning is applied before parallel work starts, the atomics only
// make late application a benign race instead of UB.
// ===========================================================================

/// Runtime cache-blocking parameters, [0] = 8-byte, [1] = 4-byte elements.
struct AtomicBlockSizes {
  std::atomic<index_t> kc;
  std::atomic<index_t> mc;
  std::atomic<index_t> nc;
};
AtomicBlockSizes g_block[2] = {{256, 96, 4096}, {256, 96, 4096}};

/// The rest of the active tuning (provenance + cache sizes), for reporting.
std::mutex g_tuning_mu;
KernelTuning g_tuning;  // block sizes mirrored from g_block
bool g_tuning_init = false;

template <typename T>
struct Blocked {
  // Register micro-tile: MR rows of A by NR rows of B. Shapes are chosen
  // empirically per ISA (see docs/PERF.md): with AVX-512 the 1 KiB
  // accumulator spans 16 of the 32 zmm registers and GCC keeps it fully
  // register-resident; narrower tiles fall off the vectorizer's fast path.
#ifdef __AVX512F__
  static constexpr index_t MR = sizeof(T) == 4 ? 8 : 4;
  static constexpr index_t NR = 32;
#else
  static constexpr index_t MR = sizeof(T) == 4 ? 8 : 4;
  static constexpr index_t NR = 8;
#endif
  // Cache panels (runtime-tuned): KC * (MR + NR) elements of packed slivers
  // stay L1-resident per micro-kernel pass; an MC x KC packed A block
  // targets L2; a KC x NC packed B panel targets L3.
  static const AtomicBlockSizes& block_sizes() {
    return g_block[sizeof(T) == 8 ? 0 : 1];
  }
  // Panel width for the blocked POTRF/TRSM factorizations.
  static constexpr index_t NB = 64;
  // Lane width of the packed TRSM panel solve: PW rows of B are solved
  // simultaneously (rows are independent systems), so the substitution's
  // multiply-accumulates vectorize across a full register of lanes.
#ifdef __AVX512F__
  static constexpr index_t PW = sizeof(T) == 4 ? 16 : 8;
#else
  static constexpr index_t PW = sizeof(T) == 4 ? 8 : 4;
#endif

  // Per-worker scratch: pack buffers and SYRK diagonal scratch live in a
  // grow-only thread-local arena (common/arena.hpp). The owning worker
  // allocates and first-touches every page, so on NUMA machines the packed
  // panels are node-local to the worker streaming them; buffers grow to the
  // high-water tile size and then the hot path never allocates again. The
  // arena also guarantees older allocations stay valid while new ones are
  // carved (a mid-pack `row` growth cannot invalidate a live pack pointer).
  struct Scratch {
    common::ScratchArena arena;
    common::ArenaBuffer<T> pack_a;
    common::ArenaBuffer<T> pack_b;
    common::ArenaBuffer<T> diag;  // dense scratch for SYRK diagonal blocks
    common::ArenaBuffer<T> row;   // widened source row for packed-half operands
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  /// Packs an mc x kc block of (a, lda) into MR-wide, zero-padded slivers:
  /// dst[(i0/MR) * kc * MR + p * MR + i] = a[(i0 + i) * lda + p]. A
  /// common::half source is widened to T while packing (row-wise, so the
  /// hardware conversion sees contiguous halves); no f32 copy of the operand
  /// tile ever exists outside the pack buffer.
  template <index_t W, typename S>
  static void pack(const S* a, index_t lda, index_t mc, index_t kc, T* dst) {
    if constexpr (std::is_same_v<S, common::half>) {
      Scratch& s = scratch();
      T* row = s.row.ensure(s.arena, static_cast<std::size_t>(kc));
      for (index_t i0 = 0; i0 < mc; i0 += W) {
        const index_t w = std::min(W, mc - i0);
        for (index_t i = 0; i < w; ++i) {
          widen_f16_block(a + (i0 + i) * lda, row, kc);
          for (index_t p = 0; p < kc; ++p) dst[p * W + i] = row[p];
        }
        for (index_t i = w; i < W; ++i) {
          for (index_t p = 0; p < kc; ++p) dst[p * W + i] = T(0);
        }
        dst += kc * W;
      }
    } else {
      for (index_t i0 = 0; i0 < mc; i0 += W) {
        const index_t w = std::min(W, mc - i0);
        for (index_t p = 0; p < kc; ++p) {
          index_t i = 0;
          for (; i < w; ++i) dst[i] = a[(i0 + i) * lda + p];
          for (; i < W; ++i) dst[i] = T(0);
          dst += W;
        }
      }
    }
  }

  /// C(mr x nr) -= alpha * Apack-sliver * Bpack-sliver^T over kc terms. The
  /// full MR x NR accumulator is always computed (padded lanes multiply
  /// zeros); only the valid mr x nr corner is written back. alpha is applied
  /// at write-back only (exact for alpha == 1), which is where the packed-
  /// half kernels fold the per-tile scales.
  static void micro_kernel(const T* ap, const T* bp, index_t kc, T alpha, T* c,
                           index_t ldc, index_t mr, index_t nr) {
    T acc[MR][NR] = {};
    for (index_t p = 0; p < kc; ++p) {
      const T* av = ap + p * MR;
      const T* bv = bp + p * NR;
      for (index_t i = 0; i < MR; ++i) {
        const T ai = av[i];
        for (index_t j = 0; j < NR; ++j) acc[i][j] += ai * bv[j];
      }
    }
    if (mr == MR && nr == NR) {
      for (index_t i = 0; i < MR; ++i) {
        T* ci = c + i * ldc;
        for (index_t j = 0; j < NR; ++j) ci[j] -= alpha * acc[i][j];
      }
    } else {
      for (index_t i = 0; i < mr; ++i) {
        T* ci = c + i * ldc;
        for (index_t j = 0; j < nr; ++j) ci[j] -= alpha * acc[i][j];
      }
    }
  }

  /// C (m x n, ldc) -= alpha * A (m x k, lda) * B (n x k, ldb)^T. Operand
  /// types SA/SB are T or common::half (widened while packing).
  template <typename SA, typename SB>
  static void gemm(const SA* a, index_t lda, const SB* b, index_t ldb, T alpha,
                   T* c, index_t ldc, index_t m, index_t n, index_t k) {
    if (m <= 0 || n <= 0 || k <= 0) return;
    const AtomicBlockSizes& bs = block_sizes();
    const index_t KC = bs.kc.load(std::memory_order_relaxed);
    const index_t MC = bs.mc.load(std::memory_order_relaxed);
    const index_t NC = bs.nc.load(std::memory_order_relaxed);
    Scratch& s = scratch();
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      for (index_t jc = 0; jc < n; jc += NC) {
        const index_t nc = std::min(NC, n - jc);
        const index_t nb_slivers = (nc + NR - 1) / NR;
        T* pack_b = s.pack_b.ensure(
            s.arena, static_cast<std::size_t>(nb_slivers * kc * NR));
        pack<NR>(b + jc * ldb + pc, ldb, nc, kc, pack_b);
        for (index_t ic = 0; ic < m; ic += MC) {
          const index_t mc = std::min(MC, m - ic);
          const index_t ma_slivers = (mc + MR - 1) / MR;
          T* pack_a = s.pack_a.ensure(
              s.arena, static_cast<std::size_t>(ma_slivers * kc * MR));
          pack<MR>(a + ic * lda + pc, lda, mc, kc, pack_a);
          for (index_t jr = 0; jr < nc; jr += NR) {
            const T* bp = pack_b + (jr / NR) * kc * NR;
            const index_t nr = std::min(NR, nc - jr);
            for (index_t ir = 0; ir < mc; ir += MR) {
              const T* ap = pack_a + (ir / MR) * kc * MR;
              micro_kernel(ap, bp, kc, alpha, c + (ic + ir) * ldc + jc + jr,
                           ldc, std::min(MR, mc - ir), nr);
            }
          }
        }
      }
    }
  }

  /// C (m x m lower, ldc) -= alpha * A (m x k, lda) * A^T. Off-diagonal
  /// blocks go straight through the GEMM engine; diagonal blocks are computed
  /// densely into scratch and only the lower triangle is written back.
  template <typename SA>
  static void syrk(const SA* a, index_t lda, T alpha, T* c, index_t ldc,
                   index_t m, index_t k) {
    if (m <= 0 || k <= 0) return;
    const index_t MC = block_sizes().mc.load(std::memory_order_relaxed);
    for (index_t i0 = 0; i0 < m; i0 += MC) {
      const index_t mb = std::min(MC, m - i0);
      // Strictly-below-diagonal rectangle.
      gemm(a + i0 * lda, lda, a, lda, alpha, c + i0 * ldc, ldc, mb, i0, k);
      // Diagonal block: dense scratch, triangular write-back. The scratch
      // must be copied out before the next block reuses it, and gemm() uses
      // separate pack buffers so there is no aliasing.
      Scratch& s = scratch();
      T* d = s.diag.ensure(s.arena, static_cast<std::size_t>(mb * mb));
      std::fill_n(d, static_cast<std::size_t>(mb * mb), T(0));
      gemm(a + i0 * lda, lda, a + i0 * lda, lda, alpha, d, mb, mb, mb, k);
      for (index_t i = 0; i < mb; ++i) {
        T* ci = c + (i0 + i) * ldc + i0;
        const T* di = d + i * mb;
        for (index_t j = 0; j <= i; ++j) ci[j] += di[j];
      }
    }
  }

  /// Unblocked ld-aware Cholesky of an nb x nb diagonal panel (nb <= NB).
  /// The scaled multiplier column is staged contiguously so the rank-1
  /// update can run row-wise with unit-stride inner loops the vectorizer
  /// takes; each element still receives exactly the one product the
  /// column-wise reference order computes, so the results are identical.
  static void potrf_panel(T* a, index_t lda, index_t nb) {
    T col[NB];
    for (index_t kk = 0; kk < nb; ++kk) {
      T pivot = a[kk * lda + kk];
      EXACLIM_NUMERIC_CHECK(pivot > T(0),
                            "tile is not positive definite (tile POTRF)" +
                                tile_context_suffix());
      const T lkk = std::sqrt(pivot);
      a[kk * lda + kk] = lkk;
      const T inv = T(1) / lkk;
      for (index_t i = kk + 1; i < nb; ++i) {
        const T v = a[i * lda + kk] * inv;
        a[i * lda + kk] = v;
        col[i] = v;
      }
      for (index_t i = kk + 1; i < nb; ++i) {
        const T ci = col[i];
        T* ai = a + i * lda;
        for (index_t j = kk + 1; j <= i; ++j) ai[j] -= ci * col[j];
      }
    }
  }

  // Column-group width of the sliver solve: CB accumulator registers stay
  // live while every column left of the group streams through one packed
  // load + CB broadcast-FMAs, so the substitution's dominant flops run at
  // micro-kernel intensity instead of one column at a time.
  static constexpr index_t CB = 8;
  // One packed sliver column as a GNU vector: explicit vector arithmetic in
  // the solve below, because the auto-vectorizer reliably picks the wrong
  // axis for this kernel (it interleaves across columns and spills the
  // accumulator block through permute chains). Scalarizes cleanly on
  // targets without the matching ISA.
  typedef T vpack __attribute__((vector_size(PW * sizeof(T)), may_alias));

  /// Forward substitution on one packed sliver of PW independent row lanes:
  /// xp holds nb columns of PW lanes each (xp[j * PW + lane]), so every
  /// multiply-accumulate below runs across a full vector register of rows.
  /// Columns are solved CB at a time: a dense register-blocked update pulls
  /// in all columns left of the group, then the CB x CB triangular corner
  /// substitutes within it. dinv holds the caller-validated pivot
  /// reciprocals, computed once per panel and shared by every sliver.
  static void trsm_sliver(const T* l, index_t ldl, const T* dinv,
                          T* xp, index_t nb) {
    static_assert(CB == 8, "the group solve below is unrolled for CB == 8");
    // xp is alignas(64) in trsm_panel, so column j is the aligned vector
    // x[j].
    vpack* x = reinterpret_cast<vpack*>(xp);
    for (index_t c0 = 0; c0 < nb; c0 += CB) {
      const index_t cb = std::min(CB, nb - c0);
      if (cb == CB) {
        // Dense update from all columns left of the group: one column load
        // feeds eight broadcast-FMAs, CB accumulators stay in registers.
        vpack a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
        const T* lc = l + c0 * ldl;
        for (index_t p = 0; p < c0; ++p) {
          const vpack xv = x[p];
          a0 += xv * lc[p];
          a1 += xv * lc[ldl + p];
          a2 += xv * lc[2 * ldl + p];
          a3 += xv * lc[3 * ldl + p];
          a4 += xv * lc[4 * ldl + p];
          a5 += xv * lc[5 * ldl + p];
          a6 += xv * lc[6 * ldl + p];
          a7 += xv * lc[7 * ldl + p];
        }
        // Triangular corner of the group, substitution fully unrolled.
        // Row pointers are offset to column c0 of rows c0+1 .. c0+7.
        const T* r1 = l + (c0 + 1) * ldl + c0;
        const T* r2 = l + (c0 + 2) * ldl + c0;
        const T* r3 = l + (c0 + 3) * ldl + c0;
        const T* r4 = l + (c0 + 4) * ldl + c0;
        const T* r5 = l + (c0 + 5) * ldl + c0;
        const T* r6 = l + (c0 + 6) * ldl + c0;
        const T* r7 = l + (c0 + 7) * ldl + c0;
        const vpack x0 = (x[c0] - a0) * dinv[c0];
        const vpack x1 = (x[c0 + 1] - a1 - x0 * r1[0]) * dinv[c0 + 1];
        const vpack x2 =
            (x[c0 + 2] - a2 - x0 * r2[0] - x1 * r2[1]) * dinv[c0 + 2];
        const vpack x3 = (x[c0 + 3] - a3 - x0 * r3[0] - x1 * r3[1] -
                          x2 * r3[2]) * dinv[c0 + 3];
        const vpack x4 = (x[c0 + 4] - a4 - x0 * r4[0] - x1 * r4[1] -
                          x2 * r4[2] - x3 * r4[3]) * dinv[c0 + 4];
        const vpack x5 = (x[c0 + 5] - a5 - x0 * r5[0] - x1 * r5[1] -
                          x2 * r5[2] - x3 * r5[3] - x4 * r5[4]) *
                         dinv[c0 + 5];
        const vpack x6 = (x[c0 + 6] - a6 - x0 * r6[0] - x1 * r6[1] -
                          x2 * r6[2] - x3 * r6[3] - x4 * r6[4] -
                          x5 * r6[5]) * dinv[c0 + 6];
        const vpack x7 = (x[c0 + 7] - a7 - x0 * r7[0] - x1 * r7[1] -
                          x2 * r7[2] - x3 * r7[3] - x4 * r7[4] -
                          x5 * r7[5] - x6 * r7[6]) * dinv[c0 + 7];
        x[c0] = x0;
        x[c0 + 1] = x1;
        x[c0 + 2] = x2;
        x[c0 + 3] = x3;
        x[c0 + 4] = x4;
        x[c0 + 5] = x5;
        x[c0 + 6] = x6;
        x[c0 + 7] = x7;
      } else {
        // Ragged last group of a short panel; never on the hot path.
        T acc[CB][PW] = {};
        for (index_t p = 0; p < c0; ++p) {
          const T* xc = xp + p * PW;
          for (index_t jj = 0; jj < cb; ++jj) {
            const T ljp = l[(c0 + jj) * ldl + p];
            for (index_t v = 0; v < PW; ++v) acc[jj][v] += xc[v] * ljp;
          }
        }
        for (index_t jj = 0; jj < cb; ++jj) {
          const index_t j = c0 + jj;
          const T* lj = l + j * ldl;
          T* xj = xp + j * PW;
          for (index_t v = 0; v < PW; ++v) xj[v] -= acc[jj][v];
          for (index_t p = c0; p < j; ++p) {
            const T lp = lj[p];
            const T* xc = xp + p * PW;
            for (index_t v = 0; v < PW; ++v) xj[v] -= xc[v] * lp;
          }
          const T dj = dinv[j];
          for (index_t v = 0; v < PW; ++v) xj[v] *= dj;
        }
      }
    }
  }

  /// Forward substitution X * L^T = B against an nb x nb (nb <= NB) lower
  /// triangular diagonal block. Rows of B are independent systems, so PW of
  /// them at a time are packed column-major into a stack sliver and solved
  /// simultaneously; a ragged last sliver pads with zero lanes (solved
  /// harmlessly, never written back).
  static void trsm_panel(const T* l, index_t ldl, T* b, index_t ldb, index_t m,
                         index_t nb) {
    // Validate every pivot up front and take its reciprocal once: the
    // slivers then scale by a multiply instead of serializing on a vector
    // divide per column, and the nb divisions amortize across all m rows.
    T dinv[NB];
    for (index_t j = 0; j < nb; ++j) {
      EXACLIM_NUMERIC_CHECK(l[j * ldl + j] != T(0),
                            "singular TRSM pivot" + tile_context_suffix());
      dinv[j] = T(1) / l[j * ldl + j];
    }
    alignas(64) T xp[PW * NB];
    for (index_t r0 = 0; r0 < m; r0 += PW) {
      const index_t w = std::min(PW, m - r0);
      for (index_t lane = 0; lane < w; ++lane) {
        const T* br = b + (r0 + lane) * ldb;
        for (index_t j = 0; j < nb; ++j) xp[j * PW + lane] = br[j];
      }
      if (w < PW) {
        for (index_t j = 0; j < nb; ++j) {
          for (index_t lane = w; lane < PW; ++lane) xp[j * PW + lane] = T(0);
        }
      }
      trsm_sliver(l, ldl, dinv, xp, nb);
      for (index_t lane = 0; lane < w; ++lane) {
        T* br = b + (r0 + lane) * ldb;
        for (index_t j = 0; j < nb; ++j) br[j] = xp[j * PW + lane];
      }
    }
  }

  /// Blocked X * L^T = B (B is m x n, ldb; L is n x n, ldl): march NB-wide
  /// column panels, clearing each panel's left contribution with one packed
  /// GEMM before the vectorized triangular solve on the panel itself.
  static void trsm(const T* l, index_t ldl, T* b, index_t ldb, index_t m,
                   index_t n) {
    for (index_t j0 = 0; j0 < n; j0 += NB) {
      const index_t jb = std::min(NB, n - j0);
      gemm(b, ldb, l + j0 * ldl, ldl, T(1), b + j0, ldb, m, jb, j0);
      trsm_panel(l + j0 * ldl + j0, ldl, b + j0, ldb, m, jb);
    }
  }

  /// Recursive blocked Cholesky: split A = [[A11, .], [A21, A22]] at a
  /// panel-aligned midpoint, factor A11, clear A21 with one large blocked
  /// TRSM, update A22 with one large blocked SYRK, recurse into A22. The
  /// near-halving keeps the TRSM/SYRK operands big enough to run at packed-
  /// engine speed (a fixed NB-panel loop feeds them slivers instead);
  /// recursion bottoms out in the vectorized unblocked panel.
  static void potrf(T* a, index_t lda, index_t n) {
    if (n <= NB) {
      potrf_panel(a, lda, n);
      return;
    }
    const index_t n1 = ((n / 2 + NB - 1) / NB) * NB;  // < n whenever n > NB
    const index_t n2 = n - n1;
    potrf(a, lda, n1);
    T* a21 = a + n1 * lda;
    trsm(a, lda, a21, lda, n2, n1);
    syrk(a21, lda, T(1), a21 + n1, lda, n2, n1);
    potrf(a21 + n1, lda, n2);
  }
};

}  // namespace

void trim_thread_scratch_on_pressure() {
  // Memory-pressure ladder rung 2, polled by the scheduler between tasks —
  // the only point where the calling worker provably holds no live arena
  // pointers (syrk keeps its diag scratch alive across nested gemm calls, so
  // trimming inside a kernel would dangle). Two relaxed atomic loads when no
  // pressure was signalled.
  Blocked<float>::scratch().arena.maybe_trim_on_pressure();
  Blocked<double>::scratch().arena.maybe_trim_on_pressure();
}

void release_thread_scratch() {
  Blocked<float>::scratch().arena.trim();
  Blocked<double>::scratch().arena.trim();
}

// --- Blocked entry points ----------------------------------------------------

void potrf_lower_f64(double* a, index_t n) { Blocked<double>::potrf(a, n, n); }
void potrf_lower_f32(float* a, index_t n) { Blocked<float>::potrf(a, n, n); }

void trsm_rlt_f64(const double* l, double* b, index_t m, index_t n) {
  Blocked<double>::trsm(l, n, b, n, m, n);
}
void trsm_rlt_f32(const float* l, float* b, index_t m, index_t n) {
  Blocked<float>::trsm(l, n, b, n, m, n);
}

void gemm_nt_minus_f64(const double* a, const double* b, double* c, index_t m,
                       index_t n, index_t k) {
  Blocked<double>::gemm(a, k, b, k, 1.0, c, n, m, n, k);
}
void gemm_nt_minus_f32(const float* a, const float* b, float* c, index_t m,
                       index_t n, index_t k) {
  Blocked<float>::gemm(a, k, b, k, 1.0f, c, n, m, n, k);
}

void syrk_ln_minus_f64(const double* a, double* c, index_t m, index_t k) {
  Blocked<double>::syrk(a, k, 1.0, c, m, m, k);
}
void syrk_ln_minus_f32(const float* a, float* c, index_t m, index_t k) {
  Blocked<float>::syrk(a, k, 1.0f, c, m, m, k);
}

namespace {
/// Product of two per-tile scales, computed in double and clamped into the
/// finite float range: an overflowed (inf) alpha would turn zero
/// accumulators into NaN via inf * 0 at write-back, whereas with a clamped
/// alpha zero updates stay zero and non-zero updates overflow f32 exactly
/// where the true values do.
float fold_scales(float sa, float sb) {
  const double alpha = static_cast<double>(sa) * static_cast<double>(sb);
  return static_cast<float>(
      std::clamp(alpha, -double{FLT_MAX}, double{FLT_MAX}));
}
}  // namespace

void gemm_nt_minus_f16(const common::half* a, float a_scale,
                       const common::half* b, float b_scale, float* c,
                       index_t m, index_t n, index_t k) {
  Blocked<float>::gemm(a, k, b, k, fold_scales(a_scale, b_scale), c, n, m, n,
                       k);
}

void syrk_ln_minus_f16(const common::half* a, float a_scale, float* c,
                       index_t m, index_t k) {
  Blocked<float>::syrk(a, k, fold_scales(a_scale, a_scale), c, m, m, k);
}

void trsm_rlt_f16(const float* l, const common::half* b, float b_scale,
                  float* x, index_t m, index_t n) {
  // Widen the packed halves unscaled into the output buffer and solve there.
  // The solve is linear in B and b_scale is a power of two, so applying the
  // scale once at write-back is exact and equal to solving the scaled RHS —
  // without ever materializing a scaled f32 copy of the tile.
  widen_f16_block(b, x, m * n);
  Blocked<float>::trsm(l, n, x, n, m, n);
  if (b_scale != 1.0f) {
    const index_t count = m * n;
    for (index_t i = 0; i < count; ++i) x[i] *= b_scale;
  }
}

// --- Kernel tuning -----------------------------------------------------------

namespace {

/// Rounds v down to a multiple of `mult`, then clamps to [lo, hi] (both
/// multiples of mult themselves).
index_t round_block(index_t v, index_t mult, index_t lo, index_t hi) {
  return std::clamp((v / mult) * mult, lo, hi);
}

/// Analytic KC/MC/NC for one element type from detected cache sizes. A cache
/// level of 0 (unknown) keeps that parameter at its fixed default.
template <typename T>
BlockSizes analytic_sizes(const common::CacheSizes& cache) {
  BlockSizes bs;  // member initializers are the fixed defaults
  constexpr index_t MR = Blocked<T>::MR;
  constexpr index_t NR = Blocked<T>::NR;
  constexpr index_t es = static_cast<index_t>(sizeof(T));
  if (cache.l1d > 0) {
    // One MR-sliver plus one NR-sliver of depth KC should fill ~3/4 of L1d,
    // leaving room for the accumulator tile and stack traffic.
    const index_t kc =
        (3 * static_cast<index_t>(cache.l1d) / 4) / ((MR + NR) * es);
    bs.kc = round_block(kc, 32, 64, 1024);
  }
  if (cache.l2 > 0) {
    // The MC x KC packed A block targets half of L2.
    const index_t mc = (static_cast<index_t>(cache.l2) / 2) / (bs.kc * es);
    bs.mc = round_block(mc, MR, MR, 4096);
  }
  if (cache.l3 > 0) {
    // The KC x NC packed B panel targets half of L3.
    const index_t nc = (static_cast<index_t>(cache.l3) / 2) / (bs.kc * es);
    bs.nc = round_block(nc, NR, NR, index_t{1} << 16);
  }
  return bs;
}

/// Writes one element type's block sizes into the engine's atomics.
template <typename T>
void store_blocks(const BlockSizes& bs) {
  AtomicBlockSizes& g = g_block[sizeof(T) == 8 ? 0 : 1];
  g.kc.store(bs.kc, std::memory_order_relaxed);
  g.mc.store(bs.mc, std::memory_order_relaxed);
  g.nc.store(bs.nc, std::memory_order_relaxed);
}

template <typename T>
BlockSizes load_blocks() {
  const AtomicBlockSizes& g = g_block[sizeof(T) == 8 ? 0 : 1];
  BlockSizes bs;
  bs.kc = g.kc.load(std::memory_order_relaxed);
  bs.mc = g.mc.load(std::memory_order_relaxed);
  bs.nc = g.nc.load(std::memory_order_relaxed);
  return bs;
}

/// Best-of-5 seconds for one n=256 GEMM under the candidate blocking. The
/// caller snapshots and restores the engine blocking around probe calls.
template <typename T>
double probe_seconds(const BlockSizes& bs) {
  constexpr index_t n = 256;
  store_blocks<T>(bs);
  std::vector<T> a(n * n), b(n * n), c(n * n, T(0));
  for (index_t i = 0; i < n * n; ++i) {
    a[i] = T(0.001) * static_cast<T>((i % 37) - 18);
    b[i] = T(0.001) * static_cast<T>((i % 29) - 14);
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    common::Timer t;
    Blocked<T>::gemm(a.data(), n, b.data(), n, T(1), c.data(), n, n, n, n);
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

KernelTuning fixed_tuning() {
  KernelTuning t;  // BlockSizes defaults are the compiled-in fixed set
  const common::CacheSizes& cache = common::Topology::instance().cache();
  t.l1d_bytes = cache.l1d;
  t.l2_bytes = cache.l2;
  t.l3_bytes = cache.l3;
  return t;
}

KernelTuning derive_auto_tuning() {
  // Memoized per process: the analytic derivation is deterministic given
  // /sys, and running the timing probe once pins the analytic-vs-fixed
  // choice for the process lifetime, so repeated derivations (and therefore
  // repeated factorizations under --tune=auto) agree.
  static std::once_flag once;
  static KernelTuning memo;
  std::call_once(once, [] {
    KernelTuning t = fixed_tuning();
    t.mode = TuneMode::Auto;
    const common::CacheSizes cache{t.l1d_bytes, t.l2_bytes, t.l3_bytes};
    if (cache.l1d == 0 && cache.l2 == 0 && cache.l3 == 0) {
      memo = t;  // /sys unreadable: degrade to the fixed blocking
      return;
    }
    const BlockSizes cand64 = analytic_sizes<double>(cache);
    const BlockSizes cand32 = analytic_sizes<float>(cache);
    // Micro-probe tie-break: the analytic candidate must beat the fixed
    // defaults by >5% (best-of-5 each) to displace them, so noise cannot
    // flip near-equal configurations between runs.
    const BlockSizes saved64 = load_blocks<double>();
    const BlockSizes saved32 = load_blocks<float>();
    const BlockSizes fixed{};
    if (probe_seconds<double>(cand64) < 0.95 * probe_seconds<double>(fixed)) {
      t.f64 = cand64;
    }
    if (probe_seconds<float>(cand32) < 0.95 * probe_seconds<float>(fixed)) {
      t.f32 = cand32;
    }
    store_blocks<double>(saved64);
    store_blocks<float>(saved32);
    t.probed = true;
    memo = t;
  });
  return memo;
}

KernelTuning active_tuning() {
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  if (!g_tuning_init) {
    // Lazily fill in the detected cache sizes for reporting; the block
    // sizes are the defaults the atomics were initialized with.
    const common::CacheSizes& cache = common::Topology::instance().cache();
    g_tuning.l1d_bytes = cache.l1d;
    g_tuning.l2_bytes = cache.l2;
    g_tuning.l3_bytes = cache.l3;
    g_tuning_init = true;
  }
  return g_tuning;
}

void apply_tuning(const KernelTuning& tuning) {
  for (const BlockSizes* bs : {&tuning.f64, &tuning.f32}) {
    if (bs->kc <= 0 || bs->mc <= 0 || bs->nc <= 0) {
      throw exaclim::InvalidArgument(
          "kernel tuning: block sizes must be positive (kc=" +
          std::to_string(bs->kc) + " mc=" + std::to_string(bs->mc) +
          " nc=" + std::to_string(bs->nc) + ")");
    }
  }
  store_blocks<double>(tuning.f64);
  store_blocks<float>(tuning.f32);
  std::lock_guard<std::mutex> lock(g_tuning_mu);
  g_tuning = tuning;
  g_tuning_init = true;
}

void set_tune_mode(TuneMode mode) {
  apply_tuning(mode == TuneMode::Auto ? derive_auto_tuning() : fixed_tuning());
}

TuneMode parse_tune_mode(const std::string& text) {
  if (text == "fixed") return TuneMode::Fixed;
  if (text == "auto") return TuneMode::Auto;
  throw exaclim::InvalidArgument("--tune: expected 'fixed' or 'auto', got '" +
                                text + "'");
}

std::string tune_mode_name(TuneMode mode) {
  return mode == TuneMode::Auto ? "auto" : "fixed";
}

// --- Scalar reference oracles ------------------------------------------------

void potrf_lower_ref_f64(double* a, index_t n) { potrf_ref_impl(a, n); }
void potrf_lower_ref_f32(float* a, index_t n) { potrf_ref_impl(a, n); }

void trsm_rlt_ref_f64(const double* l, double* b, index_t m, index_t n) {
  trsm_ref_impl(l, b, m, n);
}
void trsm_rlt_ref_f32(const float* l, float* b, index_t m, index_t n) {
  trsm_ref_impl(l, b, m, n);
}

void gemm_nt_minus_ref_f64(const double* a, const double* b, double* c,
                           index_t m, index_t n, index_t k) {
  gemm_ref_impl(a, b, c, m, n, k);
}
void gemm_nt_minus_ref_f32(const float* a, const float* b, float* c, index_t m,
                           index_t n, index_t k) {
  gemm_ref_impl(a, b, c, m, n, k);
}

void syrk_ln_minus_ref_f64(const double* a, double* c, index_t m, index_t k) {
  syrk_ref_impl(a, c, m, k);
}
void syrk_ln_minus_ref_f32(const float* a, float* c, index_t m, index_t k) {
  syrk_ref_impl(a, c, m, k);
}

// --- Precision conversion ----------------------------------------------------

void convert_f64_to_f32(const double* src, float* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] = static_cast<float>(src[i]);
}
void convert_f32_to_f64(const float* src, double* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] = static_cast<double>(src[i]);
}
void convert_f64_to_f16(const double* src, common::half* dst, index_t count) {
  // half(double) rounds once, straight from the f64 mantissa; narrowing
  // through float first would round twice (see double_to_half_bits).
  for (index_t i = 0; i < count; ++i) dst[i] = common::half(src[i]);
}
void convert_f16_to_f64(const common::half* src, double* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] = static_cast<double>(src[i]);
}
void convert_f32_to_f16(const float* src, common::half* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] = common::half(src[i]);
}
void convert_f16_to_f32(const common::half* src, float* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] = static_cast<float>(src[i]);
}

void round_through_f16(float* data, index_t count) {
  for (index_t i = 0; i < count; ++i) {
    data[i] = static_cast<float>(common::half(data[i]));
  }
}

float convert_f64_to_f16_scaled(const double* src, common::half* dst,
                                index_t count) {
  double max_abs = 0.0;
  for (index_t i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::abs(src[i]));
  }
  const float scale = pick_f16_scale(max_abs);
  // 1/scale is a normal float by construction; multiplying by it is exact.
  const double inv = 1.0 / static_cast<double>(scale);
  for (index_t i = 0; i < count; ++i) dst[i] = common::half(src[i] * inv);
  return scale;
}

float convert_f32_to_f16_scaled(const float* src, common::half* dst,
                                index_t count) {
  float max_abs = 0.0f;
  for (index_t i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::abs(src[i]));
  }
  const float scale = pick_f16_scale(static_cast<double>(max_abs));
  const float inv = 1.0f / scale;
  index_t i = 0;
#if defined(__F16C__)
  const __m256 vinv = _mm256_set1_ps(inv);
  for (; i + 8 <= count; i += 8) {
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // half is a trivially-copyable wire type; the void* cast silences
    // -Wclass-memaccess, which can't see through the constructor overloads.
    std::memcpy(static_cast<void*>(dst + i), &h, 16);
  }
#endif
  for (; i < count; ++i) dst[i] = common::half(src[i] * inv);
  return scale;
}

void convert_f16_scaled_to_f64(const common::half* src, float scale,
                               double* dst, index_t count) {
  const double s = static_cast<double>(scale);
  for (index_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(common::half_bits_to_float(src[i].bits())) * s;
  }
}

void convert_f16_scaled_to_f32(const common::half* src, float scale,
                               float* dst, index_t count) {
  widen_f16_block(src, dst, count);
  if (scale == 1.0f) return;
  for (index_t i = 0; i < count; ++i) dst[i] *= scale;
}

// --- Serving: batched multi-RHS apply over a packed-triangle factor ---------

namespace {

/// Accumulates x[0..K) += lv * z[0..K) honoring the cancelled-column mask.
/// The skip == 0 fast path is the hot serving loop; with cancellations the
/// surviving columns see exactly the same operations in the same order, so
/// a co-batched request timing out never perturbs anyone else's bits.
inline void axpy_row(double lv, const double* z, double* x, index_t k_cols,
                     std::uint64_t skip) {
  if (skip == 0) {
    for (index_t k = 0; k < k_cols; ++k) x[k] += lv * z[k];
    return;
  }
  for (index_t k = 0; k < k_cols; ++k) {
    if (((skip >> k) & 1u) == 0) x[k] += lv * z[k];
  }
}

/// Byte offset of packed row r (its first stored element or, for F16Scaled,
/// its scale prefix).
inline std::size_t packed_row_offset(PackedStorage storage, index_t r) {
  const auto tri = static_cast<std::size_t>(r) * static_cast<std::size_t>(r + 1) / 2;
  switch (storage) {
    case PackedStorage::F64: return tri * sizeof(double);
    case PackedStorage::F32: return tri * sizeof(float);
    case PackedStorage::F16Scaled:
      return static_cast<std::size_t>(r) * sizeof(float) +
             tri * sizeof(std::uint16_t);
  }
  return 0;
}

}  // namespace

std::size_t packed_factor_bytes(PackedStorage storage, index_t n) {
  return packed_row_offset(storage, n);
}

void sample_apply_packed(const PackedFactorView& l, index_t r0, index_t r1,
                         index_t c0, index_t c1, const double* z, double* x,
                         index_t k_cols, std::uint64_t skip) {
  EXACLIM_CHECK(k_cols >= 1 && k_cols <= 64,
                "sample_apply_packed batches at most 64 columns");
  EXACLIM_CHECK(0 <= r0 && r0 <= r1 && r1 <= l.n && 0 <= c0 && c0 <= c1 &&
                    c1 <= l.n,
                "sample_apply_packed block out of range");
  EXACLIM_CHECK(l.size_bytes >= packed_factor_bytes(l.storage, l.n),
                "packed factor payload shorter than its dimension implies");
  // The frame layout keeps every factor payload 8-aligned (all preceding
  // sections are multiples of 8 bytes); the typed row loads below rely on it.
  EXACLIM_CHECK(reinterpret_cast<std::uintptr_t>(l.bytes) % 8 == 0,
                "packed factor payload is not 8-byte aligned");
  if (skip == (k_cols >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << k_cols) - 1)) {
    return;  // every column cancelled: the whole block pass is dead work
  }

  for (index_t r = r0; r < r1; ++r) {
    const index_t c_end = std::min(c1, r + 1);  // lower triangle: c <= r
    if (c_end <= c0) continue;
    double* xr = x + r * k_cols;
    const unsigned char* row = l.bytes + packed_row_offset(l.storage, r);
    switch (l.storage) {
      case PackedStorage::F64: {
        const double* lr = reinterpret_cast<const double*>(row);
        for (index_t c = c0; c < c_end; ++c) {
          axpy_row(lr[c], z + c * k_cols, xr, k_cols, skip);
        }
        break;
      }
      case PackedStorage::F32: {
        const float* lr = reinterpret_cast<const float*>(row);
        for (index_t c = c0; c < c_end; ++c) {
          axpy_row(static_cast<double>(lr[c]), z + c * k_cols, xr, k_cols,
                   skip);
        }
        break;
      }
      case PackedStorage::F16Scaled: {
        float scale = 0.0f;
        std::memcpy(&scale, row, sizeof(scale));
        const double s = static_cast<double>(scale);
        const auto* lr =
            reinterpret_cast<const std::uint16_t*>(row + sizeof(float));
        for (index_t c = c0; c < c_end; ++c) {
          const double lv =
              static_cast<double>(common::half_bits_to_float(lr[c])) * s;
          axpy_row(lv, z + c * k_cols, xr, k_cols, skip);
        }
        break;
      }
    }
  }
}

}  // namespace exaclim::linalg
