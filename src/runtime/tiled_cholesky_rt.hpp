// Mixed-precision tile Cholesky (right-looking) on the task runtime — the
// library's one tiled factorization.
//
// Factorizes a TiledSymmetricMatrix in place: on return the lower-triangle
// tiles hold L with A ~= L L^T, each tile still in its assigned storage
// precision. The task structure matches the paper (Section V-A):
//   POTRF(k,k)  -> broadcasts to TRSM(i,k), i > k
//   TRSM(i,k)   -> broadcasts to GEMM(i,j,k) in row i / column i, SYRK(i,k)
// Tasks compute in the precision class of their *output* tile; fp16 tiles
// compute with half-rounded operands and fp32 accumulation (tensor-core
// semantics). The graph runs on the work-stealing scheduler at any thread
// count, threads = 1 included, and the factor is bit-identical across
// thread counts and conversion placements. Precision-conversion placement
// (linalg::ConversionPlacement) is expressed in the DAG itself:
//   * Sender placement inserts explicit CONVERT tasks right after the
//     producing POTRF/TRSM, writing a shared converted copy that all
//     consumers read — one conversion per (tile, precision), exactly
//     PaRSEC's sender-side reshaping in the paper (Section V-A).
//   * Receiver placement performs conversions privately inside each
//     consuming task (the [34] baseline): no CONVERT tasks, more conversion
//     work, more memory traffic.
//
// The same builder is used by the perfmodel at small tile counts to validate
// the analytic cluster model against a real DAG.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/io.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace exaclim::runtime {

/// Fault-tolerance knobs for the tiled factorization. All off by default:
/// the library behaves exactly as before unless a caller opts in.
struct FaultToleranceOptions {
  /// Task-level recovery: a diagonal POTRF that throws NumericalError
  /// retries with precision escalation (f16 -> f32 -> f64) and then a
  /// bounded diagonal-jitter ladder (the solve.cpp policy at tile
  /// granularity) before a structured TaskFailure propagates.
  bool enabled = false;
  /// CRC32C tile-payload guards: each task verifies the tiles it reads and
  /// re-records the tile it writes, plus a whole-matrix sweep before and
  /// after the run, so silent bit corruption becomes a structured failure.
  bool integrity_checks = false;
  int max_jitter_tries = 6;    ///< jitter ladder length (x10 per rung)
  double jitter_base = 1e-10;  ///< first rung, relative to the diagonal scale
  /// Checkpoint/restart: when `checkpoint_path` is set the run snapshots the
  /// completed-task frontier plus tile payloads every `checkpoint_every`
  /// newly-executed tasks (0 = once, at completion). `resume_path` restores
  /// tiles from a prior checkpoint and prunes its completed tasks from the
  /// rebuilt graph before executing the remainder.
  std::string checkpoint_path;
  index_t checkpoint_every = 0;
  std::string resume_path;
  /// Durability policy for checkpoint writes (--checkpoint-sync): Full
  /// fsyncs file + directory, Data fdatasyncs the file only, None skips
  /// syncing entirely. Atomic-rename crash consistency holds for all three.
  common::SyncPolicy checkpoint_sync = common::SyncPolicy::Full;
};

struct RtCholeskyOptions {
  linalg::ConversionPlacement placement = linalg::ConversionPlacement::Sender;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  bool collect_trace = false;
  /// Stall watchdog (see SchedulerOptions): > 0 arms a monitor that dumps
  /// per-worker state after this many seconds without a task completing and
  /// fails the run with StallError once the grace period also lapses.
  double stall_timeout_seconds = 0.0;
  double stall_grace_seconds = 0.0;  ///< <= 0: same as the timeout
  /// DAG verification gate, forwarded to SchedulerOptions::verify (see
  /// runtime/verify_mode.hpp): static graph proof before execution, optional
  /// dynamic shadow checking of the executed schedule.
  VerifyMode verify = VerifyMode::Default;
  FaultToleranceOptions ft;
};

struct RtCholeskyResult {
  RunStats run;
  index_t total_tasks = 0;
  index_t convert_tasks = 0;
  double element_conversions = 0.0;
  index_t critical_path_tasks = 0;
  index_t precision_escalations = 0;  ///< POTRF tiles widened after failure
  index_t jitter_escalations = 0;     ///< POTRF jitter-ladder rungs taken
  index_t checkpoints_written = 0;
  bool resumed = false;               ///< tiles restored from resume_path
};

/// Factorizes `a` in place. A diagonal tile that is not positive definite
/// fails the run (after quiescing the worker pool) with a TaskFailure
/// naming the POTRF tile.
RtCholeskyResult cholesky_tiled_parallel(linalg::TiledSymmetricMatrix& a,
                                         const RtCholeskyOptions& options = {},
                                         Trace* trace = nullptr);

/// Convenience: tiles a dense SPD matrix with tile size `nb` under the band
/// policy of variant `v`, factorizes it with cholesky_tiled_parallel and
/// returns the dense lower factor (upper zeroed). `result`, when non-null,
/// receives the run's RtCholeskyResult.
linalg::Matrix cholesky_mixed_dense(const linalg::Matrix& a, index_t nb,
                                    linalg::PrecisionVariant v,
                                    const RtCholeskyOptions& options = {},
                                    RtCholeskyResult* result = nullptr);

/// Holds the task graph plus the converted-copy buffers the task bodies
/// reference; must outlive execution.
class CholeskyGraph {
 public:
  CholeskyGraph(linalg::TiledSymmetricMatrix& a,
                linalg::ConversionPlacement placement,
                const FaultToleranceOptions& ft = {});

  TaskGraph& graph() { return graph_; }
  const TaskGraph& graph() const { return graph_; }
  index_t convert_tasks() const { return convert_tasks_; }
  double element_conversions() const { return element_conversions_; }

  /// Kernel (non-CONVERT) task ids in submission order. This sequence
  /// depends only on the tile count, never on precision-driven CONVERT
  /// placement, so it is the stable coordinate system checkpoints use to
  /// record the completed-task frontier across graph rebuilds.
  const std::vector<TaskId>& kernel_task_ids() const { return kernel_ids_; }

  index_t precision_escalations() const {
    return precision_escalations_.load(std::memory_order_relaxed);
  }
  index_t jitter_escalations() const {
    return jitter_escalations_.load(std::memory_order_relaxed);
  }

  /// Records the current CRC32C of every tile (integrity mode): the trusted
  /// baseline before a run, and after a checkpoint restore.
  void seed_tile_checksums();
  /// Verifies every tile against its recorded CRC32C; throws a structured
  /// TaskFailure on the first mismatch. Catches corruption in tiles no
  /// remaining task would otherwise read (e.g. the last diagonal).
  void verify_tile_checksums() const;

 private:
  struct Copy {
    std::vector<double> d;
    std::vector<float> f;
    std::vector<common::half> h;  // packed-half operand form
    float hscale = 1.0f;          // scale of h, written by the CONVERT task
  };
  /// F16P = packed binary16 + scale, the operand form of the packed-half
  /// kernels. FP16-stored tiles are already in it (no CONVERT task needed).
  enum class Repr : std::uint8_t { F64, F32, F16P };

  static Repr operand_repr(linalg::Precision out);
  static Repr natural_repr(linalg::Precision storage);
  /// The copy plane a CONVERT producing `repr` writes (effect metadata).
  static TilePlane repr_plane(Repr repr);

  /// Handle + buffer for a converted copy, created on first need.
  struct CopySlot {
    DataHandle handle;
    Copy buffer;
  };

  CopySlot& copy_slot(index_t i, index_t j, Repr repr);
  /// Ensures a CONVERT task exists producing (i,j) in `repr`; returns the
  /// handle consumers should read. `producer_handle` is the tile handle.
  DataHandle ensure_convert(index_t i, index_t j, Repr repr, index_t k);

  DataHandle tile_handle(index_t i, index_t j) const {
    return tile_handles_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }

  void build();

  /// Wraps a kernel-task body with integrity guards (no-op unless
  /// ft_.integrity_checks): verify the CRCs of `reads` and of the output
  /// tile, run the body, re-record the output tile's CRC, then give the
  /// fault injector its post-write corruption window.
  std::function<void()> guard(std::function<void()> body, TaskKind kind,
                              std::vector<std::pair<index_t, index_t>> reads,
                              index_t out_i, index_t out_j,
                              std::uint64_t salt);
  void record_tile_crc(index_t i, index_t j);
  void verify_tile_crc(index_t i, index_t j, const char* when) const;

  linalg::TiledSymmetricMatrix& a_;
  linalg::ConversionPlacement placement_;
  FaultToleranceOptions ft_;
  TaskGraph graph_;
  std::vector<DataHandle> tile_handles_;
  std::map<std::tuple<index_t, index_t, int>, std::unique_ptr<CopySlot>> copies_;
  std::vector<TaskId> kernel_ids_;
  index_t convert_tasks_ = 0;
  double element_conversions_ = 0.0;
  std::atomic<index_t> precision_escalations_{0};
  std::atomic<index_t> jitter_escalations_{0};
  /// Per-tile trusted CRC32C (packed lower triangle) + validity flags;
  /// written under the DAG's tile-dependency serialization, so no two tasks
  /// race on one tile's entry.
  mutable std::vector<std::atomic<std::uint32_t>> tile_crcs_;
  mutable std::vector<std::atomic<std::uint8_t>> tile_crc_valid_;
};

}  // namespace exaclim::runtime
