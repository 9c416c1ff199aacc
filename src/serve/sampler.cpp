#include "serve/sampler.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exaclim::serve {

BatchSampler::BatchSampler(const core::FrozenModel& model,
                           SamplerOptions options)
    : model_(model), options_(options) {
  EXACLIM_CHECK(options_.tile > 0, "sampler tile must be positive");
}

BatchOutcome BatchSampler::run_batch(
    const std::vector<SampleRequest>& requests, bool degraded,
    std::uint64_t batch_key) {
  const auto k_cols = static_cast<index_t>(requests.size());
  EXACLIM_CHECK(k_cols >= 1 && k_cols <= runtime::BatchControl::kMaxBatch,
                "batch width must be in [1, 64]");
  const index_t n = model_.factor_dim();

  // Column k is drawn from its request's own split stream, in ascending
  // coefficient order — a pure function of (service seed, request_id),
  // independent of the co-batched columns.
  z_.resize(static_cast<std::size_t>(n * k_cols));
  const common::Rng master(options_.seed);
  for (index_t k = 0; k < k_cols; ++k) {
    common::Rng stream =
        master.split(requests[static_cast<std::size_t>(k)].request_id);
    for (index_t c = 0; c < n; ++c) {
      z_[static_cast<std::size_t>(c * k_cols + k)] = stream.normal();
    }
  }
  x_.assign(static_cast<std::size_t>(n * k_cols), 0.0);
  last_width_ = k_cols;

  runtime::BatchControl control;
  control.deadlines.resize(static_cast<std::size_t>(k_cols));
  for (index_t k = 0; k < k_cols; ++k) {
    control.deadlines[static_cast<std::size_t>(k)] =
        requests[static_cast<std::size_t>(k)].deadline;
  }
  // Requests that expired while queued are cancelled before any compute:
  // every tile task sees their bit set from its first poll.
  control.poll(std::chrono::steady_clock::now());

  const linalg::PackedFactorView factor =
      degraded ? model_.degraded_factor() : model_.factor();
  runtime::SamplingDagOptions dag_options;
  dag_options.tile = options_.tile;
  dag_options.batch_key = batch_key;
  runtime::SchedulerOptions sched;
  sched.threads = options_.threads;
  sched.retry = options_.retry;
  sched.verify = options_.verify;
  sched.stall_timeout_seconds = options_.stall_timeout_seconds;

  BatchOutcome outcome;
  outcome.stats = runtime::run_sampling(factor, z_.data(), x_.data(), k_cols,
                                        &control, dag_options, sched);
  // Report the mask the tasks actually observed — not a fresh poll. A column
  // whose deadline passed after its last tile task completed still holds a
  // full, valid draw; cancellation only invalidates columns some task
  // skipped.
  outcome.cancelled_mask = control.cancelled.load(std::memory_order_acquire);
  return outcome;
}

void BatchSampler::extract_column(index_t k, double* out) const {
  EXACLIM_CHECK(k >= 0 && k < last_width_, "no such batch column");
  const index_t n = model_.factor_dim();
  for (index_t c = 0; c < n; ++c) {
    out[c] = x_[static_cast<std::size_t>(c * last_width_ + k)];
  }
}

}  // namespace exaclim::serve
