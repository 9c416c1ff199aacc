#include "core/var_forward.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "runtime/sampling_dag.hpp"

namespace exaclim::core {

namespace {

/// Block edge of the innovation sampling DAG. At n = 1024 it gives eight
/// block rows — enough independent task chains to keep a few cores busy —
/// while each task still streams a 128 x 128 factor block past 64 columns.
constexpr index_t kSamplingTile = 128;

}  // namespace

void run_member_var(const linalg::Matrix& factor,
                    std::span<const stats::ArModel> ar,
                    const EmulatorConfig& config, index_t num_steps,
                    std::uint64_t seed, index_t member,
                    const std::function<void(const StepPanel&)>& consume) {
  const index_t n = factor.rows();
  EXACLIM_CHECK(factor.cols() == n && static_cast<index_t>(ar.size()) == n,
                "factor and AR models must share the innovation dimension");
  const index_t P = config.ar_order;
  const index_t burn = config.emulation_burn_in + P;
  const index_t total = burn + num_steps;
  const unsigned threads =
      config.threads == 0 ? common::default_thread_count() : config.threads;

  runtime::SchedulerOptions sched;
  sched.threads = config.threads;
  sched.verify = config.verify_mode;
  sched.stall_timeout_seconds = config.stall_timeout_seconds;
  sched.stall_grace_seconds = config.stall_grace_seconds;
  runtime::SamplingDagOptions dag;
  dag.tile = kSamplingTile;
  const linalg::PackedFactorView view =
      linalg::dense_factor_view(factor.data(), n);

  const common::Rng member_rng = common::Rng(seed).split(
      static_cast<std::uint64_t>(member));

  constexpr index_t kPanel = runtime::BatchControl::kMaxBatch;
  std::vector<double> z(static_cast<std::size_t>(n * kPanel));
  std::vector<double> x(static_cast<std::size_t>(n * kPanel));
  std::vector<std::uint64_t> nugget_seeds(static_cast<std::size_t>(kPanel));
  std::vector<std::vector<double>> history(
      static_cast<std::size_t>(P),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  std::vector<double> current(static_cast<std::size_t>(n));

  for (index_t s0 = 0; s0 < total; s0 += kPanel) {
    const index_t k_cols = std::min(kPanel, total - s0);
    // Each column's normals, then its nugget seed, come from its own step
    // stream, generated in parallel into x (column-major staging) and
    // transposed into the row-major panel z the kernel streams.
    common::parallel_for(
        0, k_cols,
        [&](index_t k) {
          common::Rng stream =
              member_rng.split(static_cast<std::uint64_t>(s0 + k));
          double* col = x.data() + static_cast<std::size_t>(k * n);
          for (index_t c = 0; c < n; ++c) col[c] = stream.normal();
          nugget_seeds[static_cast<std::size_t>(k)] = stream.next_u64();
        },
        threads);
    for (index_t c = 0; c < n; ++c) {
      for (index_t k = 0; k < k_cols; ++k) {
        z[static_cast<std::size_t>(c * k_cols + k)] =
            x[static_cast<std::size_t>(k * n + c)];
      }
    }
    std::fill_n(x.begin(), n * k_cols, 0.0);
    runtime::run_sampling(view, z.data(), x.data(), k_cols, nullptr, dag,
                          sched);

    // Diagonal VAR recursion over the panel's steps, in step order. z is
    // dead after the apply; kept step k lands in its row k - first_kept.
    const index_t first_kept = std::max<index_t>(0, burn - s0);
    for (index_t k = 0; k < k_cols; ++k) {
      for (index_t c = 0; c < n; ++c) {
        const auto cu = static_cast<std::size_t>(c);
        double v = x[static_cast<std::size_t>(c * k_cols + k)];
        const auto& phi = ar[cu].phi;
        for (index_t a = 0; a < P; ++a) {
          const auto au = static_cast<std::size_t>(a);
          v += phi[au] * history[au][cu];
        }
        current[cu] = v;
      }
      // Shift history (oldest last).
      if (P >= 1) {
        std::rotate(history.begin(), history.end() - 1, history.end());
        history[0] = current;
      }
      if (k >= first_kept) {
        std::copy(current.begin(), current.end(),
                  z.begin() + (k - first_kept) * n);
      }
    }
    if (first_kept < k_cols) {
      consume(StepPanel{s0 + first_kept - burn, k_cols - first_kept, z.data(),
                        nugget_seeds.data() + first_kept});
    }
  }
}

}  // namespace exaclim::core
