// Figure 7: weak (left) and strong (right) scaling on Summit, 384 - 12,288
// V100 GPUs, all four precision variants.
//
// Weak scaling: constant memory per GPU (matrix grows with sqrt(P));
// performance per GPU should stay ~flat (paper: 92-111% of the 384-GPU
// baseline). Strong scaling: the largest problem fitting 512 nodes, run on
// 512/1024/2048 nodes; per-GPU efficiency drops (paper: DP 55%, DP/SP 72%,
// DP/SP/HP 60%, DP/HP 56%).
//
// Also measures real strong scaling of the runtime Cholesky on this node's
// cores (the node-scale analogue of the same experiment).
#include "bench_util.hpp"
#include "perfmodel/calibration.hpp"
#include "perfmodel/cholesky_sim.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

using namespace exaclim;
using linalg::PrecisionVariant;

int main() {
  bench::print_header("Figure 7 — weak and strong scaling on Summit");
  const auto machine = perfmodel::summit();

  // ---- Weak scaling: fixed memory per GPU --------------------------------
  std::printf("\nWeak scaling (TFlop/s per GPU, normalized %% of 384-GPU "
              "baseline):\n");
  std::printf("%8s", "GPUs");
  for (PrecisionVariant v : linalg::kAllVariants) {
    std::printf(" %14s", linalg::variant_name(v).c_str());
  }
  std::printf("\n");
  const index_t gpu_counts[] = {384, 1536, 3072, 6144, 12288};
  double baseline[4] = {0, 0, 0, 0};
  for (index_t gpus : gpu_counts) {
    const index_t nodes = gpus / machine.gpus_per_node;
    std::printf("%8lld", static_cast<long long>(gpus));
    int idx = 0;
    for (PrecisionVariant v : linalg::kAllVariants) {
      const double n =
          perfmodel::max_matrix_size(machine, nodes, v, 2048, 0.4);
      perfmodel::SimConfig cfg;
      cfg.machine = machine;
      cfg.nodes = nodes;
      cfg.matrix_size = n;
      cfg.tile_size = 2048;
      cfg.variant = v;
      const auto r = perfmodel::simulate_cholesky(cfg);
      if (gpus == 384) baseline[idx] = r.tflops_per_gpu;
      std::printf(" %6.1f (%3.0f%%)", r.tflops_per_gpu,
                  100.0 * r.tflops_per_gpu / baseline[idx]);
      ++idx;
    }
    std::printf("\n");
  }
  std::printf("  (paper: 92%%-111%% across the same range)\n");

  // ---- Strong scaling: fixed total problem --------------------------------
  const auto strong = perfmodel::paper_fig7_strong();
  std::printf("\nStrong scaling (per-GPU efficiency vs 3,072-GPU run, fixed "
              "problem = 512-node max):\n");
  std::printf("%8s", "GPUs");
  for (PrecisionVariant v : linalg::kAllVariants) {
    std::printf(" %14s", linalg::variant_name(v).c_str());
  }
  std::printf("\n");
  double strong_base[4] = {0, 0, 0, 0};
  double eff_at_12288[4] = {0, 0, 0, 0};
  for (index_t gpus : {index_t{3072}, index_t{6144}, index_t{12288}}) {
    const index_t nodes = gpus / machine.gpus_per_node;
    std::printf("%8lld", static_cast<long long>(gpus));
    int idx = 0;
    for (PrecisionVariant v : linalg::kAllVariants) {
      const double n = perfmodel::max_matrix_size(machine, 512, v, 2048, 0.4);
      perfmodel::SimConfig cfg;
      cfg.machine = machine;
      cfg.nodes = nodes;
      cfg.matrix_size = n;
      cfg.tile_size = 2048;
      cfg.variant = v;
      const auto r = perfmodel::simulate_cholesky(cfg);
      if (gpus == 3072) strong_base[idx] = r.tflops_per_gpu;
      const double eff = r.tflops_per_gpu / strong_base[idx];
      if (gpus == 12288) eff_at_12288[idx] = eff;
      std::printf(" %6.1f (%3.0f%%)", r.tflops_per_gpu, 100.0 * eff);
      ++idx;
    }
    std::printf("\n");
  }
  std::printf("\nStrong-scaling efficiency at 12,288 GPUs (paper vs model):\n");
  bench::print_vs("DP", strong.dp, eff_at_12288[0]);
  bench::print_vs("DP/SP", strong.dp_sp, eff_at_12288[1]);
  bench::print_vs("DP/SP/HP", strong.dp_sp_hp, eff_at_12288[2]);
  bench::print_vs("DP/HP", strong.dp_hp, eff_at_12288[3]);

  // ---- Measured node-scale strong scaling ---------------------------------
  std::printf("\nMeasured strong scaling on this node (DP, n = 2048):\n");
  std::printf("%8s %10s %12s %12s\n", "threads", "time(s)", "speedup",
              "efficiency");
  const index_t n = 2048;
  const index_t nb = 128;
  const index_t nt = (n + nb - 1) / nb;
  const linalg::Matrix a = bench::decaying_spd(n, 80.0);
  double t1 = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u, 16u, 24u}) {
    auto tiled = linalg::TiledSymmetricMatrix::from_dense(
        a, nb, linalg::make_band_policy(nt, PrecisionVariant::DP));
    runtime::RtCholeskyOptions opt;
    opt.threads = threads;
    const auto r = runtime::cholesky_tiled_parallel(tiled, opt);
    if (threads == 1) t1 = r.run.seconds;
    std::printf("%8u %10.3f %12.2f %11.0f%%\n", threads, r.run.seconds,
                t1 / r.run.seconds, 100.0 * t1 / r.run.seconds / threads);
  }
  return 0;
}
