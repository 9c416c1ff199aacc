// Figure 5: sender-based conversion ("new") vs the receiver-based baseline
// of [34] ("old") on 128 Summit nodes, DP / DP/SP / DP/HP.
//
// Two reproductions:
//  (a) measured on this node: the real tile Cholesky with both conversion
//      placements — conversion counts and wall time;
//  (b) modelled at paper scale: the calibrated Summit model at 128 nodes
//      across the paper's matrix sizes (0.66M-1.27M), old = receiver
//      conversion + bandwidth-first collectives, new = sender + latency-
//      first, with the paper's speedups (1.15 / 1.06 / 1.53) alongside.
#include "bench_util.hpp"
#include "perfmodel/calibration.hpp"
#include "perfmodel/cholesky_sim.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

using namespace exaclim;
using linalg::PrecisionVariant;

int main() {
  bench::print_header("Figure 5 — sender- vs receiver-based conversion");

  // (a) Measured on this machine.
  std::printf("\nMeasured (this node, n = 2048, nb = 128):\n");
  std::printf("%-9s %14s %14s %14s %14s\n", "variant", "recv conv",
              "send conv", "recv time(s)", "send time(s)");
  const index_t n = 2048;
  const index_t nb = 128;
  const index_t nt = (n + nb - 1) / nb;
  const linalg::Matrix a = bench::decaying_spd(n, 80.0);
  for (PrecisionVariant v :
       {PrecisionVariant::DP, PrecisionVariant::DP_SP, PrecisionVariant::DP_HP}) {
    double conv[2];
    double secs[2];
    int idx = 0;
    for (auto placement : {linalg::ConversionPlacement::Receiver,
                           linalg::ConversionPlacement::Sender}) {
      auto tiled = linalg::TiledSymmetricMatrix::from_dense(
          a, nb, linalg::make_band_policy(nt, v));
      runtime::RtCholeskyOptions opt;
      opt.placement = placement;
      const auto result = runtime::cholesky_tiled_parallel(tiled, opt);
      conv[idx] = result.element_conversions;
      secs[idx] = result.run.seconds;
      ++idx;
    }
    std::printf("%-9s %14.0f %14.0f %14.3f %14.3f\n",
                linalg::variant_name(v).c_str(), conv[0], conv[1], secs[0],
                secs[1]);
  }

  // (b) Modelled at 128 Summit nodes, paper sizes.
  const auto anchors = perfmodel::paper_fig5();
  std::printf("\nModelled (Summit, 128 nodes / 768 V100s):\n");
  std::printf("%-9s %10s | %11s %11s %9s | %13s\n", "variant", "size",
              "old PF/s", "new PF/s", "speedup", "paper speedup");
  for (PrecisionVariant v :
       {PrecisionVariant::DP, PrecisionVariant::DP_SP, PrecisionVariant::DP_HP}) {
    for (double size : {0.66e6, 0.86e6, 1.06e6, 1.27e6}) {
      perfmodel::SimConfig cfg;
      cfg.machine = perfmodel::summit();
      cfg.nodes = 128;
      cfg.matrix_size = size;
      cfg.tile_size = 2048;
      cfg.variant = v;
      const auto fast = perfmodel::simulate_cholesky(cfg);
      cfg.sender_conversion = false;
      cfg.latency_first_collectives = false;
      const auto slow = perfmodel::simulate_cholesky(cfg);
      const double paper_speedup =
          v == PrecisionVariant::DP
              ? anchors.speedup_dp
              : (v == PrecisionVariant::DP_SP ? anchors.speedup_dp_sp
                                              : anchors.speedup_dp_hp);
      std::printf("%-9s %9.2fM | %11.2f %11.2f %9.2f | %13.2f\n",
                  linalg::variant_name(v).c_str(), size / 1e6, slow.pflops,
                  fast.pflops, fast.pflops / slow.pflops, paper_speedup);
    }
  }
  std::printf("\nShape check: DP/HP benefits most (paper 1.53x), DP and DP/SP\n"
              "see modest gains — matching the paper's mechanism: conversion\n"
              "volume and collective ordering matter most when tiles are fp16.\n");
  return 0;
}
