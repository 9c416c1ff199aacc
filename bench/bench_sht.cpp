// Measured SHT performance: forward analysis, inverse synthesis, plan
// construction (Wigner/Legendre precomputation), and the O(L^3)-per-slot
// scaling claim of Section III-A.2.
//
// Default invocation runs the quick bench and writes BENCH_sht.json (the
// perf trajectory future PRs regress against): per-field microseconds,
// median and quartiles over 11 timed blocks, for single-field calls (K = 1)
// and packed batches of K = 16 and 64 fields, on the calling thread only
// (transform calls are serial; callers parallelize across batches). Pass
// --gbench to additionally run the full Google-benchmark suite below.
#include <benchmark/benchmark.h>

#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "fft/fft.hpp"
#include "linalg/kernels.hpp"
#include "sht/packing.hpp"
#include "sht/sht.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::sht;

std::vector<cplx> random_coeffs(index_t band_limit, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cplx> c(static_cast<std::size_t>(tri_count(band_limit)));
  for (index_t l = 0; l < band_limit; ++l) {
    c[static_cast<std::size_t>(tri_index(l, 0))] = {rng.normal(), 0.0};
    for (index_t m = 1; m <= l; ++m) {
      c[static_cast<std::size_t>(tri_index(l, m))] = {rng.normal(),
                                                      rng.normal()};
    }
  }
  return c;
}

void BM_ShtAnalyze(benchmark::State& state) {
  const index_t L = state.range(0);
  const GridShape grid{L + 1, 2 * L};
  const SHTPlan plan(L, grid);
  const auto field = plan.synthesize(random_coeffs(L, 1));
  for (auto _ : state) {
    auto coeffs = plan.analyze(field);
    benchmark::DoNotOptimize(coeffs.data());
  }
  // O(L^3) useful work per slot.
  state.counters["L^3/s"] = benchmark::Counter(
      static_cast<double>(L) * L * L * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShtAnalyze)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_ShtSynthesize(benchmark::State& state) {
  const index_t L = state.range(0);
  const GridShape grid{L + 1, 2 * L};
  const SHTPlan plan(L, grid);
  const auto coeffs = random_coeffs(L, 2);
  for (auto _ : state) {
    auto field = plan.synthesize(coeffs);
    benchmark::DoNotOptimize(field.data());
  }
  state.counters["L^3/s"] = benchmark::Counter(
      static_cast<double>(L) * L * L * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShtSynthesize)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_ShtPlanConstruction(benchmark::State& state) {
  // Paper Section III-A.2: pre-compute Wigner/Legendre once, amortized over
  // all T temporal observations.
  const index_t L = state.range(0);
  for (auto _ : state) {
    SHTPlan plan(L, GridShape{L + 1, 2 * L});
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_ShtPlanConstruction)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FftEra5Longitude(benchmark::State& state) {
  // The 1440-point longitude FFT of an ERA5 row (non-power-of-two).
  const auto plan = fft::get_plan(1440);
  std::vector<cplx> row(1440);
  common::Rng rng(3);
  for (auto& v : row) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    auto copy = row;
    plan->forward(copy.data());
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FftEra5Longitude);

void BM_PackUnpack(benchmark::State& state) {
  const index_t L = state.range(0);
  const auto coeffs = random_coeffs(L, 4);
  for (auto _ : state) {
    auto packed = pack_real(L, coeffs);
    auto back = unpack_real(L, packed);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_PackUnpack)->Arg(32)->Arg(128);

// --- BENCH_sht.json quick bench ---------------------------------------------

/// One row: K fields per call (K = 1 runs the single-field analyze /
/// synthesize entry points, K > 1 the packed batch calls), one thread.
void add_row(exaclim::bench::JsonBench& out, index_t L, index_t K) {
  const GridShape grid{L + 1, 2 * L};
  const SHTPlan plan(L, grid);
  const index_t np = grid.num_points();
  std::vector<double> packed;
  for (index_t k = 0; k < K; ++k) {
    const auto p = pack_real(L, random_coeffs(L, 1 + static_cast<std::uint64_t>(k)));
    packed.insert(packed.end(), p.begin(), p.end());
  }
  std::vector<double> fields(static_cast<std::size_t>(K * np));
  plan.synthesize_packed(packed, K, fields);
  std::vector<double> out_packed(packed.size());
  const auto coeffs = unpack_real(
      L, std::span<const double>(packed).first(static_cast<std::size_t>(L * L)));
  exaclim::bench::Spread ta, ts;
  if (K == 1) {
    ta = exaclim::bench::time_spread(
        [&] {
          auto c = plan.analyze(fields);
          benchmark::DoNotOptimize(c.data());
        });
    ts = exaclim::bench::time_spread(
        [&] {
          auto f = plan.synthesize(coeffs);
          benchmark::DoNotOptimize(f.data());
        });
  } else {
    ta = exaclim::bench::time_spread(
        [&] {
          plan.analyze_packed(fields, K, out_packed);
          benchmark::DoNotOptimize(out_packed.data());
        });
    ts = exaclim::bench::time_spread(
        [&] {
          plan.synthesize_packed(packed, K, fields);
          benchmark::DoNotOptimize(fields.data());
        });
  }
  // Seconds per call -> microseconds per field.
  auto us = [K](double s) { return s * 1e6 / static_cast<double>(K); };
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"L\": %lld, \"nlat\": %lld, \"nlon\": %lld, \"K\": %lld, "
      "\"reps\": %d, \"analyze_us_per_field\": %.2f, "
      "\"analyze_q1\": %.2f, \"analyze_q3\": %.2f, "
      "\"synthesize_us_per_field\": %.2f, \"synthesize_q1\": %.2f, "
      "\"synthesize_q3\": %.2f}",
      static_cast<long long>(L), static_cast<long long>(grid.nlat),
      static_cast<long long>(grid.nlon), static_cast<long long>(K), ta.reps,
      us(ta.median), us(ta.q1), us(ta.q3), us(ts.median), us(ts.q1),
      us(ts.q3));
  out.add(buf);
}

void write_sht_json() {
  exaclim::bench::JsonBench out;
  for (index_t L : {16, 32, 64}) {
    for (index_t K : {1, 16, 64}) add_row(out, L, K);
  }
  for (index_t L : {96, 128}) add_row(out, L, 1);
  const auto& team = exaclim::common::WorkerTeam::instance();
  const auto& topo = exaclim::common::Topology::instance();
  const unsigned hc = std::thread::hardware_concurrency();
  const bool degraded = hc <= 1;
  if (degraded) {
    std::fprintf(stderr,
                 "*** WARNING: hardware_concurrency == %u (1-core "
                 "container?) — rates below are not comparable to "
                 "multi-core runs; meta carries \"degraded_env\": true.\n",
                 hc);
  }
  const linalg::KernelTuning tuning = linalg::active_tuning();
  char meta[512];
  std::snprintf(
      meta, sizeof(meta),
      "{\"bench\": \"sht\", \"hardware_concurrency\": %u, "
      "\"degraded_env\": %s, \"threads\": %u, \"pinned\": %d, "
      "\"numa_nodes\": %u, \"l1d_bytes\": %zu, \"l2_bytes\": %zu, "
      "\"l3_bytes\": %zu, \"tune_mode\": \"%s\", "
      "\"f64_kc\": %lld, \"f64_mc\": %lld, \"f64_nc\": %lld, "
      "\"f32_kc\": %lld, \"f32_mc\": %lld, \"f32_nc\": %lld}",
      hc, degraded ? "true" : "false", team.max_participants(),
      team.pinned() ? 1 : 0, topo.num_nodes(), tuning.l1d_bytes,
      tuning.l2_bytes, tuning.l3_bytes,
      linalg::tune_mode_name(tuning.mode).c_str(),
      static_cast<long long>(tuning.f64.kc),
      static_cast<long long>(tuning.f64.mc),
      static_cast<long long>(tuning.f64.nc),
      static_cast<long long>(tuning.f32.kc),
      static_cast<long long>(tuning.f32.mc),
      static_cast<long long>(tuning.f32.nc));
  if (out.write("BENCH_sht.json", meta)) {
    std::printf("wrote BENCH_sht.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) gbench = true;
  }
  write_sht_json();
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
