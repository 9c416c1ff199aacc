#include "core/consistency.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sht/sht.hpp"

namespace exaclim::core {

namespace {

/// Per-point time-mean and SD across all ensembles.
void temporal_moments(const climate::ClimateDataset& ds,
                      std::vector<double>& mean_field,
                      std::vector<double>& sd_field) {
  const index_t np = ds.grid().num_points();
  const index_t n = ds.num_steps() * ds.num_ensembles();
  mean_field.assign(static_cast<std::size_t>(np), 0.0);
  sd_field.assign(static_cast<std::size_t>(np), 0.0);
  for (index_t r = 0; r < ds.num_ensembles(); ++r) {
    for (index_t t = 0; t < ds.num_steps(); ++t) {
      const auto field = ds.field(r, t);
      for (index_t p = 0; p < np; ++p) {
        mean_field[static_cast<std::size_t>(p)] +=
            field[static_cast<std::size_t>(p)];
      }
    }
  }
  for (auto& v : mean_field) v /= static_cast<double>(n);
  for (index_t r = 0; r < ds.num_ensembles(); ++r) {
    for (index_t t = 0; t < ds.num_steps(); ++t) {
      const auto field = ds.field(r, t);
      for (index_t p = 0; p < np; ++p) {
        const double d = field[static_cast<std::size_t>(p)] -
                         mean_field[static_cast<std::size_t>(p)];
        sd_field[static_cast<std::size_t>(p)] += d * d;
      }
    }
  }
  for (auto& v : sd_field) v = std::sqrt(v / static_cast<double>(n - 1));
}

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

/// Subsamples pooled values (cap the KS cost on big datasets).
std::vector<double> pooled_sample(const climate::ClimateDataset& ds,
                                  std::size_t cap = 200000) {
  std::vector<double> out;
  const auto& raw = ds.raw();
  const std::size_t stride = std::max<std::size_t>(1, raw.size() / cap);
  out.reserve(raw.size() / stride + 1);
  for (std::size_t i = 0; i < raw.size(); i += stride) out.push_back(raw[i]);
  return out;
}

/// Mean spherical power spectrum of detrended (per-point-mean-removed)
/// fields over a subsample of time steps. The subsampled anomalies are
/// analyzed in fixed batches across workers; each field's spectrum lands in
/// its own slot and the slots are summed in field order, so the result is
/// the same at any thread count. With the isometric pack_real layout,
/// C_l = (1/(2l+1)) * (sum of squares of degree l's packed block).
std::vector<double> mean_spectrum(const sht::SHTPlan& plan,
                                  const climate::ClimateDataset& ds,
                                  const std::vector<double>& mean_field,
                                  unsigned threads) {
  const index_t L = plan.band_limit();
  const index_t np = ds.grid().num_points();
  const index_t step = std::max<index_t>(1, ds.num_steps() / 16);
  const index_t per_member = (ds.num_steps() + step - 1) / step;
  const index_t count = ds.num_ensembles() * per_member;
  std::vector<double> spectra(static_cast<std::size_t>(count * L));
  const index_t batch = sht::SHTPlan::batch_fields();
  common::parallel_for(
      0, (count + batch - 1) / batch,
      [&](index_t b) {
        const index_t i0 = b * batch;
        const index_t kb = std::min(batch, count - i0);
        std::vector<double> anomaly(static_cast<std::size_t>(kb * np));
        for (index_t k = 0; k < kb; ++k) {
          const index_t s = i0 + k;
          const auto field =
              ds.field(s / per_member, (s % per_member) * step);
          double* a = anomaly.data() + k * np;
          for (index_t p = 0; p < np; ++p) {
            a[p] = field[static_cast<std::size_t>(p)] -
                   mean_field[static_cast<std::size_t>(p)];
          }
        }
        std::vector<double> packed(static_cast<std::size_t>(kb * L * L));
        plan.analyze_packed(anomaly, kb, packed);
        for (index_t k = 0; k < kb; ++k) {
          const double* c = packed.data() + k * L * L;
          double* spec = spectra.data() + (i0 + k) * L;
          for (index_t l = 0; l < L; ++l) {
            double acc = 0.0;
            for (index_t j = l * l; j < (l + 1) * (l + 1); ++j) {
              acc += c[j] * c[j];
            }
            spec[l] = acc / (2.0 * l + 1.0);
          }
        }
      },
      threads);
  std::vector<double> spec(static_cast<std::size_t>(L), 0.0);
  for (index_t s = 0; s < count; ++s) {
    for (index_t l = 0; l < L; ++l) {
      spec[static_cast<std::size_t>(l)] +=
          spectra[static_cast<std::size_t>(s * L + l)];
    }
  }
  for (auto& v : spec) v /= static_cast<double>(count);
  return spec;
}

}  // namespace

ConsistencyReport evaluate_consistency(const climate::ClimateDataset& sim,
                                       const climate::ClimateDataset& emu,
                                       index_t band_limit, unsigned threads) {
  EXACLIM_CHECK(sim.grid().nlat == emu.grid().nlat &&
                    sim.grid().nlon == emu.grid().nlon,
                "datasets must share a grid");
  ConsistencyReport report;

  const auto pooled_sim = pooled_sample(sim);
  const auto pooled_emu = pooled_sample(emu);
  report.pooled = stats::compare_moments(pooled_sim, pooled_emu);

  std::vector<double> sim_mean, sim_sd, emu_mean, emu_sd;
  temporal_moments(sim, sim_mean, sim_sd);
  temporal_moments(emu, emu_mean, emu_sd);
  const double sim_spatial_sd = stats::standard_deviation(sim_mean);
  report.mean_field_rel_rmse =
      rmse(sim_mean, emu_mean) / (sim_spatial_sd > 0.0 ? sim_spatial_sd : 1.0);
  const double mean_sd = stats::mean(sim_sd);
  report.sd_field_rel_rmse =
      rmse(sim_sd, emu_sd) / (mean_sd > 0.0 ? mean_sd : 1.0);

  // ACF at a diagonal probe set of grid points.
  {
    const index_t np = sim.grid().num_points();
    const index_t probes = std::min<index_t>(16, np);
    const index_t max_lag =
        std::min<index_t>(5, sim.num_steps() / 4);
    double acc = 0.0;
    index_t terms = 0;
    for (index_t k = 0; k < probes; ++k) {
      const index_t p = k * (np / probes);
      const index_t lat = p / sim.grid().nlon;
      const index_t lon = p % sim.grid().nlon;
      const auto ts_sim = sim.time_series(0, lat, lon);
      const auto ts_emu = emu.time_series(0, lat, lon);
      if (stats::variance(ts_sim) <= 0.0 || stats::variance(ts_emu) <= 0.0) {
        continue;
      }
      const auto acf_sim = stats::autocorrelation(ts_sim, max_lag);
      const auto acf_emu = stats::autocorrelation(ts_emu, max_lag);
      for (index_t lag = 1; lag <= max_lag; ++lag) {
        acc += std::abs(acf_sim[static_cast<std::size_t>(lag)] -
                        acf_emu[static_cast<std::size_t>(lag)]);
        ++terms;
      }
    }
    report.acf_mad = terms > 0 ? acc / static_cast<double>(terms) : 0.0;
  }

  // Spherical power spectra of anomalies.
  {
    const sht::SHTPlan plan(band_limit, sim.grid());
    const unsigned workers =
        threads == 0 ? common::default_thread_count() : threads;
    const auto spec_sim = mean_spectrum(plan, sim, sim_mean, workers);
    const auto spec_emu = mean_spectrum(plan, emu, emu_mean, workers);
    double acc = 0.0;
    index_t terms = 0;
    for (index_t l = 1; l < band_limit; ++l) {
      const double a = spec_sim[static_cast<std::size_t>(l)];
      const double b = spec_emu[static_cast<std::size_t>(l)];
      if (a > 0.0 && b > 0.0) {
        acc += std::abs(std::log10(a / b));
        ++terms;
      }
    }
    report.spectrum_log10_mad = terms > 0 ? acc / static_cast<double>(terms) : 0.0;
  }
  return report;
}

}  // namespace exaclim::core
