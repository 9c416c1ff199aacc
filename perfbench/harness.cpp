// perfbench_harness — the measured program of the exaclim end-to-end
// benchmark (driven by perfbench/run.py; see perfbench/README.md).
//
//   perfbench_harness gen --band-limit L --years Y --ensembles R --seed S
//                         --data data.bin
//                         [--model model.bin --trainings N --report r.json]
//       Writes the synthetic ESM dataset; with --model also trains the
//       default-config emulator on it N times and freezes it as an fp64
//       model file (the serving workload's input), recording each training
//       time.
//
//   perfbench_harness run --data data.bin --work DIR --schedule arrivals.txt
//                         --seed S --train 0|1
//                         --seconds X --trace 0|1
//                         --out report.json [--serve-model model.bin]
//                         [--span-file spans.json]
//       Rounds for --seconds (at least kMinRounds). With --train 1 a round
//       trains -> saves -> checks the model file. The first rounds then
//       regenerate members from the model file (load -> emulate -> check
//       consistency), kRegenerations in all, from seeds fixed by --seed.
//       Every round then serves --serve-model, or the model it trained: the
//       --schedule's open-loop arrivals, then a 2 s closed loop. Every
//       repetition's sample goes to the report; run.py turns samples into
//       medians and quartiles.
//
// All calls go through the library's public API. The worker team is sized
// to the CPUs this process may run on. With --trace 1 each call in the odd
// rounds, the set-up and the layer probes is wrapped in a span (name,
// start, end, parent) kept in memory and written to --span-file at the
// end; the even rounds run untraced, for comparison. Layer probes time each
// module's public functions on the workload's own intermediate data.
#include <algorithm>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "analysis/dag_verify.hpp"
#include "climate/forcing.hpp"
#include "climate/synthetic_esm.hpp"
#include "climate/validate.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/kernels.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/solve.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/sampling_dag.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "serve/sampler.hpp"
#include "serve/service.hpp"
#include "sht/packing.hpp"
#include "sht/sht.hpp"
#include "stats/ar.hpp"
#include "stats/covariance.hpp"
#include "stats/trend.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 1
#endif

namespace {

using namespace exaclim;
using Clock = std::chrono::steady_clock;

// Environment variables that change what the library does; the benchmark
// refuses to run with any of them set.
constexpr const char* kLibraryEnv[] = {"EXACLIM_FAULTS", "EXACLIM_MEM_BUDGET",
                                       "EXACLIM_VERIFY", "EXACLIM_TUNE",
                                       "EXACLIM_THREADS", "EXACLIM_PIN"};

// A run is at least this many rounds, whatever --seconds allows.
constexpr index_t kMinRounds = 3;
// Set-up is repeated this many times; setup_s is their median.
constexpr int kSetupReps = 5;
// Regenerations per run, from seeds fixed by --seed, in the first rounds
// (at most kMinRounds of them).
constexpr index_t kRegenerations = 4;

// --- arguments ---------------------------------------------------------------

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw InvalidArgument(std::string("expected --flag, got ") + argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 0) throw InvalidArgument("every flag needs a value");
  return args;
}

std::string arg(const Args& a, const std::string& key) {
  auto it = a.find(key);
  if (it == a.end()) throw InvalidArgument("missing --" + key);
  return it->second;
}

std::string arg_or(const Args& a, const std::string& key,
                   const std::string& fallback) {
  auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

/// CPUs this process may run on: the worker team's size.
unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

double num(const Args& a, const std::string& key) {
  return std::stod(arg(a, key));
}

// --- JSON output -------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jlist(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += jnum(v[i]);
  }
  return out + "]";
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the main thread
/// around calls into the library; a span's parent is the innermost span
/// open when it began. Disabled, a Span costs one branch.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    double count = 0.0;  ///< work items the call covered (fields, tasks...)
  };

  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    const double t = now();
    Record r;
    r.name = name;
    r.start_s = t;
    r.parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    cost_s_ += now() - t;
    return stack_.back();
  }

  void close(int id, double count) {
    if (id < 0) return;
    const double t = now();
    records_[static_cast<std::size_t>(id)].end_s = t;
    records_[static_cast<std::size_t>(id)].count = count;
    stack_.pop_back();
    cost_s_ += now() - t;
  }

  /// Closed child spans of `parent` for stage durations a library call
  /// reported about itself, laid back to back so the last ends with the
  /// parent (training's last stage is the Cholesky).
  void stages(int parent,
              const std::vector<std::pair<const char*, double>>& durations) {
    if (parent < 0) return;
    double t = records_[static_cast<std::size_t>(parent)].end_s;
    for (const auto& [name, d] : durations) t -= d;
    for (const auto& [name, d] : durations) {
      Record r;
      r.name = name;
      r.start_s = t;
      r.end_s = t + d;
      r.parent = parent;
      records_.push_back(std::move(r));
      t += d;
    }
  }

  /// Seconds spent inside open/close over seconds since the first span:
  /// the share of the traced run that recording spans cost.
  double cost_share() const {
    return records_.empty() ? 0.0 : cost_s_ / (now() - records_[0].start_s);
  }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing); the
  /// span id, parent id and count ride in each event's args.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (i > 0) out << ",\n";
      out << "{\"name\":" << jstr(r.name) << ",\"cat\":"
          << jstr(r.name.substr(0, r.name.find('.')))
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << jnum(r.start_s * 1e6)
          << ",\"dur\":" << jnum((r.end_s - r.start_s) * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
          << ",\"count\":" << jnum(r.count) << "}}";
    }
    out << "]}\n";
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
  double cost_s_ = 0.0;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name) : id_(g_tracer.open(name)) {}
  ~Span() { g_tracer.close(id_, count_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_count(double c) { count_ = c; }
  int id() const { return id_; }

 private:
  int id_;
  double count_ = 0.0;
};

// --- report ------------------------------------------------------------------

/// Everything the run measured: per-repetition samples (lists), single
/// values, and output checks. run.py reduces samples to medians.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::map<std::string, bool> checks;  ///< a check holds if every call held
  std::vector<std::string> errors;
  index_t attempted = 0;
  index_t failed = 0;

  void add(const std::string& key, double v) { samples[key].push_back(v); }
  void set(const std::string& key, double v) { values[key] = v; }
  void count(const std::string& key, double v) { values[key] += v; }

  void check(const std::string& name, bool ok) {
    const auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
    }
  }

  /// Counts one attempted operation; a thrown library error is a failure.
  template <typename F>
  bool attempt(const char* what, F&& fn) {
    ++attempted;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      errors.push_back(std::string(what) + ": " + e.what());
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what, e.what());
      return false;
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"build_type\":" << jstr(PERFBENCH_BUILD_TYPE)
        << ",\"compiler\":" << jstr(__VERSION__)
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\n\"samples\":{";
    bool first = true;
    for (const auto& [k, v] : samples) {
      out << (first ? "" : ",\n") << jstr(k) << ":" << jlist(v);
      first = false;
    }
    out << "},\n\"values\":{";
    first = true;
    for (const auto& [k, v] : values) {
      out << (first ? "" : ",\n") << jstr(k) << ":" << jnum(v);
      first = false;
    }
    out << "},\n\"checks\":{";
    first = true;
    for (const auto& [k, ok] : checks) {
      out << (first ? "" : ",") << jstr(k) << ":" << (ok ? "true" : "false");
      first = false;
    }
    out << "},\n\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      out << (i > 0 ? "," : "") << jstr(errors[i]);
    }
    out << "]}\n";
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return static_cast<double>(f.tellg());
}

/// The CLI's default training configuration (exaclim_cli train).
core::EmulatorConfig train_config(const climate::ClimateDataset& data,
                                   unsigned threads) {
  core::EmulatorConfig cfg;
  cfg.band_limit = data.grid().nlat - 1;
  cfg.ar_order = 3;
  cfg.harmonics = 5;
  cfg.steps_per_year = data.steps_per_year();
  cfg.cholesky_variant = linalg::PrecisionVariant::DP_HP;
  cfg.tile_size = 128;
  cfg.threads = threads;
  cfg.verify_mode = runtime::VerifyMode::Static;
  return cfg;
}

double consistency_max(const core::ConsistencyReport& r) {
  return std::max({r.mean_field_rel_rmse, r.sd_field_rel_rmse, r.acf_mad,
                   r.spectrum_log10_mad});
}

/// True when the frozen model's fp64 payload equals V's lower triangle,
/// row by row, byte for byte.
bool frozen_factor_equals(const core::FrozenModel& frozen,
                          const linalg::Matrix& v) {
  const linalg::PackedFactorView view = frozen.factor();
  if (view.storage != linalg::PackedStorage::F64 || view.n != v.rows()) {
    return false;
  }
  const unsigned char* p = view.bytes;
  for (index_t i = 0; i < v.rows(); ++i) {
    const std::size_t len = static_cast<std::size_t>(i + 1) * sizeof(double);
    if (std::memcmp(p, v.row(i).data(), len) != 0) return false;
    p += len;
  }
  return true;
}

bool same_bytes(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

/// Team size (pinning off) and the fixed kernel blocking, set before any
/// parallel work runs.
void configure_process(unsigned threads) {
  common::WorkerTeam::configure(threads, 0);
  linalg::set_tune_mode(linalg::TuneMode::Fixed);
}

void add_training(Report& report, double wall_s, const core::TrainReport& tr) {
  report.add("train_s", wall_s);
  report.add("core.train_trend_s", tr.trend_seconds);
  report.add("core.train_sht_s", tr.sht_seconds);
  report.add("core.train_ar_s", tr.ar_seconds);
  report.add("core.train_covariance_s", tr.covariance_seconds);
  report.add("core.train_cholesky_s", tr.cholesky_seconds);
}

// --- pipeline ----------------------------------------------------------------

struct Inputs {
  climate::ClimateDataset data;
  std::vector<double> forcing;
  unsigned threads = 1;
  std::uint64_t emulate_seed = 1;
};

/// One regeneration: load_emulator + emulate R x T members from `seed` +
/// evaluate_consistency against the training data.
void regenerate(const Inputs& in, const std::string& model, std::uint64_t seed,
                Report& report) {
  const index_t R = in.data.num_ensembles();
  const index_t T = in.data.num_steps();
  std::optional<core::ClimateEmulator> loaded;
  climate::ClimateDataset emu;
  const Clock::time_point t0 = Clock::now();
  {
    Span s("core.load_emulator");
    if (!report.attempt("load_emulator",
                        [&] { loaded.emplace(core::load_emulator(model)); })) {
      return;
    }
  }
  const double load_s = seconds_since(t0);
  {
    Span s("core.emulate");
    s.set_count(static_cast<double>(R * T));
    if (!report.attempt("emulate", [&] {
          emu = loaded->emulate(T, R, in.forcing, seed);
        })) {
      return;
    }
  }
  const double regen_s = seconds_since(t0);
  report.add("emulate_fields_per_s", static_cast<double>(R * T) / regen_s);
  report.add("core.load_s", load_s);
  report.add("core.emulate_s", regen_s - load_s);

  const Clock::time_point t1 = Clock::now();
  core::ConsistencyReport cr;
  {
    Span s("core.evaluate_consistency");
    cr = core::evaluate_consistency(in.data, emu,
                                    loaded->config().band_limit);
  }
  report.add("core.consistency_s", seconds_since(t1));
  report.add("core.consistency_max", consistency_max(cr));
  report.check("emulation consistent with its training data",
               cr.consistent());
}

/// The saved model reloads through load_emulator and FrozenModel, and both
/// hold the trained factor byte for byte.
void check_model_file(const std::string& model, const linalg::Matrix& factor,
                      Report& report) {
  bool loaded_ok = false;
  bool frozen_ok = false;
  try {
    loaded_ok =
        same_bytes(core::load_emulator(model).cholesky_factor(), factor);
    const core::FrozenModel frozen(model);
    frozen_ok = frozen_factor_equals(frozen, factor);
  } catch (const std::exception& e) {
    report.errors.push_back("model file: " + std::string(e.what()));
  }
  report.check("load_emulator factor byte-equal to the trained factor",
               loaded_ok);
  report.check("FrozenModel factor byte-equal to the trained factor",
               frozen_ok);
}

/// train -> save -> regenerate from each of `regen_seeds`, plus the
/// model-file checks. The trained emulator stays alive while members are
/// regenerated, so the process's memory peak is the same in every run.
/// Returns the saved model's path ("" when training failed).
std::string pipeline_iteration(const Inputs& in, const std::string& work,
                               index_t iteration,
                               const std::vector<std::uint64_t>& regen_seeds,
                               Report& report) {
  core::ClimateEmulator emulator(train_config(in.data, in.threads));
  core::TrainReport tr;
  int train_span = -1;
  const Clock::time_point t0 = Clock::now();
  {
    Span s("core.train");
    train_span = s.id();
    if (!report.attempt("train",
                        [&] { tr = emulator.train(in.data, in.forcing); })) {
      return "";
    }
  }
  add_training(report, seconds_since(t0), tr);
  // The stage timings TrainReport returns split core.train by layer.
  g_tracer.stages(train_span,
                  {{"stats.trend (TrainReport)", tr.trend_seconds},
                   {"sht.transform (TrainReport)", tr.sht_seconds},
                   {"stats.ar (TrainReport)", tr.ar_seconds},
                   {"stats.covariance (TrainReport)", tr.covariance_seconds},
                   {"runtime.cholesky (TrainReport)", tr.cholesky_seconds}});

  const std::string model = work + "/model-" + std::to_string(iteration) +
                            ".bin";
  const Clock::time_point t1 = Clock::now();
  {
    Span s("core.save_emulator");
    core::save_emulator(emulator, model, core::FactorStorage::FP64);
  }
  report.add("core.save_s", seconds_since(t1));
  report.set("core.model_bytes", file_bytes(model));

  check_model_file(model, emulator.cholesky_factor(), report);
  for (const std::uint64_t seed : regen_seeds) {
    regenerate(in, model, seed, report);
  }
  return model;
}

// --- gen ---------------------------------------------------------------------

int cmd_gen(const Args& args) {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = static_cast<index_t>(num(args, "band-limit"));
  cfg.grid = {cfg.band_limit + 1, 2 * cfg.band_limit};
  cfg.num_years = static_cast<index_t>(num(args, "years"));
  cfg.steps_per_year = 12;
  cfg.num_ensembles = static_cast<index_t>(num(args, "ensembles"));
  cfg.seed = std::stoull(arg(args, "seed"));
  const auto esm = climate::generate_synthetic_esm(cfg);
  esm.data.save(arg(args, "data"));
  if (args.count("model") == 0) return 0;

  // The model a workload serves without training it: trained --trainings
  // times with the CLI defaults, the last one frozen at fp64.
  const unsigned threads = cpu_count();
  configure_process(threads);
  Report report;
  const std::vector<double> forcing =
      climate::historical_forcing(esm.data.num_years());
  const auto trainings = static_cast<index_t>(num(args, "trainings"));
  std::optional<core::ClimateEmulator> trained;
  for (index_t i = 0; i < trainings; ++i) {
    trained.emplace(train_config(esm.data, threads));
    const Clock::time_point t0 = Clock::now();
    const core::TrainReport tr = trained->train(esm.data, forcing);
    add_training(report, seconds_since(t0), tr);
  }
  const core::ClimateEmulator& emulator = *trained;
  const Clock::time_point t1 = Clock::now();
  core::save_emulator(emulator, arg(args, "model"), core::FactorStorage::FP64);
  report.add("core.save_s", seconds_since(t1));
  report.set("core.model_bytes", file_bytes(arg(args, "model")));
  check_model_file(arg(args, "model"), emulator.cholesky_factor(), report);
  report.write(arg(args, "report"));
  return 0;
}

// --- serving -----------------------------------------------------------------

serve::ServiceOptions service_options(std::uint64_t seed) {
  serve::ServiceOptions o;
  o.queue_depth = 256;
  o.max_batch = 16;
  o.deadline_ms = 0.0;
  o.sampler.seed = seed;
  o.sampler.verify = runtime::VerifyMode::Static;
  return o;
}

void wait_ready(const serve::SamplingService& service) {
  while (service.health() == serve::Health::Starting) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

/// Opens the model and touches every section (each section's CRC is
/// checked on first touch).
void touch_sections(const core::FrozenModel& model) {
  (void)model.factor();
  (void)model.trend_models();
  (void)model.ar_models();
  (void)model.nugget_variance();
}

/// Every kCheckEvery-th request's draw is kept and compared, after the
/// round, against a width-1 BatchSampler draw of the same request id.
constexpr std::uint64_t kCheckEvery = 97;

struct KeptDraws {
  std::mutex mu;
  std::vector<serve::SampleResult> draws;
  void offer(serve::SampleResult&& r) {
    if (r.request_id % kCheckEvery != 0) return;
    std::lock_guard<std::mutex> lock(mu);
    draws.push_back(std::move(r));
  }
};

/// Open loop: this thread submits at the scheduled due times, one collector
/// thread waits on the futures in submission order (the service completes
/// batches in FIFO order). Latency runs from the due time; a request still
/// unanswered 50 ms after it was due misses the objective.
void open_phase(serve::SamplingService& service,
                const std::vector<double>& arrivals, std::uint64_t first_id,
                KeptDraws& kept, Report& report) {
  struct Sent {
    std::future<serve::SampleResult> future;
    Clock::time_point due;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  bool done = false;
  std::vector<double> latency_ms;
  latency_ms.reserve(arrivals.size());
  index_t lost = 0;

  std::thread collector([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !sent.empty(); });
        if (sent.empty()) return;
        s = std::move(sent.front());
        sent.pop_front();
      }
      try {
        serve::SampleResult r = s.future.get();
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - s.due)
                .count());
        kept.offer(std::move(r));
      } catch (const std::exception&) {
        ++lost;
      }
    }
  });

  index_t shed = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(due);
    const Clock::time_point before = Clock::now();
    report.add("bench.gen_lag_ms",
               std::chrono::duration<double, std::milli>(before - due).count());
    serve::SampleRequest req;
    req.request_id = first_id + i;
    try {
      auto future = service.submit(req);
      report.add("serve.submit_us", std::chrono::duration<double, std::micro>(
                                        Clock::now() - before)
                                        .count());
      std::lock_guard<std::mutex> lock(mu);
      sent.push_back({std::move(future), due});
      cv.notify_one();
    } catch (const std::exception&) {
      ++shed;  // OverloadError, or any other refusal at admission
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  index_t within = 0;
  for (double l : latency_ms) within += l <= 50.0 ? 1 : 0;
  std::vector<double>& all = report.samples["open_latency_ms"];
  all.insert(all.end(), latency_ms.begin(), latency_ms.end());
  report.count("serve.open_sent", static_cast<double>(arrivals.size()));
  report.count("serve.open_within_slo", static_cast<double>(within));
  report.attempted += static_cast<index_t>(arrivals.size());
  report.failed += shed + lost;
}

/// Closed loop: this thread keeps kWindow requests outstanding for
/// kSeconds; throughput is sampled per 250 ms slice.
void offline_phase(serve::SamplingService& service, std::uint64_t first_id,
                   KeptDraws& kept, Report& report) {
  constexpr std::size_t kWindow = 64;
  constexpr double kSeconds = 2.0;
  constexpr double kSlice = 0.25;
  std::deque<std::future<serve::SampleResult>> outstanding;
  std::uint64_t next_id = first_id;
  index_t shed = 0;
  index_t lost = 0;
  auto submit_one = [&] {
    serve::SampleRequest req;
    req.request_id = next_id++;
    try {
      outstanding.push_back(service.submit(req));
    } catch (const serve::OverloadError&) {
      ++shed;
    }
  };
  const Clock::time_point t0 = Clock::now();
  while (outstanding.size() < kWindow) submit_one();
  index_t slice_done = 0;
  double slice_end = kSlice;
  while (!outstanding.empty()) {
    auto future = std::move(outstanding.front());
    outstanding.pop_front();
    try {
      kept.offer(future.get());
      ++slice_done;
    } catch (const std::exception&) {
      ++lost;
    }
    const double t = seconds_since(t0);
    if (t >= slice_end && t < kSeconds) {
      report.add("serve_samples_per_s", static_cast<double>(slice_done) /
                                            (t - (slice_end - kSlice)));
      slice_done = 0;
      slice_end = t + kSlice;
    }
    if (t < kSeconds) submit_one();
  }
  report.attempted += static_cast<index_t>(next_id - first_id);
  report.failed += shed + lost;
}

std::vector<double> read_schedule(const std::string& path) {
  std::ifstream in(path);
  std::vector<double> arrivals;
  double t = 0.0;
  while (in >> t) arrivals.push_back(t);
  EXACLIM_CHECK(!arrivals.empty(), "empty arrival schedule " + path);
  return arrivals;
}

/// One serving round on the model file: open it, serve the open-loop
/// arrivals, then the closed loop, drain, and check
/// the round's accounting and kept draws. Request ids are unique per round.
void serve_round(const std::string& model_path,
                 const std::vector<double>& arrivals, std::uint64_t seed,
                 index_t round, Report& report) {
  const Clock::time_point t0 = Clock::now();
  std::optional<core::FrozenModel> model;
  {
    Span s("core.frozen_open");
    model.emplace(model_path);
    touch_sections(*model);
  }
  report.add("core.frozen_open_s", seconds_since(t0));

  const std::uint64_t first_id = static_cast<std::uint64_t>(round) << 32;
  KeptDraws kept;
  serve::ServiceCounters open;
  serve::ServiceCounters total;
  {
    serve::SamplingService service(*model, service_options(seed));
    wait_ready(service);
    {
      Span s("serve.open_phase");
      s.set_count(static_cast<double>(arrivals.size()));
      open_phase(service, arrivals, first_id, kept, report);
    }
    open = service.counters();
    const double cpu0 = process_cpu_seconds();
    {
      Span s("serve.offline_phase");
      offline_phase(service, first_id + arrivals.size(), kept, report);
    }
    service.drain();
    total = service.counters();
    // CPU the whole process spent per closed-loop draw: unlike wall time,
    // it excludes time the hypervisor withheld from the vCPUs.
    report.add("serve_cpu_us_per_sample",
               (process_cpu_seconds() - cpu0) * 1e6 /
                   static_cast<double>(total.completed - open.completed));
  }
  report.count("serve.open_completed", static_cast<double>(open.completed));
  report.count("serve.open_batches", static_cast<double>(open.batches));
  report.count("serve.batches", static_cast<double>(total.batches));
  report.count("serve.shed", static_cast<double>(total.shed));
  report.count("serve.deadline_missed",
               static_cast<double>(total.deadline_missed));
  report.count("serve.failed", static_cast<double>(total.failed));
  report.count("serve.shrunk_batches",
               static_cast<double>(total.shrunk_batches));
  report.count("serve.degraded_batches",
               static_cast<double>(total.degraded_batches));
  report.count("serve.transient_retries",
               static_cast<double>(total.transient_retries));
  report.check("serve accounting: submitted == completed + shed + "
               "deadline_missed + failed after drain",
               total.queued == 0 && total.in_flight == 0 &&
                   total.submitted == total.completed + total.shed +
                                          total.deadline_missed + total.failed);

  // The serving reproducibility contract: a draw depends only on (seed,
  // request id) and the factor plane, never on how it was batched. A batch
  // the degradation ladder moved to the fp32 plane matches that plane.
  serve::BatchSampler reference(*model, service_options(seed).sampler);
  std::vector<double> col(static_cast<std::size_t>(reference.dim()));
  auto matches = [&](const serve::SampleResult& r, bool degraded) {
    serve::SampleRequest req;
    req.request_id = r.request_id;
    reference.run_batch({req}, degraded, 0);
    reference.extract_column(0, col.data());
    return r.values.size() == col.size() &&
           std::memcmp(r.values.data(), col.data(),
                       col.size() * sizeof(double)) == 0;
  };
  bool draws_ok = !kept.draws.empty();
  for (const serve::SampleResult& r : kept.draws) {
    draws_ok = draws_ok && (matches(r, false) || matches(r, true));
  }
  report.count("serve.draws_checked", static_cast<double>(kept.draws.size()));
  report.check("served draws byte-equal to width-1 BatchSampler draws",
               draws_ok);
}

/// Set-up of the serving workload, repeated: FrozenModel open, first touch
/// of every section, service start to Ready.
void serve_setup(const std::string& model_path, std::uint64_t seed,
                 Report& report) {
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    core::FrozenModel model(model_path);
    touch_sections(model);
    serve::SamplingService service(model, service_options(seed));
    wait_ready(service);
    report.add("setup_s", seconds_since(t0));
    service.drain();
  }
}

// --- layer probes (--trace 1) ------------------------------------------------

/// Times each module's public functions on the workload's own data, in the
/// order training and emulation call them. Parallel stages use
/// common::parallel_for over the same items the emulator parallelizes.
void probe_chain(const Inputs& in, Report& report) {
  const climate::ClimateDataset& data = in.data;
  const index_t L = data.grid().nlat - 1;
  const index_t R = data.num_ensembles();
  const index_t T = data.num_steps();
  const index_t points = data.grid().num_points();
  const index_t n = sh_coeff_count(L);
  const core::EmulatorConfig cfg = train_config(data, in.threads);
  const index_t P = cfg.ar_order;
  common::Timer timer;

  {
    Span s("climate.validate_dataset");
    climate::validate_dataset(data);
  }
  report.add("climate.validate_s", timer.seconds());

  timer.reset();
  std::vector<stats::TrendModel> trend(static_cast<std::size_t>(points));
  {
    Span s("stats.fit_trend");
    s.set_count(static_cast<double>(points));
    const stats::TrendFitConfig tcfg = cfg.trend_config();
    common::parallel_for(0, points, [&](index_t p) {
      std::vector<double> y(static_cast<std::size_t>(R * T));
      for (index_t r = 0; r < R; ++r) {
        for (index_t t = 0; t < T; ++t) {
          y[static_cast<std::size_t>(r * T + t)] =
              data.field(r, t)[static_cast<std::size_t>(p)];
        }
      }
      trend[static_cast<std::size_t>(p)] =
          stats::fit_trend(y, R, T, in.forcing, tcfg);
    });
  }
  report.add("stats.trend_s", timer.seconds());

  std::vector<std::vector<double>> mean(static_cast<std::size_t>(points));
  common::parallel_for(0, points, [&](index_t p) {
    mean[static_cast<std::size_t>(p)] =
        stats::trend_series(trend[static_cast<std::size_t>(p)], T, in.forcing);
  });
  const sht::SHTPlan plan(L, data.grid());

  timer.reset();
  linalg::Matrix f(R * T, n);
  std::vector<std::vector<cplx>> coeffs(static_cast<std::size_t>(R * T));
  {
    Span s("sht.analyze");
    s.set_count(static_cast<double>(R * T));
    common::parallel_for(0, R * T, [&](index_t rt) {
      const auto obs = data.field(rt / T, rt % T);
      std::vector<double> z(static_cast<std::size_t>(points));
      for (index_t p = 0; p < points; ++p) {
        const auto up = static_cast<std::size_t>(p);
        z[up] = (obs[up] - mean[up][static_cast<std::size_t>(rt % T)]) /
                trend[up].sigma;
      }
      coeffs[static_cast<std::size_t>(rt)] = plan.analyze(z);
      const std::vector<double> packed =
          sht::pack_real(L, coeffs[static_cast<std::size_t>(rt)]);
      std::copy(packed.begin(), packed.end(), f.row(rt).begin());
    });
  }
  report.add("sht.analyze_s", timer.seconds());
  report.set("sht.analyze_fields", static_cast<double>(R * T));

  timer.reset();
  std::vector<stats::ArModel> ar(static_cast<std::size_t>(n));
  {
    Span s("stats.fit_ar_ensemble");
    s.set_count(static_cast<double>(n));
    common::parallel_for(0, n, [&](index_t c) {
      std::vector<double> series(static_cast<std::size_t>(R * T));
      for (index_t rt = 0; rt < R * T; ++rt) {
        series[static_cast<std::size_t>(rt)] = f(rt, c);
      }
      ar[static_cast<std::size_t>(c)] = stats::fit_ar_ensemble(series, R, T, P);
    });
  }
  report.add("stats.ar_s", timer.seconds());

  const index_t N = R * (T - P);
  linalg::Matrix xi(N, n);
  common::parallel_for(0, n, [&](index_t c) {
    const std::vector<double>& phi = ar[static_cast<std::size_t>(c)].phi;
    index_t row = 0;
    for (index_t r = 0; r < R; ++r) {
      for (index_t t = P; t < T; ++t, ++row) {
        double pred = 0.0;
        for (index_t a = 0; a < P; ++a) {
          pred += phi[static_cast<std::size_t>(a)] * f(r * T + t - 1 - a, c);
        }
        xi(row, c) = f(r * T + t, c) - pred;
      }
    }
  });
  timer.reset();
  stats::PreparedCovariance cov;
  {
    Span s("stats.prepare_covariance");
    cov = stats::prepare_covariance(xi, cfg.jitter_base);
  }
  const double cov_s = timer.seconds();
  const double nd = static_cast<double>(n);
  const double Nd = static_cast<double>(N);
  // Computed from the shapes: d(d+1)/2 dot products of length N; the
  // samples are read once and the d x d result written once.
  report.add("stats.covariance_s", cov_s);
  report.add("stats.covariance_gflops", Nd * nd * (nd + 1.0) / cov_s * 1e-9);
  report.set("stats.covariance_bytes", 8.0 * (Nd * nd + nd * nd));

  const index_t nb = std::min(cfg.tile_size, n);
  const index_t nt = (n + nb - 1) / nb;
  timer.reset();
  std::optional<linalg::TiledSymmetricMatrix> tiled;
  {
    Span s("linalg.from_dense");
    tiled.emplace(linalg::TiledSymmetricMatrix::from_dense(
        cov.u, nb, linalg::make_band_policy(nt, cfg.cholesky_variant)));
  }
  double pack_s = timer.seconds();

  {
    // The Cholesky DAG as the runtime would schedule it, verified alone.
    const runtime::CholeskyGraph graph(*tiled,
                                       linalg::ConversionPlacement::Sender);
    timer.reset();
    Span s("analysis.verify_dag");
    const analysis::VerifyReport vr = analysis::verify_dag(graph.graph());
    report.add("analysis.verify_cholesky_ms", timer.milliseconds());
    report.check("Cholesky DAG verifies clean", vr.ok());
  }

  runtime::RtCholeskyOptions rt_opt;
  rt_opt.threads = in.threads;
  rt_opt.verify = runtime::VerifyMode::Static;
  runtime::RtCholeskyResult chol;
  {
    Span s("runtime.cholesky_tiled_parallel");
    chol = runtime::cholesky_tiled_parallel(*tiled, rt_opt);
    s.set_count(static_cast<double>(chol.total_tasks));
  }
  report.add("runtime.cholesky_s", chol.run.seconds);
  report.add("runtime.cholesky_gflops",
             nd * nd * nd / 3.0 / chol.run.seconds * 1e-9);
  report.set("runtime.cholesky_tasks", static_cast<double>(chol.total_tasks));
  report.add("runtime.cholesky_parallel_eff", chol.run.parallel_efficiency());
  report.add("runtime.cholesky_steals", static_cast<double>(chol.run.steals));
  report.add("runtime.cholesky_parks",
             static_cast<double>(chol.run.counters.parks));
  report.set("runtime.convert_tasks", static_cast<double>(chol.convert_tasks));
  report.set("runtime.element_conversions", chol.element_conversions);
  report.set("runtime.critical_path_tasks",
             static_cast<double>(chol.critical_path_tasks));
  report.set("runtime.escalations",
             static_cast<double>(chol.precision_escalations +
                                 chol.jitter_escalations));

  timer.reset();
  linalg::Matrix factor;
  {
    Span s("linalg.to_dense");
    factor = tiled->to_dense(/*lower_only=*/true);
  }
  pack_s += timer.seconds();
  report.add("linalg.tile_pack_s", pack_s);

  // Emulation draws one innovation per step per member through sample_mvn.
  constexpr index_t kDraws = 256;
  common::Rng rng(in.emulate_seed);
  timer.reset();
  double sink = 0.0;
  {
    Span s("linalg.sample_mvn");
    s.set_count(static_cast<double>(kDraws));
    for (index_t d = 0; d < kDraws; ++d) {
      sink += linalg::sample_mvn(factor, rng)[0];
    }
  }
  const double mvn_s = timer.seconds() / static_cast<double>(kDraws);
  report.add("linalg.sample_mvn_s", mvn_s);
  // Computed: a lower-triangular mat-vec is n(n+1)/2 multiply-adds.
  report.add("linalg.sample_mvn_gflops", nd * (nd + 1.0) / mvn_s * 1e-9);

  timer.reset();
  {
    Span s("sht.synthesize");
    s.set_count(static_cast<double>(R * T));
    common::parallel_for(0, R * T, [&](index_t rt) {
      const std::vector<double> field =
          plan.synthesize(coeffs[static_cast<std::size_t>(rt)]);
      coeffs[static_cast<std::size_t>(rt)].clear();
      (void)field;
    });
  }
  report.add("sht.synthesize_s", timer.seconds());
  report.set("sht.synthesize_fields", static_cast<double>(R * T));
  report.check("probe chain finite", std::isfinite(sink));
}

/// Sampling-layer probes on the frozen model: DAG build + static verify,
/// and BatchSampler::run_batch at widths 1, 4 and 16.
void probe_sampling(const std::string& model_path, std::uint64_t seed,
                    Report& report) {
  const core::FrozenModel model(model_path);
  touch_sections(model);
  const index_t n = model.factor_dim();
  const double nd = static_cast<double>(n);
  constexpr int kReps = 24;

  {
    constexpr index_t kWidth = 16;
    std::vector<double> z(static_cast<std::size_t>(n * kWidth), 0.5);
    std::vector<double> x(static_cast<std::size_t>(n * kWidth), 0.0);
    bool ok = true;
    for (int r = 0; r < kReps; ++r) {
      common::Timer t;
      std::optional<runtime::TaskGraph> g;
      {
        Span s("runtime.build_sampling_dag");
        g.emplace(runtime::build_sampling_dag(model.factor(), z.data(),
                                              x.data(), kWidth, nullptr));
      }
      report.add("runtime.sample_dag_build_ms", t.milliseconds());
      t.reset();
      {
        Span s("analysis.verify_dag");
        ok = analysis::verify_dag(*g).ok() && ok;
      }
      report.add("analysis.verify_ms", t.milliseconds());
    }
    report.check("sampling DAG verifies clean", ok);
  }

  serve::BatchSampler sampler(model, service_options(seed).sampler);
  for (const index_t width : {index_t{1}, index_t{4}, index_t{16}}) {
    std::vector<serve::SampleRequest> batch(static_cast<std::size_t>(width));
    const std::string w = std::to_string(width);
    for (int r = 0; r < kReps + 2; ++r) {
      for (index_t k = 0; k < width; ++k) {
        batch[static_cast<std::size_t>(k)].request_id =
            static_cast<std::uint64_t>(r * 64 + k);
      }
      common::Timer t;
      serve::BatchOutcome out;
      {
        Span s("serve.run_batch");
        s.set_count(static_cast<double>(width));
        out = sampler.run_batch(batch, false, 0);
      }
      if (r < 2) continue;  // first touches of scratch and DAG buffers
      const double wall_ms = t.milliseconds();
      const double exec_ms = out.stats.seconds * 1e3;
      report.add("serve.run_batch_ms_w" + w, wall_ms);
      if (width == 4) report.add("serve.batch_overhead_ms", wall_ms - exec_ms);
      if (width == 16) {
        report.add("runtime.sample_exec_ms", exec_ms);
        report.add("runtime.sample_parallel_eff",
                   out.stats.parallel_efficiency());
        report.add("runtime.sample_steals",
                   static_cast<double>(out.stats.steals));
        // Computed: n(n+1)/2 multiply-adds per column.
        report.add("serve.apply_gflops",
                   nd * (nd + 1.0) * 16.0 / (exec_ms * 1e-3) * 1e-9);
      }
    }
  }
}

// --- run ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

int cmd_run(const Args& args) {
  const bool trace = arg(args, "trace") == "1";
  g_tracer.enabled = trace;
  const std::uint64_t seed = std::stoull(arg(args, "seed"));
  Inputs in;
  in.threads = cpu_count();
  in.emulate_seed = seed * 1000 + 1;
  const std::uint64_t serve_seed = seed * 1000 + 2;
  const std::string data_path = arg(args, "data");
  const std::string work = arg(args, "work");
  const bool train = arg(args, "train") == "1";
  const std::string served_model = arg_or(args, "serve-model", "");
  const double seconds = num(args, "seconds");
  const std::vector<double> arrivals = read_schedule(arg(args, "schedule"));
  Report report;

  // Worker team start plus dataset load is the pipeline's set-up; the
  // team starts once per process, the load is repeated.
  configure_process(in.threads);
  const Clock::time_point t_team = Clock::now();
  report.set("bench.team_threads",
             common::WorkerTeam::instance().max_participants());
  const double team_s = seconds_since(t_team);
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    Span s("climate.load");
    in.data = climate::ClimateDataset::load(data_path);
    report.add("climate.load_s", seconds_since(t0));
  }
  in.forcing = climate::historical_forcing(in.data.num_years());
  if (train) {
    for (double l : report.samples["climate.load_s"]) {
      report.add("setup_s", team_s + l);
    }
  } else {
    serve_setup(served_model, serve_seed, report);
  }

  // Rounds: [train -> save -> check] -> [regenerate] -> serve, repeated
  // for `seconds`, so every metric samples the whole run rather than one
  // stretch of it. The regenerations, from seeds that do not depend on how
  // many rounds fit, use the model trained on the workload's dataset. A
  // round serves --serve-model when given, else the model the round
  // trained.
  const index_t regen_per_round =
      (kRegenerations + kMinRounds - 1) / kMinRounds;
  // The metric the tracing overhead is judged on, per traced and untraced
  // round (round 0, which pays first touches, is left out).
  const char* judged = train ? "train_s" : "serve_cpu_us_per_sample";
  std::vector<double> traced_rounds;
  std::vector<double> untraced_rounds;
  std::string model;  // the last trained model
  {
    Span root("bench.workload");
    const Clock::time_point t0 = Clock::now();
    for (index_t r = 0; r < kMinRounds || seconds_since(t0) < seconds; ++r) {
      g_tracer.enabled = trace && r % 2 == 1;
      std::vector<std::uint64_t> regen_seeds;
      for (index_t i = r * regen_per_round;
           i < std::min((r + 1) * regen_per_round, kRegenerations); ++i) {
        regen_seeds.push_back(in.emulate_seed + static_cast<std::uint64_t>(i));
      }
      if (train) {
        model = pipeline_iteration(in, work, r, regen_seeds, report);
        if (model.empty()) break;
      } else {
        for (const std::uint64_t s : regen_seeds) {
          regenerate(in, served_model, s, report);
        }
      }
      serve_round(served_model.empty() ? model : served_model, arrivals,
                  serve_seed, r, report);
      if (r > 0) {
        (r % 2 == 1 ? traced_rounds : untraced_rounds)
            .push_back(report.samples[judged].back());
      }
    }
    g_tracer.enabled = trace;
    report.set("peak_rss_mb", peak_rss_mb());
  }
  const std::string stored = train ? model : served_model;
  if (!stored.empty()) {
    report.set("storage_ratio", file_bytes(data_path) / file_bytes(stored));
  }
  const double sent = report.values["serve.open_sent"];
  report.set("serve_slo_ratio",
             sent > 0.0 ? report.values["serve.open_within_slo"] / sent : 0.0);
  const double open_batches = report.values["serve.open_batches"];
  report.set("serve.batch_width_mean",
             open_batches > 0.0
                 ? report.values["serve.open_completed"] / open_batches
                 : 0.0);

  if (trace && !stored.empty()) {
    Span s("bench.probes");
    probe_chain(in, report);
    probe_sampling(served_model.empty() ? model : served_model, serve_seed,
                   report);
  }

  if (trace) {
    report.set("bench.trace_overhead",
               median(traced_rounds) / median(untraced_rounds) - 1.0);
    report.set("bench.span_cost_share", g_tracer.cost_share());
    g_tracer.write(arg(args, "span-file"));
  }
  report.write(arg(args, "out"));
  return 0;
}

int refuse_unmeasurable_build() {
  bool sanitized = PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE, sanitized ? " sanitizer" : "");
    return 3;
  }
  for (const char* name : kLibraryEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", name);
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = refuse_unmeasurable_build(); rc != 0) return rc;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|run --flag value ...\n");
    return 2;
  }
  try {
    const Args args = parse_args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
