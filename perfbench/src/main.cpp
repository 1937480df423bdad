// Repository benchmark harness: runs one paper workload for a fixed time
// and prints its metrics as the last line of stdout (one JSON object).
//
//   perfbench --workload seq-seir --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 spends half the time untraced and half traced, reports the
// per-layer metrics of the traced half, checks that both halves produced
// identical posteriors, and writes the spans to <scratch>/traces/.
// README.md defines every metric and the workloads.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "parallel/parallel.hpp"
#include "simd/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace epismc;
using perfbench::PassResult;

// Set-up is sampled apart from the calibration passes: up to kSetupSamples
// blocks, within kSetupShare of the run's time.
constexpr std::size_t kSetupSamples = 31;
constexpr double kSetupShare = 0.05;
constexpr double kSetupBlockSeconds = 0.002;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch = ".bench_build";
};

Options parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("bad argument " + key);
    }
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + key);
    }
    kv[key] = value;
  }
  Options o;
  const auto take = [&](const char* key) -> std::string {
    const auto it = kv.find(key);
    if (it == kv.end()) return {};
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  o.workload = take("workload");
  if (const std::string v = take("seed"); !v.empty()) o.seed = std::stoull(v);
  if (const std::string v = take("seconds"); !v.empty()) {
    o.seconds = std::stod(v);
  }
  if (const std::string v = take("trace"); !v.empty()) {
    if (v != "0" && v != "1") {
      throw std::invalid_argument("--trace takes 0 or 1");
    }
    o.trace = v == "1";
  }
  if (const std::string v = take("scratch"); !v.empty()) o.scratch = v;
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// The measured program is the default one: no armed fault injection and
/// no environment override of the SIMD level or the pool backend.
void refuse_overrides() {
  for (const char* var : {"EPISMC_FAULT", "EPISMC_SIMD", "EPISMC_POOL"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      throw std::runtime_error(std::string("refusing to run with ") + var +
                               "=" + value + " set");
    }
  }
  if (fault::armed()) throw std::runtime_error("refusing to run: faults armed");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux. Supervised cells run in forked children;
  // the workload's peak is the larger of the two.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

struct Phase {
  std::size_t variants = 1;
  std::vector<PassResult> passes;  // whole rounds: pass i ran variant i % n
  std::vector<double> setup_s;
  std::uint64_t pool_tasks = 0, pool_steals = 0, pool_steal_failures = 0,
                pool_idle_wakeups = 0;
  int pool_peak_active = 0;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) / 1e9;
}

/// Runs whole rounds (one pass per scenario variant) while another round
/// still fits in the calibration share of `budget_s` (at least one round),
/// then samples set-up on its own: each set-up sample is the mean over a
/// block of set-ups lasting kSetupBlockSeconds, so sub-microsecond set-ups
/// are not lost in clock and cache noise.
Phase run_phase(perfbench::Workload& wl, double budget_s, bool traced) {
  Phase ph;
  ph.variants = wl.variants();
  parallel::TaskPool& pool = parallel::TaskPool::instance();
  const double calib_budget_s = (1.0 - kSetupShare) * budget_s;
  const std::int64_t start = perfbench::now_ns();
  for (std::size_t rounds = 0;
       rounds == 0 || seconds_since(start) * static_cast<double>(rounds + 1) /
                              static_cast<double>(rounds) <=
                          calib_budget_s;
       ++rounds) {
    for (std::size_t v = 0; v < ph.variants; ++v) {
      perfbench::Tracer::instance().set_pass(
          static_cast<int>(ph.passes.size()));
      pool.reset_peak();
      const parallel::LaneStats before = pool.stats().totals();
      PassResult pass = wl.run_pass(v, traced, false);
      const parallel::PoolStats after = pool.stats();
      const parallel::LaneStats totals = after.totals();
      ph.pool_tasks += totals.tasks_run - before.tasks_run;
      ph.pool_steals += totals.steals - before.steals;
      ph.pool_steal_failures += totals.steal_failures - before.steal_failures;
      ph.pool_idle_wakeups += totals.idle_wakeups - before.idle_wakeups;
      ph.pool_peak_active = std::max(ph.pool_peak_active, after.peak_active);
      ph.passes.push_back(std::move(pass));
    }
  }
  const std::int64_t setup_start = perfbench::now_ns();
  for (std::size_t i = 0; i < kSetupSamples &&
                          seconds_since(setup_start) < kSetupShare * budget_s;
       ++i) {
    const std::int64_t block_start = perfbench::now_ns();
    double sum = 0.0;
    std::size_t n = 0;
    do {
      sum += wl.run_pass(i % ph.variants, traced, true).setup_s;
      ++n;
    } while (seconds_since(block_start) < kSetupBlockSeconds);
    ph.setup_s.push_back(sum / static_cast<double>(n));
  }
  return ph;
}

/// Mean over scenario variants of the per-variant median calibration time:
/// every variant weighs the same however many rounds ran.
double calib_seconds(const Phase& ph, std::ostream* log = nullptr) {
  double sum = 0.0;
  for (std::size_t v = 0; v < ph.variants; ++v) {
    std::vector<double> samples;
    for (std::size_t i = v; i < ph.passes.size(); i += ph.variants) {
      samples.push_back(ph.passes[i].calib_s);
    }
    const double m = median(std::move(samples));
    if (log != nullptr) *log << (v ? " " : "calib_s per scenario:") << " " << m;
    sum += m;
  }
  if (log != nullptr) *log << "\n";
  return sum / static_cast<double>(ph.variants);
}

std::vector<double> day_samples(const Phase& ph) {
  std::vector<double> out;
  for (const PassResult& p : ph.passes) {
    out.insert(out.end(), p.day_ms.begin(), p.day_ms.end());
  }
  return out;
}

/// Mean over passes of one PassLayers reading.
double layer_mean(const Phase& ph, double perfbench::PassLayers::*field) {
  double sum = 0.0;
  for (const PassResult& p : ph.passes) sum += p.layers.*field;
  return sum / static_cast<double>(ph.passes.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of the traced phase, per pass (see README.md).
std::vector<Metric> layer_metrics(const Phase& untraced, const Phase& traced) {
  const perfbench::LayerCounters& c = perfbench::Tracer::instance().counters();
  const auto passes = static_cast<double>(traced.passes.size());
  const auto per_pass_ms = [&](std::int64_t ns) {
    return static_cast<double>(ns) / 1e6 / passes;
  };
  const auto per_pass = [&](std::uint64_t n) {
    return static_cast<double>(n) / passes;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::vector<double> day_self, boundary_self;
  for (const PassResult& p : traced.passes) {
    day_self.insert(day_self.end(), p.layers.day_self_ms.begin(),
                    p.layers.day_self_ms.end());
    boundary_self.insert(boundary_self.end(), p.layers.boundary_self_ms.begin(),
                         p.layers.boundary_self_ms.end());
  }
  using L = perfbench::PassLayers;
  return {
      {"sim.batch_ms", per_pass_ms(c.batch_ns), "ms"},
      {"sim.sim_days", per_pass(c.sim_days), "count"},
      {"sim.ns_per_sim_day",
       ratio(static_cast<double>(c.batch_ns), static_cast<double>(c.sim_days)),
       "ns"},
      {"sim.initial_state_ms", per_pass_ms(c.initial_state_ns), "ms"},
      {"sim.resample_states_ms", per_pass_ms(c.resample_states_ns), "ms"},
      {"score.cpu_ms", per_pass_ms(c.score_ns), "ms"},
      {"score.calls", per_pass(c.score_calls), "count"},
      {"window.self_ms", layer_mean(traced, &L::window_self_ms), "ms"},
      {"window.ess_frac", layer_mean(traced, &L::ess_frac), "ratio"},
      {"window.survivor_frac", layer_mean(traced, &L::survivor_frac), "ratio"},
      {"window.state_mb", layer_mean(traced, &L::state_mb), "MiB"},
      {"window.replay_sims", layer_mean(traced, &L::replay_sims), "count"},
      {"stream.self_ms_p50", median(day_self), "ms"},
      {"stream.boundary_self_ms", median(boundary_self), "ms"},
      {"stream.resamples", layer_mean(traced, &L::resamples), "count"},
      {"io.save_ms", layer_mean(traced, &L::save_ms), "ms"},
      {"io.save_mb", layer_mean(traced, &L::save_mb), "MiB"},
      {"pool.tasks", per_pass(traced.pool_tasks), "count"},
      {"pool.steals", per_pass(traced.pool_steals), "count"},
      {"pool.steal_failures", per_pass(traced.pool_steal_failures), "count"},
      {"pool.idle_wakeups", per_pass(traced.pool_idle_wakeups), "count"},
      {"pool.peak_active", static_cast<double>(traced.pool_peak_active),
       "count"},
      {"pool.tail_idle_frac",
       ratio(static_cast<double>(c.tail_idle_ns),
             static_cast<double>(c.batch_lane_ns)),
       "ratio"},
      {"sup.overhead_ms", layer_mean(traced, &L::sup_overhead_ms), "ms"},
      {"sup.attempts", layer_mean(traced, &L::sup_attempts), "count"},
      {"trace.overhead_frac",
       calib_seconds(traced) / calib_seconds(untraced) - 1.0, "ratio"},
  };
}

/// Bypass checks: each workload uses or skips the layers README.md claims
/// for it. Appends a problem per failed check; true when all pass.
bool bypass_checks(const std::string& workload,
                   const std::vector<Metric>& metrics,
                   std::vector<std::string>& problems) {
  std::map<std::string, double> m;
  for (const Metric& x : metrics) m[x.name] = x.value;
  bool ok = true;
  const auto require = [&](bool pass, const std::string& what) {
    std::cout << "bypass check: " << what << (pass ? " ok" : " FAILED") << "\n";
    if (!pass) {
      ok = false;
      problems.push_back("bypass check failed: " + what);
    }
  };
  if (workload == "seq-seir") require(m["pool.tasks"] == 0, "pool.tasks == 0");
  if (workload == "stream-cb") {
    require(m["io.save_mb"] > 0, "io.save_mb > 0");
  } else {
    require(m["io.save_ms"] == 0 && m["io.save_mb"] == 0, "io.* == 0");
  }
  if (workload == "sweep-sup") {
    require(m["sup.attempts"] > 0, "sup.attempts > 0");
  } else {
    require(m["sup.overhead_ms"] == 0 && m["sup.attempts"] == 0, "sup.* == 0");
    require(m["sim.sim_days"] > 0, "sim.sim_days > 0");
  }
  std::cout << "capture path: "
            << (m["window.replay_sims"] > 0 ? "deferred replay" : "inline")
            << " (window.replay_sims " << m["window.replay_sims"] << ")\n";
  return ok;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::string provenance(const Options& o, int lanes) {
  std::string stamp = bench::json_build_stamp("");
  std::replace(stamp.begin(), stamp.end(), '\n', ' ');
  std::ostringstream os;
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"lanes\": " << lanes << ", \"simd_level\": \""
     << simd::level_name(simd::active_level()) << "\", \"philox_level\": \""
     << simd::level_name(simd::best_level()) << "\", \"pool_backend\": \""
     << parallel::backend_name(parallel::backend()) << "\", " << stamp
     << "\"trace\": " << (o.trace ? 1 : 0) << "}";
  return os.str();
}

int run(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  refuse_overrides();

  const std::filesystem::path scratch = std::filesystem::absolute(o.scratch);
  const std::filesystem::path work =
      scratch / ("work-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);
  struct WorkCleanup {
    std::filesystem::path dir;
    ~WorkCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{work};

  if (o.trace) perfbench::register_traced_simulators();
  const std::int64_t inputs_start = perfbench::now_ns();
  const std::unique_ptr<perfbench::Workload> wl =
      perfbench::make_workload(o.workload, o.seed, work);
  parallel::set_threads(wl->lanes());
  std::cout << "provenance: " << provenance(o, wl->lanes()) << "\n"
            << "inputs: " << wl->variants() << " seeded scenarios in "
            << seconds_since(inputs_start) << " s\n";

  std::vector<const Phase*> phases;
  const Phase untraced = run_phase(*wl, o.trace ? o.seconds / 2 : o.seconds,
                                   /*traced=*/false);
  phases.push_back(&untraced);
  Phase traced;
  if (o.trace) {
    perfbench::Tracer::instance().enable();
    traced = run_phase(*wl, o.seconds / 2, /*traced=*/true);
    phases.push_back(&traced);
  }

  // Failure accounting and the determinism check: every pass of the run
  // (traced or not) must land on the same posterior digests.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  bool digests_ok = true;
  for (const Phase* ph : phases) {
    for (std::size_t i = 0; i < ph->passes.size(); ++i) {
      const PassResult& p = ph->passes[i];
      attempted += p.attempted;
      failed += p.failed;
      for (const std::string& f : p.failures) {
        problems.push_back("scenario " + std::to_string(i % ph->variants) +
                           ": " + f);
      }
      // Reference: the first untraced pass of the same scenario variant.
      if (p.digests != untraced.passes[i % untraced.variants].digests) {
        digests_ok = false;
        problems.push_back(
            std::string(ph == &traced ? "traced" : "untraced") +
            " pass posterior digests differ from the first pass");
      }
    }
  }

  const Phase& main_phase = o.trace ? traced : untraced;
  const std::vector<double> days = day_samples(main_phase);
  std::cout << "passes: " << main_phase.passes.size() << " over "
            << main_phase.variants << " scenarios"
            << "  setup samples: " << main_phase.setup_s.size() << " (min "
            << quantile(main_phase.setup_s, 0.0) << " s, max "
            << quantile(main_phase.setup_s, 1.0) << " s)"
            << "  day samples: " << days.size() << " ("
            << days.size() / 10
            << " beyond p90)\n";
  std::cout << "operations (" << wl->unit() << "s): attempted " << attempted
            << ", failed " << failed << ", fail_frac "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << "\n";

  std::vector<Metric> metrics;
  bool bypass_ok = true;
  if (!o.trace) {
    metrics = {
        {"calib_s", calib_seconds(untraced, &std::cout), "s"},
        {"setup_s", median(untraced.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"day_ms_p50", quantile(days, 0.5), "ms"},
        {"day_ms_p90", quantile(days, 0.9), "ms"},
    };
  } else {
    metrics = layer_metrics(untraced, traced);
    bypass_ok = bypass_checks(o.workload, metrics, problems);
    std::cout << "posterior digests: traced "
              << (digests_ok ? "==" : "!=") << " untraced\n";
    perfbench::Tracer::instance().write_chrome_trace(
        scratch / "traces" /
        (o.workload + "-seed" + std::to_string(o.seed) + ".json"));
  }

  for (const std::string& p : problems) std::cout << "problem: " << p << "\n";
  const bool correct = failed == 0 && digests_ok && bypass_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
