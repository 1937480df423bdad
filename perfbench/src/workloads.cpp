#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "api/api.hpp"
#include "core/posterior.hpp"
#include "random/seeding.hpp"
#include "stream/streaming_calibrator.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace epismc;

namespace {

using Windows = std::vector<std::pair<std::int32_t, std::int32_t>>;

// The paper's Fig. 4 calibration windows, days 20-75.
const Windows kPaperWindows = {{20, 33}, {34, 47}, {48, 61}, {62, 75}};
constexpr double kPaperDays = 56.0;  // days 20-75 assimilated per pass

// A window fails when its posterior theta mean misses the scenario truth at
// the window start by more than this.
constexpr double kThetaTolerance = 0.1;

constexpr std::uint64_t kTruthTag = 0x5452555448ull;  // "TRUTH"
constexpr std::uint64_t kCalibTag = 0x43414C4942ull;  // "CALIB"

int all_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// FNV-1a over raw bytes; digests compare runs of one binary on one host.
class Digest {
 public:
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t window_digest(const core::WindowResult& w) {
  Digest d;
  for (std::size_t i = 0; i < w.n_draws(); ++i) {
    d.add(w.draw_theta(i));
    d.add(w.draw_rho(i));
  }
  for (const double x : w.weights) d.add(x);
  return d.value();
}

void add_summary(Digest& d, const core::ParameterSummary& s) {
  for (const double x : {s.mean, s.sd, s.median, s.ci50.lo, s.ci50.hi,
                         s.ci90.lo, s.ci90.hi}) {
    d.add(x);
  }
}

/// Window-level checks shared by every workload: a finite evidence and a
/// posterior theta mean within tolerance of the truth. Empty when it passes.
std::string check_window(std::int32_t from_day, double log_marginal,
                         double theta_mean, double truth_theta) {
  if (!std::isfinite(log_marginal)) {
    return "window " + std::to_string(from_day) + ": non-finite log-marginal";
  }
  if (std::abs(theta_mean - truth_theta) > kThetaTolerance) {
    return "window " + std::to_string(from_day) + ": theta mean " +
           std::to_string(theta_mean) + " vs truth " +
           std::to_string(truth_theta);
  }
  return {};
}

/// ESS, survivor and capture readings of completed windows.
void add_window_layers(PassLayers& layers, const core::WindowResult& w,
                       std::size_t n_windows) {
  const auto n = static_cast<double>(w.diag.n_sims);
  const auto k = static_cast<double>(n_windows);
  layers.ess_frac += w.diag.ess / n / k;
  layers.survivor_frac += static_cast<double>(w.diag.unique_resampled) / n / k;
  if (w.state_pool && w.state_count() > 0) {
    layers.state_mb += static_cast<double>(w.state_count()) *
                       static_cast<double>(w.state_pool->approx_state_bytes()) /
                       (1024.0 * 1024.0) / k;
  }
  if (!w.diag.inline_capture) {
    layers.replay_sims += static_cast<double>(w.diag.unique_resampled);
  }
}

/// A registry preset with its truth seed replaced by the workload's.
api::ScenarioPreset seeded_preset(const std::string& name,
                                  std::uint64_t truth_seed) {
  api::ScenarioPreset preset = api::scenarios().create(name);
  preset.scenario.seed = truth_seed;
  return preset;
}

/// Calibration knobs of one workload.
struct Knobs {
  std::size_t n_params;
  std::size_t replicates;
  std::size_t resample;
  std::string inference = "single-stage";
  std::int32_t burnin_day = 0;  // 0: every particle runs its own early path
  double nb_dispersion = 500.0;  // k of the nb-sqrt case likelihood
};

/// One seeded scenario of a workload: the truth it calibrates against and
/// the calibration seed.
struct Scenario {
  std::uint64_t calib_seed;
  api::ScenarioPreset preset;
  core::GroundTruth truth;
  core::ObservedData data;
};

/// `variants` scenarios of one preset, each seeded from (seed, variant).
std::vector<Scenario> make_scenarios(const std::string& preset,
                                     std::uint64_t seed, std::size_t variants) {
  std::vector<Scenario> out;
  for (std::size_t v = 0; v < variants; ++v) {
    const std::uint64_t sub = rng::hash_combine(seed, v);
    api::ScenarioPreset p =
        seeded_preset(preset, rng::hash_combine(sub, kTruthTag));
    core::GroundTruth truth = p.make_truth();
    core::ObservedData data = truth.observed();
    out.push_back({rng::hash_combine(sub, kCalibTag), std::move(p),
                   std::move(truth), std::move(data)});
  }
  return out;
}

/// Shared session wiring of the seq-* and stream-cb workloads.
void configure(api::CalibrationSession& session, const std::string& backend,
               const Scenario& sc, const Knobs& knobs,
               bool traced) {
  session.with_simulator(traced ? traced_name(backend) : backend,
                         sc.preset.simulator_spec())
      .with_data(sc.data)
      .with_windows(kPaperWindows)
      .with_budget(knobs.n_params, knobs.replicates, knobs.resample)
      .with_likelihood("nb-sqrt", knobs.nb_dispersion)
      .with_inference(knobs.inference)
      .with_burnin_day(knobs.burnin_day)
      .with_seed(sc.calib_seed);
}

// --- seq-seir / seq-abm ------------------------------------------------------

class SequentialWorkload final : public Workload {
 public:
  SequentialWorkload(const std::string& preset, std::string backend,
                     int lanes, Knobs knobs, std::uint64_t seed,
                     std::size_t variants)
      : backend_(std::move(backend)),
        lanes_(lanes),
        knobs_(std::move(knobs)),
        scenarios_(make_scenarios(preset, seed, variants)) {}

  [[nodiscard]] int lanes() const override { return lanes_; }
  [[nodiscard]] std::size_t variants() const override {
    return scenarios_.size();
  }
  [[nodiscard]] const char* unit() const override { return "window"; }

  PassResult run_pass(std::size_t variant, bool traced,
                      bool setup_only) override {
    const Scenario& sc = scenarios_.at(variant);
    PassResult r;
    const std::int64_t setup_start = now_ns();
    api::CalibrationSession session;
    configure(session, backend_, sc, knobs_, traced);
    (void)session.calibrator();  // materialize simulator + calibrator
    r.setup_s = seconds_since(setup_start);
    if (setup_only) return r;

    Tracer& tracer = Tracer::instance();
    const std::int64_t calib_start = now_ns();
    r.attempted = kPaperWindows.size();
    for (const auto& [from, to] : kPaperWindows) {
      const std::int64_t sim_before = tracer.counters().sim_ns;
      const std::int64_t t0 = now_ns();
      try {
        const ScopedSpan span("window");
        (void)session.run_next_window();
      } catch (const std::exception& e) {
        // This window and every later one fail.
        r.failures.push_back("window " + std::to_string(from) + ": " +
                             e.what());
        break;
      }
      const std::int64_t wall = now_ns() - t0;
      r.layers.window_self_ms +=
          static_cast<double>(wall - (tracer.counters().sim_ns - sim_before)) /
          1e6;
    }
    r.calib_s = seconds_since(calib_start);
    // One amortized per-day sample per completed calibration: windows are
    // too few, and too unlike (window 1 carries the burn-in), for a
    // per-window latency distribution to have a stable median.
    if (r.failures.empty()) r.day_ms.push_back(r.calib_s * 1e3 / kPaperDays);

    const auto& results = session.results();
    r.failed = kPaperWindows.size() - results.size();
    for (const core::WindowResult& w : results) {
      const core::WindowPosteriorSummary summary = core::summarize_window(w);
      const std::string why =
          check_window(w.from_day, w.diag.log_marginal, summary.theta.mean,
                       sc.truth.theta_at(w.from_day));
      if (!why.empty()) {
        r.failures.push_back(why + " (ess " + std::to_string(w.diag.ess) +
                             ", rho mean " + std::to_string(summary.rho.mean) +
                             ")");
        ++r.failed;
      }
      r.digests.push_back(window_digest(w));
      if (traced) add_window_layers(r.layers, w, kPaperWindows.size());
    }
    return r;
  }

 private:
  std::string backend_;
  int lanes_;
  Knobs knobs_;
  std::vector<Scenario> scenarios_;
};

// --- stream-cb ---------------------------------------------------------------

class StreamingWorkload final : public Workload {
 public:
  StreamingWorkload(Knobs knobs, std::uint64_t seed, std::size_t variants,
                    const std::filesystem::path& work_dir)
      : knobs_(std::move(knobs)),
        scenarios_(make_scenarios("chain-binomial-truth", seed, variants)),
        checkpoint_(work_dir / "stream.ckpt") {}

  [[nodiscard]] int lanes() const override { return all_lanes(); }
  [[nodiscard]] std::size_t variants() const override {
    return scenarios_.size();
  }
  [[nodiscard]] const char* unit() const override { return "day"; }

  PassResult run_pass(std::size_t variant, bool traced,
                      bool setup_only) override {
    const Scenario& sc = scenarios_.at(variant);
    remove_checkpoints();
    PassResult r;
    const std::int64_t setup_start = now_ns();
    api::CalibrationSession session;
    configure(session, "chain-binomial", sc, knobs_, traced);
    api::StreamOptions options;
    // Automatic cadence beyond the run: the only saves are the explicit
    // end-of-window checkpoint_now() calls below.
    options.checkpoint_every = std::int64_t{1} << 40;
    options.checkpoint_path = checkpoint_;
    options.resample_mid_window = true;
    stream::StreamingCalibrator cal = session.stream(options);
    r.setup_s = seconds_since(setup_start);
    if (setup_only) return r;

    Tracer& tracer = Tracer::instance();
    const std::int64_t calib_start = now_ns();
    bool aborted = false;
    for (const auto& [from, to] : kPaperWindows) {
      for (std::int32_t day = from; day <= to; ++day) {
        ++r.attempted;
        if (aborted) {
          ++r.failed;
          continue;
        }
        stream::DailyObservation obs;
        obs.day = day;
        obs.cases = sc.data.cases_at(day);
        const std::int64_t sim_before = tracer.counters().sim_ns;
        const std::int64_t t0 = now_ns();
        double log_marginal = 0.0;
        try {
          const ScopedSpan span("day");
          log_marginal = cal.ingest(obs).log_marginal;
        } catch (const std::exception& e) {
          r.failures.push_back("day " + std::to_string(day) + ": " + e.what());
          ++r.failed;
          aborted = true;
          continue;
        }
        const std::int64_t wall = now_ns() - t0;
        r.day_ms.push_back(static_cast<double>(wall) / 1e6);
        const std::int64_t sim_ns = tracer.counters().sim_ns - sim_before;
        const double self_ms = static_cast<double>(wall - sim_ns) / 1e6;
        if (day == from || day == to) {
          r.layers.boundary_self_ms.push_back(self_ms);
        } else {
          r.layers.day_self_ms.push_back(self_ms);
        }
        if (day == to) r.layers.window_self_ms += self_ms;

        bool day_failed = !std::isfinite(log_marginal);
        if (day_failed) {
          r.failures.push_back("day " + std::to_string(day) +
                               ": non-finite log-marginal");
        }
        if (day == to) {
          const stream::StreamWindowRecord& w = cal.history().back();
          const std::string why =
              check_window(w.from_day, w.diag.log_marginal,
                           w.summary.theta.mean, sc.truth.theta_at(w.from_day));
          if (!why.empty()) {
            r.failures.push_back(why);
            day_failed = true;
          }
          const std::int64_t s0 = now_ns();
          {
            const ScopedSpan span("checkpoint");
            cal.checkpoint_now();
          }
          r.layers.save_ms += static_cast<double>(now_ns() - s0) / 1e6;
          r.layers.save_mb += newest_slot_mb();
        }
        if (day_failed) ++r.failed;
      }
    }
    r.calib_s = seconds_since(calib_start);

    for (const core::WindowResult& w : cal.results()) {
      r.digests.push_back(window_digest(w));
      if (traced) add_window_layers(r.layers, w, kPaperWindows.size());
    }
    for (const stream::StreamDayRecord& d : cal.day_records()) {
      if (d.resampled) r.layers.resamples += 1.0;
    }
    remove_checkpoints();
    return r;
  }

 private:
  void remove_checkpoints() const {
    std::error_code ec;
    for (const char* suffix : {".a", ".b"}) {
      std::filesystem::remove(checkpoint_.string() + suffix, ec);
    }
  }

  /// Size of the slot the last save wrote (the newer of the two).
  [[nodiscard]] double newest_slot_mb() const {
    std::uintmax_t bytes = 0;
    std::filesystem::file_time_type newest{};
    for (const char* suffix : {".a", ".b"}) {
      const std::filesystem::path slot = checkpoint_.string() + suffix;
      std::error_code ec;
      const auto when = std::filesystem::last_write_time(slot, ec);
      if (ec || (bytes != 0 && when < newest)) continue;
      newest = when;
      bytes = std::filesystem::file_size(slot, ec);
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }

  Knobs knobs_;
  std::vector<Scenario> scenarios_;
  std::filesystem::path checkpoint_;
};

// --- sweep-sup ---------------------------------------------------------------

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const std::vector<std::string>& presets, Knobs knobs,
                std::uint64_t seed, std::size_t variants,
                const std::filesystem::path& work_dir)
      : knobs_(std::move(knobs)), work_dir_(work_dir / "sweep") {
    // The sweep simulates each preset's truth itself (inside calib_s); the
    // workload seed reaches it through seeded copies of the presets.
    for (std::size_t v = 0; v < variants; ++v) {
      const std::uint64_t sub = rng::hash_combine(seed, v);
      const std::uint64_t truth_seed = rng::hash_combine(sub, kTruthTag);
      calib_seeds_.push_back(rng::hash_combine(sub, kCalibTag));
      std::vector<std::string>& names = presets_.emplace_back();
      for (std::size_t c = 0; c < presets.size(); ++c) {
        // One truth per cell, so a preset listed twice is two scenarios.
        const std::string& name = presets[c];
        const std::uint64_t cell_seed = rng::hash_combine(truth_seed, c);
        const std::string seeded = "perfbench-" + name + "-" +
                                   std::to_string(v) + "-" + std::to_string(c);
        if (!api::scenarios().contains(seeded)) {
          api::scenarios().add(seeded, [name, cell_seed] {
            return seeded_preset(name, cell_seed);
          });
        }
        names.push_back(seeded);
      }
    }
  }

  [[nodiscard]] int lanes() const override { return all_lanes(); }
  [[nodiscard]] std::size_t variants() const override {
    return presets_.size();
  }
  [[nodiscard]] const char* unit() const override { return "cell"; }

  PassResult run_pass(std::size_t variant, bool /*traced*/,
                      bool setup_only) override {
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
    std::filesystem::create_directories(work_dir_);
    PassResult r;
    const std::int64_t setup_start = now_ns();
    api::ScenarioSweep sweep;
    sweep.add_scenarios(presets_.at(variant))
        .add_simulator("chain-binomial")
        .with_windows(kPaperWindows)
        .with_budget(knobs_.n_params, knobs_.replicates, knobs_.resample)
        .with_likelihood("nb-sqrt", knobs_.nb_dispersion)
        .with_seed(calib_seeds_.at(variant));
    supervise::SupervisorOptions sup;
    sup.max_concurrent = static_cast<std::uint32_t>(lanes());
    sup.child_threads = 1;
    sup.report_path = work_dir_ / "report.bin";
    sup.scratch_dir = work_dir_ / "scratch";
    r.setup_s = seconds_since(setup_start);
    if (setup_only) return r;

    const std::int64_t calib_start = now_ns();
    api::ScenarioSweep::SupervisedSweep result;
    {
      const ScopedSpan span("sweep");
      result = sweep.run_supervised(sup);
    }
    r.calib_s = seconds_since(calib_start);

    for (std::size_t c = 0; c < result.runs.size(); ++c) {
      const api::SweepRun& run = result.runs[c];
      const supervise::TaskReport& task = result.report.tasks[c];
      ++r.attempted;
      const std::string cell = run.scenario + "/" + run.simulator;
      std::vector<std::string> why;
      if (!run.ok()) why.push_back(run.error);
      if (task.attempts.size() != 1) {
        why.push_back(std::to_string(task.attempts.size()) + " attempts");
      }
      Digest digest;
      for (std::size_t w = 0; w < run.windows.size(); ++w) {
        const std::string miss = check_window(
            run.windows[w].from_day, run.diagnostics[w].log_marginal,
            run.windows[w].theta.mean, run.truth_theta[w]);
        if (!miss.empty()) why.push_back(miss);
        add_summary(digest, run.windows[w].theta);
        add_summary(digest, run.windows[w].rho);
        digest.add(run.diagnostics[w].ess);
        digest.add(run.diagnostics[w].log_marginal);
        const auto n = static_cast<double>(run.diagnostics[w].n_sims);
        const auto k =
            static_cast<double>(run.windows.size() * result.runs.size());
        r.layers.ess_frac += run.diagnostics[w].ess / n / k;
        r.layers.survivor_frac +=
            static_cast<double>(run.diagnostics[w].unique_resampled) / n / k;
        if (!run.diagnostics[w].inline_capture) {
          r.layers.replay_sims +=
              static_cast<double>(run.diagnostics[w].unique_resampled);
        }
      }
      if (run.windows.size() != kPaperWindows.size()) {
        why.push_back("only " + std::to_string(run.windows.size()) +
                      " windows");
      }
      for (const std::string& reason : why) {
        r.failures.push_back(cell + ": " + reason);
      }
      if (!why.empty()) ++r.failed;
      r.digests.push_back(digest.value());

      double attempt_wall = 0.0;
      for (const supervise::TaskAttempt& a : task.attempts) {
        attempt_wall += a.wall_seconds;
      }
      r.day_ms.push_back(attempt_wall * 1e3 / kPaperDays);
      r.layers.sup_overhead_ms += (attempt_wall - run.wall_seconds) * 1e3;
      r.layers.sup_attempts += static_cast<double>(task.attempts.size());
    }
    std::filesystem::remove_all(work_dir_, ec);
    return r;
  }

 private:
  Knobs knobs_;
  std::filesystem::path work_dir_;
  std::vector<std::uint64_t> calib_seeds_;
  std::vector<std::vector<std::string>> presets_;  // per variant
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::filesystem::path& work_dir) {
  if (name == "seq-seir") {
    return std::make_unique<SequentialWorkload>(
        "paper-baseline", "seir-event", 1, Knobs{100, 5, 500}, seed, 4);
  }
  if (name == "seq-abm") {
    // Shared burn-in and k=50: see README.md, "Workloads".
    return std::make_unique<SequentialWorkload>(
        "abm-truth", "abm", all_lanes(),
        Knobs{96, 1, 192, "single-stage", 19, 50.0}, seed, 20);
  }
  if (name == "stream-cb") {
    return std::make_unique<StreamingWorkload>(
        Knobs{300, 5, 600, "tempered"}, seed, 8, work_dir);
  }
  if (name == "sweep-sup") {
    return std::make_unique<SweepWorkload>(
        std::vector<std::string>{"paper-baseline", "chain-binomial-truth",
                                 "sharp-likelihood", "paper-baseline"},
        Knobs{200, 5, 400}, seed, 8, work_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
