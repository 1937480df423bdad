#pragma once

// The benchmark's four paper workloads (README.md says why each exists).
// A workload generates its inputs once from the workload seed -- several
// seeded scenarios -- then runs measured passes: each pass sets up a fresh
// session for one scenario and calibrates it to the final posterior.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Layer readings of one pass that the harness cannot take from the tracer
/// counters or the pool stats alone. Zero unless the workload has them.
struct PassLayers {
  double window_self_ms = 0.0;  // window wall minus simulator calls
  std::vector<double> day_self_ms;       // stream: interior days
  std::vector<double> boundary_self_ms;  // stream: window open/close days
  double ess_frac = 0.0;       // mean over windows of ESS / n_sims
  double survivor_frac = 0.0;  // mean over windows of unique survivors / n_sims
  double state_mb = 0.0;       // mean kept end-state memory per window
  double replay_sims = 0.0;    // survivors re-run by deferred replay
  double resamples = 0.0;      // stream: mid-window resamples
  double save_ms = 0.0;        // stream: checkpoint_now wall
  double save_mb = 0.0;        // stream: bytes written by those saves
  double sup_overhead_ms = 0.0;  // attempt wall minus in-child cell wall
  double sup_attempts = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  double calib_s = 0.0;
  /// Per-day latency samples: ingest() wall per day for streaming; for the
  /// batch workloads the calibration (or cell attempt) wall divided by its
  /// 56 assimilated days.
  std::vector<double> day_ms;
  std::uint64_t attempted = 0;  // windows, days or cells
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed operation
  /// Posterior digest per window (per cell for the sweep): draws and
  /// weights, so a traced pass can be compared with an untraced one.
  std::vector<std::uint64_t> digests;
  PassLayers layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Lanes the workload runs on (the harness applies parallel::set_threads).
  [[nodiscard]] virtual int lanes() const = 0;
  /// Seeded scenarios per run. A run cycles through all of them, so its
  /// figures average over several truths instead of hanging on one.
  [[nodiscard]] virtual std::size_t variants() const = 0;
  /// Operation unit counted in attempted/failed ("window", "day", "cell").
  [[nodiscard]] virtual const char* unit() const = 0;
  /// One measured pass over scenario `variant`. `traced` routes the
  /// simulator through the TracingSimulator decorator; `setup_only` stops
  /// after the timed set-up.
  [[nodiscard]] virtual PassResult run_pass(std::size_t variant, bool traced,
                                            bool setup_only) = 0;
};

/// Builds the workload and generates its inputs (ground truth) from
/// `seed`. Scratch files (checkpoints, supervision archives) go under
/// `work_dir`. Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed,
    const std::filesystem::path& work_dir);

}  // namespace perfbench
