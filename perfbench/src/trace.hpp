#pragma once

// Outside-in tracing for the benchmark's traced run.
//
// Nothing inside src/ is instrumented. Each layer is timed at its public
// boundary from the benchmark's side:
//
//   * TracingSimulator decorates a core::Simulator and forwards every
//     virtual to the real backend. make_pool() is forwarded too, so the
//     backend's typed pools (and with them the fused batch path) are
//     exactly the ones an untraced run uses.
//   * The BatchSink::on_sim hook of every batch call is wrapped; per-sim
//     callbacks are folded into per-lane counters (keyed by
//     parallel::thread_id()), never into spans.
//   * The harness opens spans around the calls it makes itself
//     (window, day, checkpoint, sweep) and samples TaskPool stats.
//
// Spans are kept in memory and written out once, as Chrome trace-event
// JSON, when the run ends. The tracer assumes one driving thread: every
// span and batch call is issued from the thread that runs the workload;
// only the on_sim callbacks run on pool lanes.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer counters, monotonic over the tracer's lifetime; the harness takes
/// differences around the calls it times.
struct LayerCounters {
  std::int64_t sim_ns = 0;            // every simulator call below
  std::int64_t batch_ns = 0;          // run_batch + advance_batch wall
  std::uint64_t sim_days = 0;         // sims x days propagated in batch calls
  std::int64_t initial_state_ns = 0;
  std::int64_t resample_states_ns = 0;
  std::int64_t run_window_ns = 0;
  std::int64_t batch_lane_ns = 0;     // batch wall x lanes
  std::int64_t tail_idle_ns = 0;      // lane time after a lane's last sim
  std::int64_t score_ns = 0;          // inside wrapped on_sim hooks
  std::uint64_t score_calls = 0;
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 at the root
  int pass = 0;     // which measured pass the span belongs to
};

class Tracer {
 public:
  /// Per-lane scratch for the on_sim wrapper; one cache line per lane so
  /// lanes never share a written line.
  struct alignas(64) Lane {
    std::uint64_t calls = 0;
    std::int64_t score_ns = 0;
    std::int64_t last_end_ns = 0;  // 0: no callback in the current call
  };

  static Tracer& instance();

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void enable() noexcept { enabled_ = true; }
  void set_pass(int pass) noexcept { pass_ = pass; }

  /// Open a span under the innermost open span; returns its index.
  int begin(std::string name);
  /// Close span `id` (the innermost open one).
  void end(int id);

  [[nodiscard]] const LayerCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] LayerCounters& counters() noexcept { return counters_; }

  /// Batch-call bracket: resets the lane slots, then folds them into the
  /// counters (score time, calls, per-lane tail idle) when the call ends.
  void batch_begin();
  void batch_end(std::int64_t start_ns, std::int64_t end_ns);
  /// Wraps the caller's sink: same capture pool, an on_sim that times the
  /// original hook (when there is one) and stamps the lane's last finish.
  [[nodiscard]] epismc::core::BatchSink wrap(
      const epismc::core::BatchSink& sink);

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  Tracer() = default;

  bool enabled_ = false;
  int pass_ = 0;
  LayerCounters counters_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Lane> lanes_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) id_ = t.begin(std::move(name));
  }
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::instance().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

/// Simulator decorator: forwards every virtual to `inner`, timing each call
/// into the tracer. Results are bit-identical to the bare backend.
class TracingSimulator final : public epismc::core::Simulator {
 public:
  explicit TracingSimulator(std::unique_ptr<epismc::core::Simulator> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] epismc::epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override;
  [[nodiscard]] epismc::core::WindowRun run_window(
      const epismc::epi::Checkpoint& state, double theta, std::uint64_t seed,
      std::uint64_t stream, std::int32_t to_day,
      bool want_checkpoint) const override;
  [[nodiscard]] std::unique_ptr<epismc::core::StatePool> make_pool()
      const override {
    return inner_->make_pool();
  }
  void run_batch(const epismc::core::StatePool& parents, std::int32_t to_day,
                 epismc::core::EnsembleBuffer& buffer, std::size_t first,
                 std::size_t count,
                 const epismc::core::BatchSink& sink = {}) const override;
  void run_batch(std::span<const epismc::epi::Checkpoint> parents,
                 std::int32_t to_day, epismc::core::EnsembleBuffer& buffer,
                 std::size_t first, std::size_t count,
                 std::span<epismc::epi::Checkpoint> end_states = {})
      const override;
  void advance_batch(epismc::core::StatePool& states, std::int32_t to_day,
                     epismc::core::EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count,
                     const epismc::core::BatchSink& sink = {}) const override;
  void resample_states(epismc::core::StatePool& states,
                       std::span<const std::uint32_t> ancestors,
                       std::uint64_t seed,
                       std::span<const std::uint64_t> streams,
                       std::span<const double> thetas) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<epismc::core::Simulator> inner_;
};

/// Registers "traced:<name>" in api::simulators() for every registered
/// backend, each building a TracingSimulator around the real one. Call
/// once, before any session is built.
void register_traced_simulators();

[[nodiscard]] inline std::string traced_name(const std::string& backend) {
  return "traced:" + backend;
}

}  // namespace perfbench
