#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "api/components.hpp"
#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace perfbench {

using namespace epismc;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench tracer: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::batch_begin() {
  const auto lanes = static_cast<std::size_t>(parallel::max_threads());
  lanes_.assign(lanes, Lane{});
}

void Tracer::batch_end(std::int64_t start_ns, std::int64_t end_ns) {
  const std::int64_t wall = end_ns - start_ns;
  counters_.batch_ns += wall;
  counters_.sim_ns += wall;
  counters_.batch_lane_ns += wall * static_cast<std::int64_t>(lanes_.size());
  for (const Lane& lane : lanes_) {
    counters_.score_calls += lane.calls;
    counters_.score_ns += lane.score_ns;
    // A lane that never ran a sim was idle for the whole call.
    const std::int64_t last =
        lane.last_end_ns == 0 ? start_ns : std::min(lane.last_end_ns, end_ns);
    counters_.tail_idle_ns += end_ns - last;
  }
}

core::BatchSink Tracer::wrap(const core::BatchSink& sink) {
  core::BatchSink traced;
  traced.capture = sink.capture;
  traced.on_sim = [this, inner = sink.on_sim](std::size_t s) {
    Lane& lane = lanes_[static_cast<std::size_t>(parallel::thread_id())];
    if (inner) {
      const std::int64_t t0 = now_ns();
      inner(s);
      const std::int64_t t1 = now_ns();
      lane.score_ns += t1 - t0;
      ++lane.calls;
      lane.last_end_ns = t1;
    } else {
      lane.last_end_ns = now_ns();
    }
  };
  return traced;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  if (!path.parent_path().empty()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << bench::json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"pass\":" << s.pass << "}}";
  }
  out << "\n]}\n";
}

namespace {

/// Times one simulator call into `slot` (and the all-simulator total).
class SimCall {
 public:
  SimCall(const char* name, std::int64_t LayerCounters::*slot)
      : span_(name), slot_(slot), start_(now_ns()) {}
  ~SimCall() {
    const std::int64_t wall = now_ns() - start_;
    LayerCounters& c = Tracer::instance().counters();
    c.*slot_ += wall;
    c.sim_ns += wall;
  }
  SimCall(const SimCall&) = delete;
  SimCall& operator=(const SimCall&) = delete;

 private:
  ScopedSpan span_;
  std::int64_t LayerCounters::*slot_;
  std::int64_t start_;
};

/// Batch-call bracket: lane reset, span, and counter fold on exit (also
/// when the backend throws, so the counters stay consistent).
class BatchCall {
 public:
  explicit BatchCall(const char* name) : span_(name) {
    Tracer::instance().batch_begin();
    start_ = now_ns();
  }
  ~BatchCall() { Tracer::instance().batch_end(start_, now_ns()); }
  BatchCall(const BatchCall&) = delete;
  BatchCall& operator=(const BatchCall&) = delete;

 private:
  ScopedSpan span_;
  std::int64_t start_ = 0;
};

}  // namespace

epi::Checkpoint TracingSimulator::initial_state(std::int32_t day,
                                                std::uint64_t seed) const {
  const SimCall call("sim.initial_state", &LayerCounters::initial_state_ns);
  return inner_->initial_state(day, seed);
}

core::WindowRun TracingSimulator::run_window(const epi::Checkpoint& state,
                                             double theta, std::uint64_t seed,
                                             std::uint64_t stream,
                                             std::int32_t to_day,
                                             bool want_checkpoint) const {
  const SimCall call("sim.run_window", &LayerCounters::run_window_ns);
  return inner_->run_window(state, theta, seed, stream, to_day,
                            want_checkpoint);
}

void TracingSimulator::run_batch(const core::StatePool& parents,
                                 std::int32_t to_day,
                                 core::EnsembleBuffer& buffer,
                                 std::size_t first, std::size_t count,
                                 const core::BatchSink& sink) const {
  // Days each sim propagates: from its parent's day to to_day. Counted
  // before the call, outside the timed bracket.
  std::uint64_t days = 0;
  for (std::size_t s = first; s < first + count; ++s) {
    days += static_cast<std::uint64_t>(to_day - parents.day(buffer.parent[s]));
  }
  Tracer& t = Tracer::instance();
  t.counters().sim_days += days;
  const core::BatchSink traced = t.wrap(sink);
  const BatchCall call("sim.run_batch");
  inner_->run_batch(parents, to_day, buffer, first, count, traced);
}

void TracingSimulator::run_batch(std::span<const epi::Checkpoint> parents,
                                 std::int32_t to_day,
                                 core::EnsembleBuffer& buffer,
                                 std::size_t first, std::size_t count,
                                 std::span<epi::Checkpoint> end_states) const {
  const BatchCall call("sim.run_batch_checkpoints");
  inner_->run_batch(parents, to_day, buffer, first, count, end_states);
}

void TracingSimulator::advance_batch(core::StatePool& states,
                                     std::int32_t to_day,
                                     core::EnsembleBuffer& buffer,
                                     std::size_t first, std::size_t count,
                                     const core::BatchSink& sink) const {
  std::uint64_t days = 0;
  for (std::size_t s = first; s < first + count; ++s) {
    days += static_cast<std::uint64_t>(to_day - states.day(s));
  }
  Tracer& t = Tracer::instance();
  t.counters().sim_days += days;
  const core::BatchSink traced = t.wrap(sink);
  const BatchCall call("sim.advance_batch");
  inner_->advance_batch(states, to_day, buffer, first, count, traced);
}

void TracingSimulator::resample_states(
    core::StatePool& states, std::span<const std::uint32_t> ancestors,
    std::uint64_t seed, std::span<const std::uint64_t> streams,
    std::span<const double> thetas) const {
  const SimCall call("sim.resample_states",
                     &LayerCounters::resample_states_ns);
  inner_->resample_states(states, ancestors, seed, streams, thetas);
}

void register_traced_simulators() {
  api::SimulatorRegistry& registry = api::simulators();
  for (const std::string& name : registry.names()) {
    if (name.rfind("traced:", 0) == 0) continue;
    registry.add(traced_name(name), [name](const api::SimulatorSpec& spec) {
      return std::unique_ptr<core::Simulator>(
          std::make_unique<TracingSimulator>(
              api::simulators().create(name, spec)));
    });
  }
}

}  // namespace perfbench
