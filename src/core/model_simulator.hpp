#pragma once

// Member definitions of core::ModelSimulator<Model> (declared, with its
// contract, in core/simulator.hpp). Include this header only in the
// translation unit that explicitly instantiates a backend's Model:
//
//   template class core::ModelSimulator<MyModel>;
//
// and pair it with an `extern template` declaration next to the backend
// class, so other translation units link against that one instantiation.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ensemble.hpp"
#include "core/simulator.hpp"
#include "core/state_pool.hpp"
#include "epi/trajectory.hpp"
#include "parallel/parallel.hpp"

namespace epismc::core {

namespace model_simulator_detail {

/// Downcast a type-erased pool to the backend's typed pool, with a
/// diagnosable error when a pool from another backend is passed in.
template <typename Model, typename Pool>
auto& typed_pool(Pool& pool, const std::string& backend, const char* role) {
  using Target =
      std::conditional_t<std::is_const_v<Pool>,
                         const ModelStatePool<Model>, ModelStatePool<Model>>;
  auto* typed = dynamic_cast<Target*>(&pool);
  if (typed == nullptr) {
    throw std::invalid_argument("run_batch(" + backend + "): " + role +
                                " pool is '" + pool.backend() +
                                "', not this backend's typed pool -- pools "
                                "must come from this simulator's make_pool()");
  }
  return *typed;
}

/// Store days [from_day, to_day] of `m`'s case and death series into row
/// `s` of the buffer, through the caller's per-thread `scratch`.
template <typename Model>
void store_series(const Model& m, std::int32_t from_day, std::int32_t to_day,
                  EnsembleBuffer& buffer, std::size_t s,
                  std::vector<double>& scratch) {
  scratch.resize(static_cast<std::size_t>(to_day - from_day + 1));
  m.trajectory().copy_series(&epi::DailyRecord::new_infections, from_day,
                             to_day, scratch);
  buffer.store_tail(EnsembleBuffer::Series::kTrueCases, s, scratch);
  m.trajectory().copy_series(&epi::DailyRecord::new_deaths, from_day, to_day,
                             scratch);
  buffer.store_tail(EnsembleBuffer::Series::kDeaths, s, scratch);
}

}  // namespace model_simulator_detail

template <typename Model>
WindowRun ModelSimulator<Model>::run_window(const epi::Checkpoint& state,
                                            double theta, std::uint64_t seed,
                                            std::uint64_t stream,
                                            std::int32_t to_day,
                                            bool want_checkpoint) const {
  epi::RestartOverrides ovr;
  ovr.seed = seed;
  ovr.stream = stream;
  ovr.transmission_rate = theta;
  Model model = Model::restore(state, ovr);
  prepare(model);
  const std::int32_t from_day = model.day() + 1;
  if (to_day < from_day) {
    throw std::invalid_argument("run_window: to_day before checkpoint day");
  }
  model.run_until_day(to_day);

  WindowRun run;
  run.true_cases = model.trajectory().new_infections(from_day, to_day);
  run.deaths = model.trajectory().new_deaths(from_day, to_day);
  if (want_checkpoint) run.end_state = model.make_checkpoint();
  return run;
}

template <typename Model>
std::unique_ptr<StatePool> ModelSimulator<Model>::make_pool() const {
  return std::make_unique<ModelStatePool<Model>>();
}

template <typename Model>
void ModelSimulator<Model>::run_batch(const StatePool& parents_erased,
                                      std::int32_t to_day,
                                      EnsembleBuffer& buffer,
                                      std::size_t first, std::size_t count,
                                      const BatchSink& sink) const {
  using model_simulator_detail::typed_pool;
  validate_batch_args(parents_erased, buffer, first, count, sink);
  const std::string backend = name();
  const ModelStatePool<Model>& parents =
      typed_pool<Model>(parents_erased, backend, "parent");
  ModelStatePool<Model>* capture =
      sink.capture == nullptr
          ? nullptr
          : &typed_pool<Model>(*sink.capture, backend, "capture");

  struct Workspace {
    std::unique_ptr<Model> model;
    std::vector<double> series;  // full branched series, trimmed on store
  };
  std::vector<Workspace> workspaces(
      static_cast<std::size_t>(parallel::max_threads()));

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const Model& proto = parents.at(buffer.parent[s]);
    // Workspace selection by thread id is safe here: it only decides which
    // scratch memory is reused, never what is computed. Under every
    // backend thread_id() is unique per concurrently-running body and
    // < max_threads() (pool lanes are single-occupancy; external
    // submitters serialize on lane 0 -- see parallel/task_pool.hpp).
    Workspace& ws = workspaces[static_cast<std::size_t>(parallel::thread_id())];
    if (!ws.model) {
      ws.model = std::make_unique<Model>(proto);
    } else {
      *ws.model = proto;
    }
    Model& m = *ws.model;
    prepare(m);
    m.branch(buffer.seed[s], buffer.stream[s], buffer.theta[s]);
    const std::int32_t from_day = m.day() + 1;
    m.run_until_day(to_day);

    model_simulator_detail::store_series(m, from_day, to_day, buffer, s,
                                         ws.series);
    if (capture != nullptr) capture->set(s, m);
    if (sink.on_sim) sink.on_sim(s);
  });
}

template <typename Model>
void ModelSimulator<Model>::advance_batch(StatePool& states_erased,
                                          std::int32_t to_day,
                                          EnsembleBuffer& buffer,
                                          std::size_t first, std::size_t count,
                                          const BatchSink& sink) const {
  // No copy-and-branch: each pooled model keeps its own engine position and
  // trajectory and simply runs forward, so a sequence of advance_batch
  // calls reproduces one long run_until_day bit for bit. The buffer rows
  // receive the tail of the newly simulated days only.
  using model_simulator_detail::typed_pool;
  const std::string backend = name();
  ModelStatePool<Model>& states =
      typed_pool<Model>(states_erased, backend, "state");
  ModelStatePool<Model>* capture =
      sink.capture == nullptr
          ? nullptr
          : &typed_pool<Model>(*sink.capture, backend, "capture");
  if (first + count > buffer.size() || first + count > states.size()) {
    throw std::out_of_range(
        "advance_batch: sim range exceeds the buffer or state pool");
  }
  // Day-bound pre-pass outside the parallel region, so a stale slot fails
  // with a message instead of an exception racing out of the parallel
  // loop's capture machinery.
  for (std::size_t s = first; s < first + count; ++s) {
    if (to_day < states.at(s).day() + 1) {
      throw std::logic_error("advance_batch: slot " + std::to_string(s) +
                             " already sits at day " +
                             std::to_string(states.at(s).day()) +
                             ", cannot advance to day " +
                             std::to_string(to_day));
    }
  }

  // Per-thread scratch for the newly simulated days, trimmed on store.
  std::vector<std::vector<double>> series(
      static_cast<std::size_t>(parallel::max_threads()));

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    Model& m = states.at(s);
    prepare(m);
    const std::int32_t from_day = m.day() + 1;
    m.run_until_day(to_day);

    model_simulator_detail::store_series(
        m, from_day, to_day, buffer, s,
        series[static_cast<std::size_t>(parallel::thread_id())]);
    if (capture != nullptr) capture->set(s, m);
    if (sink.on_sim) sink.on_sim(s);
  });
}

template <typename Model>
void ModelSimulator<Model>::resample_states(
    StatePool& states_erased, std::span<const std::uint32_t> ancestors,
    std::uint64_t seed, std::span<const std::uint64_t> streams,
    std::span<const double> thetas) const {
  // Replace the pool with copies of the ancestor slots, then re-branch each
  // copy onto its fresh (seed, stream, theta) identity so duplicated
  // particles diverge from the resample day on, exactly like a
  // copy-and-branch from a one-slot-per-particle parent pool would.
  validate_resample_args(ancestors, streams, thetas);
  ModelStatePool<Model>& states =
      model_simulator_detail::typed_pool<Model>(states_erased, name(), "state");
  states.gather(ancestors);
  parallel::parallel_for(states.size(), [&](std::size_t i) {
    Model& m = states.at(i);
    prepare(m);
    m.branch(seed, streams[i], thetas[i]);
  });
}

}  // namespace epismc::core
