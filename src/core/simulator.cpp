#include "core/simulator.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_simulator.hpp"
#include "parallel/parallel.hpp"

namespace epismc::core {

namespace {

/// Store a run_window result's series into row `s` of the buffer.
void store_run(EnsembleBuffer& buffer, std::size_t s, const WindowRun& run) {
  buffer.store_tail(EnsembleBuffer::Series::kTrueCases, s, run.true_cases);
  buffer.store_tail(EnsembleBuffer::Series::kDeaths, s, run.deaths);
}

/// Shared burn-in of the epi backends: seed the epidemic at day 0, run to
/// `day` under the burn-in schedule, checkpoint.
template <typename Model>
epi::Checkpoint burn_in(const EpiSimulatorConfig& config, std::int32_t day,
                        std::uint64_t seed) {
  Model model(config.params, epi::PiecewiseSchedule(config.burnin_theta), seed,
              /*stream=*/0);
  model.seed_exposed(config.initial_exposed);
  model.run_until_day(day);
  return model.make_checkpoint();
}

}  // namespace

void Simulator::validate_batch_args(const StatePool& parents,
                                    const EnsembleBuffer& buffer,
                                    std::size_t first, std::size_t count,
                                    const BatchSink& sink) const {
  if (first + count > buffer.size()) {
    throw std::out_of_range("run_batch: sim range [" + std::to_string(first) +
                            ", " + std::to_string(first + count) +
                            ") exceeds the buffer (" +
                            std::to_string(buffer.size()) + " sims)");
  }
  if (sink.capture != nullptr && sink.capture->size() < first + count) {
    throw std::invalid_argument(
        "run_batch: capture pool has " + std::to_string(sink.capture->size()) +
        " slots but the range needs " + std::to_string(first + count));
  }
  for (std::size_t s = first; s < first + count; ++s) {
    if (buffer.parent[s] >= parents.size()) {
      throw std::out_of_range("run_batch: sim " + std::to_string(s) +
                              " references parent " +
                              std::to_string(buffer.parent[s]) + " of " +
                              std::to_string(parents.size()));
    }
  }
}

void Simulator::validate_resample_args(
    std::span<const std::uint32_t> ancestors,
    std::span<const std::uint64_t> streams, std::span<const double> thetas) {
  if (ancestors.size() != streams.size() || ancestors.size() != thetas.size()) {
    throw std::invalid_argument(
        "resample_states: ancestors, streams and thetas must align");
  }
}

std::unique_ptr<StatePool> Simulator::make_pool() const {
  return std::make_unique<CheckpointStatePool>();
}

void Simulator::run_batch(const StatePool& parents, std::int32_t to_day,
                          EnsembleBuffer& buffer, std::size_t first,
                          std::size_t count, const BatchSink& sink) const {
  // Per-sim reference path: one run_window per trajectory, exactly the
  // pre-batching particle loop, so simulators that only implement
  // run_window behave as they always have. Each referenced parent crosses
  // the pool's checkpoint io boundary once, up front.
  validate_batch_args(parents, buffer, first, count, sink);
  std::vector<epi::Checkpoint> parent_ckpts(parents.size());
  std::vector<char> referenced(parents.size(), 0);
  for (std::size_t s = first; s < first + count; ++s) {
    referenced[buffer.parent[s]] = 1;
  }
  for (std::size_t p = 0; p < parents.size(); ++p) {
    if (referenced[p]) parent_ckpts[p] = parents.to_checkpoint(p);
  }

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const WindowRun run =
        run_window(parent_ckpts[buffer.parent[s]], buffer.theta[s],
                   buffer.seed[s], buffer.stream[s], to_day,
                   sink.capture != nullptr);
    store_run(buffer, s, run);
    if (sink.capture != nullptr) {
      sink.capture->set_from_checkpoint(s, run.end_state);
    }
    if (sink.on_sim) sink.on_sim(s);
  });
}

void Simulator::run_batch(std::span<const epi::Checkpoint> parents,
                          std::int32_t to_day, EnsembleBuffer& buffer,
                          std::size_t first, std::size_t count,
                          std::span<epi::Checkpoint> end_states) const {
  if (!end_states.empty() && end_states.size() != count) {
    throw std::invalid_argument(
        "run_batch: end_states must be empty or match the sim count");
  }
  const std::unique_ptr<StatePool> pool = make_pool();
  pool->resize(parents.size());
  for (std::size_t p = 0; p < parents.size(); ++p) {
    pool->set_from_checkpoint(p, parents[p]);
  }
  std::unique_ptr<StatePool> capture;
  BatchSink sink;
  if (!end_states.empty()) {
    capture = make_pool();
    capture->resize(first + count);
    sink.capture = capture.get();
  }
  run_batch(*pool, to_day, buffer, first, count, sink);
  for (std::size_t i = 0; i < end_states.size(); ++i) {
    end_states[i] = capture->to_checkpoint(first + i);
  }
}

void Simulator::advance_batch(StatePool& states, std::int32_t to_day,
                              EnsembleBuffer& buffer, std::size_t first,
                              std::size_t count, const BatchSink& sink) const {
  // io-boundary bridge: serialize each live slot, branch-and-run it through
  // run_window (each call consumes the buffer's fresh per-day streams, so
  // this path is distribution-correct rather than bit-identical to a single
  // long run), then write the advanced state back into the pool.
  validate_batch_args(states, buffer, first, count, sink);
  for (std::size_t s = first; s < first + count; ++s) {
    if (buffer.parent[s] != s) {
      throw std::invalid_argument(
          "advance_batch: buffer parent columns must be self-referential "
          "(parent[s] == s), sim " + std::to_string(s) + " references " +
          std::to_string(buffer.parent[s]));
    }
  }
  std::vector<epi::Checkpoint> slot_ckpts(count);
  for (std::size_t i = 0; i < count; ++i) {
    slot_ckpts[i] = states.to_checkpoint(first + i);
  }
  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const WindowRun run = run_window(slot_ckpts[i], buffer.theta[s],
                                     buffer.seed[s], buffer.stream[s], to_day,
                                     /*want_checkpoint=*/true);
    store_run(buffer, s, run);
    states.set_from_checkpoint(s, run.end_state);
    if (sink.capture != nullptr) {
      sink.capture->set_from_checkpoint(s, run.end_state);
    }
    if (sink.on_sim) sink.on_sim(s);
  });
}

void Simulator::resample_states(StatePool& states,
                                std::span<const std::uint32_t> ancestors,
                                std::uint64_t /*seed*/,
                                std::span<const std::uint64_t> streams,
                                std::span<const double> thetas) const {
  validate_resample_args(ancestors, streams, thetas);
  // Gather only: the default advance_batch re-branches each call from the
  // buffer's per-day (seed, stream, theta) columns, which is where the
  // duplicated copies diverge.
  states.gather(ancestors);
}

template class ModelSimulator<epi::SeirModel>;
template class ModelSimulator<epi::ChainBinomialModel>;

epi::Checkpoint SeirSimulator::initial_state(std::int32_t day,
                                             std::uint64_t seed) const {
  return burn_in<epi::SeirModel>(config_, day, seed);
}

epi::Checkpoint ChainBinomialSimulator::initial_state(std::int32_t day,
                                                      std::uint64_t seed) const {
  return burn_in<epi::ChainBinomialModel>(config_, day, seed);
}

}  // namespace epismc::core
