#pragma once

// Simulator abstraction consumed by the SMC machinery.
//
// The calibration loop needs three things from a disease simulator:
//  (1) a common initial state at the calibration start (shared burn-in),
//  (2) "branch from this parent state with a new (theta, seed) and run
//      through day T", returning the window's output series,
//  (3) the end-of-window states that seed the next window.
//
// Anything meeting this contract can be calibrated -- the event-driven SEIR
// model, the chain-binomial baseline, and the agent-based model extension
// all implement it, which is the paper's claim that the approach "applies
// equally well to other stochastic simulation models".
//
// The hot path drives simulators through the pool-based run_batch: one call
// propagates a contiguous range of an EnsembleBuffer (parallel inside) from
// StatePool parents, writing the window series straight into the buffer's
// day-major rows. A BatchSink fuses the rest of the window into the same
// sweep: end states are captured into a pool and a per-sim hook (bias +
// likelihood in the importance sampler) runs as soon as a row is filled, so
// the ensemble is swept once.
//
// Two ways to implement the contract:
//  * a custom registry simulator implements run_window only; the base class
//    bridges every batch kernel through it, one call per trajectory, with
//    states crossing the epi::Checkpoint io boundary;
//  * a checkpointable model type derives from ModelSimulator<Model>, which
//    supplies every kernel (typed pools, copy-and-branch batches, in-place
//    streaming advance) -- the built-in backends add only initial_state,
//    name and, where needed, a prepare hook.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ensemble.hpp"
#include "core/state_pool.hpp"
#include "epi/chain_binomial.hpp"
#include "epi/parameters.hpp"
#include "epi/schedule.hpp"
#include "epi/seir_model.hpp"

namespace epismc::core {

/// Output of one branched window run.
struct WindowRun {
  std::vector<double> true_cases;  // daily new infections, window days
  std::vector<double> deaths;      // daily new deaths, window days
  epi::Checkpoint end_state;       // filled iff want_checkpoint
};

/// Fused per-sim outputs of a batched sweep. Everything is optional; the
/// default sink reproduces a plain propagate-only pass.
struct BatchSink {
  /// When non-null, sim s's end-of-window state is captured into pool
  /// slot s (the pool must already span the propagated range). Capture
  /// happens inside the parallel loop, straight from the just-propagated
  /// model -- the inline replacement for the old checkpoint-replay pass.
  StatePool* capture = nullptr;

  /// When set, called as on_sim(s) inside the parallel loop after sim s's
  /// buffer rows are final (and after capture). Must be thread-safe and
  /// depend only on s -- the same determinism contract as the loop body.
  /// The importance sampler folds bias + likelihood scoring in here.
  std::function<void(std::size_t)> on_sim;
};

class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Build the shared initial state: seed the epidemic, burn in to
  /// `day` (exclusive of the first calibration day) and checkpoint.
  [[nodiscard]] virtual epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const = 0;

  /// Branch from `state`: apply (theta from the next day, new RNG
  /// identity), simulate through `to_day` inclusive, extract the series
  /// for days [state.day + 1, to_day]. Must be thread-safe: the base-class
  /// batch kernels call it concurrently, one call per trajectory.
  [[nodiscard]] virtual WindowRun run_window(const epi::Checkpoint& state,
                                             double theta, std::uint64_t seed,
                                             std::uint64_t stream,
                                             std::int32_t to_day,
                                             bool want_checkpoint) const = 0;

  /// An empty state pool of this backend's native representation. The
  /// default is the byte-blob CheckpointStatePool; ModelSimulator backends
  /// return typed ModelStatePool<Model> pools.
  [[nodiscard]] virtual std::unique_ptr<StatePool> make_pool() const;

  /// Single-pass batch kernel: propagate sims [first, first + count) of
  /// `buffer` through `to_day`. For each sim s, read its (parent, theta,
  /// seed, stream) columns -- `parent` indexes a slot of `parents` -- run
  /// the branched trajectory, store the window tail of the true-case and
  /// death series into the buffer rows, then apply the sink (end-state
  /// capture into a pool slot, fused per-sim hook).
  ///
  /// Parallel inside; results are independent of the thread count because
  /// every trajectory's randomness is addressed by its (seed, stream)
  /// columns. The default implementation is the per-sim reference path: it
  /// converts each referenced parent across the pool's checkpoint io
  /// boundary once and calls run_window per sim, capturing and scoring in
  /// the same sweep.
  virtual void run_batch(const StatePool& parents, std::int32_t to_day,
                         EnsembleBuffer& buffer, std::size_t first,
                         std::size_t count, const BatchSink& sink = {}) const;

  /// Io-boundary adapter over the pool-based overload: parents arrive as
  /// portable checkpoints and end states (when `end_states` is non-empty,
  /// sized `count`) leave the same way. Parses the parents into a
  /// make_pool() pool and dispatches through the virtual pool overload, so
  /// every backend runs its own batch engine here. Not a hot path.
  virtual void run_batch(std::span<const epi::Checkpoint> parents,
                         std::int32_t to_day, EnsembleBuffer& buffer,
                         std::size_t first, std::size_t count,
                         std::span<epi::Checkpoint> end_states = {}) const;

  /// Streaming continuation kernel: advance the pooled live states
  /// [first, first + count) in place through `to_day` and store the tail
  /// of the newly simulated days into the buffer rows. Unlike run_batch
  /// there is no copy-and-branch: each slot keeps its model's own RNG
  /// position and trajectory, so a sequence of advance_batch calls is
  /// bit-identical to one run_batch over the union of the days. Every
  /// buffer parent column must reference the slot itself (parent[s] == s).
  ///
  /// The default implementation round-trips each slot across the
  /// checkpoint io boundary and re-branches it through run_window using the
  /// buffer's (seed, stream) columns -- distribution-correct for custom
  /// registry backends (each call consumes a fresh per-day stream), but
  /// only ModelSimulator carries the bit-equality guarantee.
  virtual void advance_batch(StatePool& states, std::int32_t to_day,
                             EnsembleBuffer& buffer, std::size_t first,
                             std::size_t count,
                             const BatchSink& sink = {}) const;

  /// Streaming resample redistribution: states[i] becomes a copy of
  /// states[ancestors[i]] (duplicates allowed), re-branched onto its fresh
  /// (seed, streams[i], thetas[i]) identity so duplicated particles
  /// diverge from the next day on. The default implementation only
  /// gathers -- sound because the default advance_batch re-branches every
  /// call from the buffer's per-day stream columns anyway; ModelSimulator
  /// re-seeds the pooled models' own engines here.
  virtual void resample_states(StatePool& states,
                               std::span<const std::uint32_t> ancestors,
                               std::uint64_t seed,
                               std::span<const std::uint64_t> streams,
                               std::span<const double> thetas) const;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Throws unless the run_batch arguments are coherent: range within the
  /// buffer, parent columns within `parents`, capture pool (when present)
  /// spanning the propagated range. Kernels call this before entering
  /// their parallel region so argument bugs surface as exceptions, not as
  /// racy out-of-bounds writes.
  void validate_batch_args(const StatePool& parents,
                           const EnsembleBuffer& buffer, std::size_t first,
                           std::size_t count, const BatchSink& sink) const;

  /// Throws unless `ancestors`, `streams` and `thetas` align.
  static void validate_resample_args(std::span<const std::uint32_t> ancestors,
                                     std::span<const std::uint64_t> streams,
                                     std::span<const double> thetas);
};

/// Adapter pinning run_batch to the base-class per-sim reference
/// implementation (one run_window per trajectory, parents and end states
/// crossing the checkpoint io boundary) regardless of any native batch
/// engine the wrapped backend has. The equivalence tests and the ensemble
/// benches compare native batch output and throughput against exactly this
/// path.
class PerSimReference final : public Simulator {
 public:
  explicit PerSimReference(const Simulator& inner) : inner_(inner) {}

  [[nodiscard]] epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override {
    return inner_.initial_state(day, seed);
  }
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state, double theta,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::int32_t to_day,
                                     bool want_checkpoint) const override {
    return inner_.run_window(state, theta, seed, stream, to_day,
                             want_checkpoint);
  }
  /// Same pool type as the wrapped backend, so reference and native runs
  /// produce directly comparable pools -- but run_batch stays the base
  /// bridge, which reaches the pool only through its checkpoint boundary.
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const override {
    return inner_.make_pool();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const Simulator& inner_;
};

/// The one simulator adapter for checkpointable model types. Model must
/// provide restore(ckpt, RestartOverrides), branch(seed, stream, theta),
/// run_until_day, day(), trajectory() and make_checkpoint() -- the shared
/// contract of SeirModel, ChainBinomialModel and abm::AgentBasedModel.
///
/// Every kernel works on typed ModelStatePool<Model> pools:
///   * run_batch reads parent prototypes straight out of the pool (no
///     checkpoint parsing), copy-assigns each into a per-thread scratch
///     model -- reusing the event-ring / trajectory / agent-array capacity
///     the previous sim on that thread left behind, so the loop does not
///     allocate in steady state -- branch()es it to the sim's (seed,
///     stream, theta) columns, runs the window, stores the series, captures
///     the end state (typed copy) and runs the fused per-sim hook;
///   * advance_batch steps the pooled models in place (streaming);
///   * resample_states gathers ancestors and re-branches the copies.
/// Results are bit-identical to restore-per-sim (run_window): branch()
/// reproduces the exact engine/schedule state restore(ckpt, {seed, stream,
/// theta}) builds, and every trajectory's randomness is addressed purely by
/// its columns.
///
/// Member definitions live in core/model_simulator.hpp; a backend includes
/// it once, in the translation unit that explicitly instantiates its Model.
template <typename Model>
class ModelSimulator : public Simulator {
 public:
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state, double theta,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::int32_t to_day,
                                     bool want_checkpoint) const final;
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const final;
  using Simulator::run_batch;
  void run_batch(const StatePool& parents, std::int32_t to_day,
                 EnsembleBuffer& buffer, std::size_t first, std::size_t count,
                 const BatchSink& sink = {}) const final;
  void advance_batch(StatePool& states, std::int32_t to_day,
                     EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count,
                     const BatchSink& sink = {}) const final;
  void resample_states(StatePool& states,
                       std::span<const std::uint32_t> ancestors,
                       std::uint64_t seed,
                       std::span<const std::uint64_t> streams,
                       std::span<const double> thetas) const final;

 protected:
  /// Runs on every model right before it propagates (after restore or
  /// copy-from-prototype, before branch()): the hook for per-model
  /// execution configuration that rides along in checkpoints but must
  /// follow the simulator instead. No-op by default.
  virtual void prepare(Model& /*model*/) const {}
};

/// Shared configuration for the concrete epi-model simulators.
struct EpiSimulatorConfig {
  epi::DiseaseParameters params;
  double burnin_theta = 0.3;          // transmission during shared burn-in
  std::int64_t initial_exposed = 400; // seeding at day 0
};

extern template class ModelSimulator<epi::SeirModel>;
extern template class ModelSimulator<epi::ChainBinomialModel>;

/// Simulator backed by the event-driven SeirModel.
class SeirSimulator final : public ModelSimulator<epi::SeirModel> {
 public:
  explicit SeirSimulator(EpiSimulatorConfig config) : config_(config) {
    config_.params.validate();
  }

  [[nodiscard]] epi::Checkpoint initial_state(std::int32_t day,
                                              std::uint64_t seed) const override;
  [[nodiscard]] std::string name() const override { return "seir-event"; }

 private:
  EpiSimulatorConfig config_;
};

/// Simulator backed by the memoryless chain-binomial baseline.
class ChainBinomialSimulator final
    : public ModelSimulator<epi::ChainBinomialModel> {
 public:
  explicit ChainBinomialSimulator(EpiSimulatorConfig config) : config_(config) {
    config_.params.validate();
  }

  [[nodiscard]] epi::Checkpoint initial_state(std::int32_t day,
                                              std::uint64_t seed) const override;
  [[nodiscard]] std::string name() const override { return "chain-binomial"; }

 private:
  EpiSimulatorConfig config_;
};

}  // namespace epismc::core
