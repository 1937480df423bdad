#pragma once

// core::Simulator adapter for the agent-based model: the SMC machinery
// calibrates the ABM through exactly the interface it uses for the
// compartmental engines -- the paper's simulator-agnosticism claim, made
// compilable.

#include "abm/agent_model.hpp"
#include "core/simulator.hpp"

// Instantiated once, in abm_simulator.cpp.
extern template class epismc::core::ModelSimulator<epismc::abm::AgentBasedModel>;

namespace epismc::abm {

struct AbmSimulatorConfig {
  AbmConfig abm;
  double burnin_theta = 0.3;
  std::int64_t initial_exposed = 50;
};

/// Pools are typed pools of full AgentBasedModel copies. Agent arrays are
/// large, so windows over big populations usually capture end states
/// through the deferred-replay fallback (CapturePolicy::kAuto sizes this
/// via the pool's approx_state_bytes()); the pool type is the same either
/// way.
class AbmSimulator final : public core::ModelSimulator<AgentBasedModel> {
 public:
  explicit AbmSimulator(AbmSimulatorConfig config) : config_(config) {
    config_.abm.validate();
  }

  [[nodiscard]] epi::Checkpoint initial_state(std::int32_t day,
                                              std::uint64_t seed) const override;
  [[nodiscard]] std::string name() const override { return "agent-based"; }

 protected:
  /// Propagates under this simulator's configured day-step engine
  /// (AbmConfig::engine) regardless of which engine wrote the state --
  /// restoring a reference-engine checkpoint into the fast engine (or vice
  /// versa) is the supported cross-engine A/B path, on the per-sim and the
  /// batch paths alike. No-op when they agree.
  void prepare(AgentBasedModel& model) const override {
    model.set_engine(config_.abm.engine);
  }

 private:
  AbmSimulatorConfig config_;
};

}  // namespace epismc::abm
