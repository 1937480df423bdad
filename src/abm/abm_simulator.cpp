#include "abm/abm_simulator.hpp"

#include "core/model_simulator.hpp"

template class epismc::core::ModelSimulator<epismc::abm::AgentBasedModel>;

namespace epismc::abm {

epi::Checkpoint AbmSimulator::initial_state(std::int32_t day,
                                            std::uint64_t seed) const {
  AgentBasedModel model(config_.abm,
                        epi::PiecewiseSchedule(config_.burnin_theta), seed,
                        /*stream=*/0);
  model.seed_exposed(config_.initial_exposed);
  model.run_until_day(day);
  return model.make_checkpoint();
}

}  // namespace epismc::abm
