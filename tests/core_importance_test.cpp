// Single-window importance sampling (Algorithm 1): posterior concentration
// on the true parameters, thread-count invariance of the full SMC sweep,
// checkpoint-regeneration determinism, CRN structure, and diagnostics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/importance_sampler.hpp"
#include "core/scenario.hpp"
#include "parallel/parallel.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace epismc::core;
namespace epi = epismc::epi;

struct Fixture {
  ScenarioConfig scenario;
  GroundTruth truth;
  SeirSimulator simulator;

  Fixture()
      : scenario(make_scenario()),
        truth(simulate_ground_truth(scenario)),
        simulator(EpiSimulatorConfig{scenario.params, 0.3,
                                     scenario.initial_exposed}) {}

  static ScenarioConfig make_scenario() {
    ScenarioConfig cfg;
    cfg.params.population = 300000;
    cfg.initial_exposed = 150;
    cfg.total_days = 40;
    return cfg;
  }
};

WindowSpec default_spec() {
  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.window_index = 0;
  spec.n_params = 150;
  spec.replicates = 4;
  spec.resample_size = 300;
  spec.seed = 99;
  return spec;
}

ParamProposal prior_proposal() {
  return [](epismc::rng::Engine& eng, std::uint32_t) {
    ProposedParams p;
    p.theta = epismc::rng::uniform_range(eng, 0.1, 0.5);
    p.rho = epismc::rng::beta(eng, 4.0, 1.0);
    p.parent = 0;
    return p;
  };
}

TEST(ImportanceWindow, PosteriorConcentratesOnTruth) {
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));

  const WindowResult result =
      run_importance_window(fx.simulator, lik, lik, bias, fx.truth.observed(),
                            *parents, default_spec(), prior_proposal());

  const auto thetas = result.posterior_thetas();
  const double mean = epismc::stats::mean(thetas);
  const double prior_sd = (0.5 - 0.1) / std::sqrt(12.0);
  // Posterior mean near the true 0.30 and much tighter than the prior.
  EXPECT_NEAR(mean, 0.30, 0.05);
  EXPECT_LT(epismc::stats::std_dev(thetas), 0.6 * prior_sd);
}

TEST(ImportanceWindow, ResultShapesConsistent) {
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  const WindowSpec spec = default_spec();
  const WindowResult result = run_importance_window(
      fx.simulator, lik, lik, bias, fx.truth.observed(), *parents, spec,
      prior_proposal());

  EXPECT_EQ(result.n_sims(), spec.n_params * spec.replicates);
  EXPECT_EQ(result.weights.size(), result.n_sims());
  EXPECT_EQ(result.resampled.size(), spec.resample_size);
  EXPECT_EQ(result.window_length(), 14u);
  EXPECT_EQ(result.ensemble.window_len(), 14u);
  for (std::size_t s = 0; s < result.n_sims(); ++s) {
    ASSERT_EQ(result.ensemble.true_cases(s).size(), 14u);
    ASSERT_EQ(result.ensemble.obs_cases(s).size(), 14u);
    ASSERT_EQ(result.ensemble.deaths(s).size(), 14u);
  }
  double total = 0.0;
  for (const double w : result.weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Every resampled sim has a pooled end state at the window boundary.
  ASSERT_TRUE(result.state_pool);
  for (const auto s : result.resampled) {
    const auto slot = result.sim_to_state[s];
    ASSERT_NE(slot, WindowResult::kNoState);
    ASSERT_LT(slot, result.state_count());
    EXPECT_EQ(result.state_pool->day(slot), 33);
    EXPECT_EQ(result.state_checkpoint(s).day, 33);
  }
  EXPECT_EQ(result.state_count(), result.diag.unique_resampled);
  EXPECT_GT(result.diag.ess, 1.0);
  EXPECT_LE(result.diag.max_weight, 1.0);
}

TEST(ImportanceWindow, ThreadCountInvariant) {
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  WindowSpec spec = default_spec();
  spec.n_params = 60;
  spec.replicates = 3;
  spec.resample_size = 100;

  // Capture the machine's thread budget before set_threads(1) shrinks
  // what max_threads() reports.
  const int hw_threads = epismc::parallel::max_threads();
  const auto run_with_threads = [&](int threads) {
    epismc::parallel::set_threads(threads);
    return run_importance_window(fx.simulator, lik, lik, bias,
                                 fx.truth.observed(), *parents, spec,
                                 prior_proposal());
  };
  const WindowResult serial = run_with_threads(1);
  const WindowResult parallel = run_with_threads(std::max(2, hw_threads));
  epismc::parallel::set_threads(hw_threads);

  ASSERT_EQ(serial.n_sims(), parallel.n_sims());
  for (std::size_t i = 0; i < serial.n_sims(); ++i) {
    const auto a = serial.ensemble.true_cases(i);
    const auto b = parallel.ensemble.true_cases(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "sim " << i;
    ASSERT_DOUBLE_EQ(serial.ensemble.log_weight[i],
                     parallel.ensemble.log_weight[i]);
  }
  EXPECT_EQ(serial.resampled, parallel.resampled);
}

TEST(ImportanceWindow, CommonRandomNumbersShareNoise) {
  // Under CRN, two different theta draws with the same replicate share the
  // stream identity; disabling CRN makes them distinct.
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  WindowSpec spec = default_spec();
  spec.n_params = 10;
  spec.replicates = 2;

  spec.common_random_numbers = true;
  const WindowResult crn = run_importance_window(
      fx.simulator, lik, lik, bias, fx.truth.observed(), *parents, spec,
      prior_proposal());
  std::set<std::uint64_t> crn_streams;
  for (const auto s : crn.ensemble.stream) crn_streams.insert(s);
  EXPECT_EQ(crn_streams.size(), spec.replicates);

  spec.common_random_numbers = false;
  const WindowResult indep = run_importance_window(
      fx.simulator, lik, lik, bias, fx.truth.observed(), *parents, spec,
      prior_proposal());
  std::set<std::uint64_t> indep_streams;
  for (const auto s : indep.ensemble.stream) indep_streams.insert(s);
  EXPECT_EQ(indep_streams.size(), spec.n_params * spec.replicates);
}

TEST(ImportanceWindow, IdentityBiasIgnoresRho) {
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const IdentityBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  WindowSpec spec = default_spec();
  spec.n_params = 40;
  spec.replicates = 2;
  const WindowResult result = run_importance_window(
      fx.simulator, lik, lik, bias, fx.truth.observed(), *parents, spec,
      prior_proposal());
  for (std::size_t s = 0; s < result.n_sims(); ++s) {
    const auto obs = result.ensemble.obs_cases(s);
    const auto tru = result.ensemble.true_cases(s);
    ASSERT_TRUE(std::equal(obs.begin(), obs.end(), tru.begin(), tru.end()));
  }
}

TEST(ImportanceWindow, Validation) {
  const Fixture fx;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  WindowSpec spec = default_spec();
  spec.n_params = 0;
  EXPECT_THROW((void)run_importance_window(fx.simulator, lik, lik, bias,
                                           fx.truth.observed(), *parents,
                                           spec, prior_proposal()),
               std::invalid_argument);
  spec = default_spec();
  EXPECT_THROW((void)run_importance_window(fx.simulator, lik, lik, bias,
                                           fx.truth.observed(),
                                           *fx.simulator.make_pool(), spec,
                                           prior_proposal()),
               std::invalid_argument);
  spec.to_day = spec.from_day - 1;
  EXPECT_THROW((void)run_importance_window(fx.simulator, lik, lik, bias,
                                           fx.truth.observed(), *parents,
                                           spec, prior_proposal()),
               std::invalid_argument);
}

}  // namespace
