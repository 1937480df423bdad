// Sequential calibrator (paper §IV-C), driven through the epismc::api
// facade: multi-window runs track a time-varying transmission rate,
// posterior->prior carry-over restarts from checkpoints (never day zero),
// death data tightens the posterior, and configuration errors are caught
// up front -- including unresolvable component names, which must fail in
// CalibrationConfig::validate() before any window burns compute.

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "simd/simd.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc;
using namespace epismc::core;

ScenarioConfig test_scenario() {
  ScenarioConfig cfg;
  cfg.params.population = 300000;
  cfg.initial_exposed = 150;
  cfg.total_days = 80;
  // Sharper theta drop than the paper's to make two-window tracking
  // detectable at small particle counts.
  cfg.theta_segments = {{0, 0.30}, {34, 0.45}};
  cfg.rho_segments = {{0, 0.60}, {34, 0.80}};
  return cfg;
}

CalibrationConfig small_config() {
  CalibrationConfig cfg;
  cfg.windows = {{20, 33}, {34, 47}};
  cfg.n_params = 120;
  cfg.replicates = 4;
  cfg.resample_size = 240;
  cfg.seed = 4242;
  return cfg;
}

api::SimulatorSpec test_spec(const ScenarioConfig& scenario) {
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.burnin_theta = 0.3;
  spec.initial_exposed = scenario.initial_exposed;
  return spec;
}

api::CalibrationSession test_session(const GroundTruth& truth,
                                     const ScenarioConfig& scenario,
                                     CalibrationConfig cfg,
                                     const std::string& simulator =
                                         "seir-event") {
  api::CalibrationSession session;
  session.with_simulator(simulator, test_spec(scenario))
      .with_data(truth.observed())
      .with_config(std::move(cfg));
  return session;
}

TEST(Calibrator, TracksTimeVaryingTheta) {
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  auto session = test_session(truth, scenario, small_config());
  session.run_all();
  ASSERT_TRUE(session.finished());
  ASSERT_EQ(session.results().size(), 2u);

  const auto w1 = session.posterior_summary(0);
  const auto w2 = session.posterior_summary(1);
  EXPECT_NEAR(w1.theta.mean, 0.30, 0.06);
  EXPECT_NEAR(w2.theta.mean, 0.45, 0.08);
  // The calibrator noticed the change point.
  EXPECT_GT(w2.theta.mean, w1.theta.mean + 0.05);
}

TEST(Calibrator, WindowsRestartFromCheckpoints) {
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  auto session = test_session(truth, scenario, small_config());

  // Holding this reference across the next run_next_window call is safe:
  // the calibrator reserves its results vector for the full window count,
  // so WindowResults never move (this loop exercises exactly that).
  const WindowResult& w1 = session.run_next_window();
  // All first-window end states sit at the window boundary...
  ASSERT_TRUE(w1.state_pool);
  for (std::size_t u = 0; u < w1.state_count(); ++u) {
    EXPECT_EQ(w1.state_pool->day(u), 33);
  }
  // ...and the shared initial state sits at burnin_day (default 0: each
  // particle owns its full early path).
  EXPECT_EQ(session.initial_state().day, 0);

  const WindowResult& w2 = session.run_next_window();
  // ...and second-window sims branch from those pooled states (parent
  // indices reference w1's pool slots).
  for (const auto parent : w2.ensemble.parent) {
    ASSERT_LT(parent, w1.state_count());
  }
  for (std::size_t u = 0; u < w2.state_count(); ++u) {
    EXPECT_EQ(w2.state_pool->day(u), 47);
  }
}

TEST(Calibrator, DeathsTightenPosterior) {
  // Fixed-seed statistical assertion on one realization; pin the scalar
  // reference draws so an EPISMC_SIMD override cannot swap the realization.
  const epismc::simd::ScopedLevel simd_pin(epismc::simd::SimdLevel::kScalar);

  const ScenarioConfig scenario = [] {
    ScenarioConfig cfg = test_scenario();
    cfg.initial_exposed = 600;  // enough deaths to be informative
    return cfg;
  }();
  const GroundTruth truth = simulate_ground_truth(scenario);

  CalibrationConfig cases_only = small_config();
  cases_only.windows = {{20, 33}};
  CalibrationConfig with_deaths = cases_only;
  with_deaths.use_deaths = true;

  auto session_a = test_session(truth, scenario, cases_only);
  auto session_b = test_session(truth, scenario, with_deaths);
  session_a.run_all();
  session_b.run_all();

  const auto a = session_a.posterior_summary(0);
  const auto b = session_b.posterior_summary(0);
  // Joint (theta, rho) uncertainty volume must not grow when a second
  // data stream is added.
  const double vol_a = a.theta.ci90.width() * a.rho.ci90.width();
  const double vol_b = b.theta.ci90.width() * b.rho.ci90.width();
  EXPECT_LE(vol_b, vol_a * 1.10);
}

TEST(Calibrator, ReproducibleAcrossRuns) {
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  const auto run = [&] {
    auto session = test_session(truth, scenario, small_config());
    session.run_all();
    return session.results()[1].posterior_thetas();
  };
  EXPECT_EQ(run(), run());
}

TEST(Calibrator, SessionMatchesHandWiredCalibrator) {
  // The facade adds no randomness of its own: a CalibrationSession and a
  // hand-constructed calibrator fed whole windows produce identical
  // posteriors.
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);

  auto session = test_session(truth, scenario, small_config());
  session.run_all();

  const SeirSimulator sim(
      EpiSimulatorConfig{scenario.params, 0.3, scenario.initial_exposed});
  stream::StreamingCalibrator direct(sim, {.calibration = small_config()});
  while (!direct.finished()) direct.ingest_window(truth.observed());

  for (std::size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(session.results()[m].posterior_thetas(),
              direct.results()[m].posterior_thetas());
    EXPECT_EQ(session.results()[m].posterior_rhos(),
              direct.results()[m].posterior_rhos());
  }
}

TEST(Calibrator, RunNextWindowBeyondEndThrows) {
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  CalibrationConfig cfg = small_config();
  cfg.windows = {{20, 33}};
  auto session = test_session(truth, scenario, cfg);
  EXPECT_THROW((void)session.initial_state(), std::logic_error);
  (void)session.run_next_window();
  EXPECT_TRUE(session.finished());
  EXPECT_THROW((void)session.run_next_window(), std::logic_error);
}

TEST(Calibrator, ConfigValidation) {
  CalibrationConfig cfg;
  cfg.windows = {};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.windows = {{20, 33}, {35, 40}};  // gap
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.windows = {{20, 19}};  // inverted
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.n_params = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.theta_prior = nullptr;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  EXPECT_NO_THROW(CalibrationConfig{}.validate());
}

TEST(Calibrator, ConfigValidationResolvesComponentNames) {
  // Fail fast: a typo'd component name -- including the death-stream
  // likelihood a cases-only run never touches -- dies in validate(), not
  // mid-run.
  CalibrationConfig cfg;
  cfg.likelihood_name = "not-a-likelihood";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.death_likelihood_name = "not-a-likelihood";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CalibrationConfig{};
  cfg.bias_name = "not-a-bias-model";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Bad parameters for a known name fail just as early.
  cfg = CalibrationConfig{};
  cfg.likelihood_parameter = -1.0;  // gaussian-sqrt needs sigma > 0
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Calibrator, DataCoverageChecked) {
  const ScenarioConfig scenario = [] {
    ScenarioConfig cfg = test_scenario();
    cfg.total_days = 30;  // too short for the default windows
    return cfg;
  }();
  const GroundTruth truth = simulate_ground_truth(scenario);
  auto session = test_session(truth, scenario, small_config());
  EXPECT_THROW((void)session.calibrator(), std::invalid_argument);
}

TEST(Calibrator, UseDeathsRequiresDeathSeries) {
  const ScenarioConfig scenario = test_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  CalibrationConfig cfg = small_config();
  cfg.use_deaths = true;
  api::CalibrationSession session;
  session.with_simulator("seir-event", test_spec(scenario))
      .with_data(ObservedData(1, truth.observed_cases, {}))
      .with_config(cfg);
  EXPECT_THROW((void)session.calibrator(), std::invalid_argument);
}

TEST(Calibrator, ChainBinomialSimulatorWorksToo) {
  // The calibrator is simulator-agnostic: swap in the baseline engine by
  // registry name.
  ScenarioConfig scenario = test_scenario();
  scenario.use_chain_binomial = true;
  const GroundTruth truth = simulate_ground_truth(scenario);
  CalibrationConfig cfg = small_config();
  cfg.windows = {{20, 33}};
  auto session = test_session(truth, scenario, cfg, "chain-binomial");
  (void)session.run_next_window();
  const auto summary = session.posterior_summary(0);
  EXPECT_NEAR(summary.theta.mean, 0.30, 0.08);
}

}  // namespace
