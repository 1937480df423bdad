// PMMH comparator: chain health (acceptance, mixing), posterior
// concentration near the truth, agreement with the importance-sampling
// posterior, and configuration validation.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/pmmh.hpp"
#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc::core;

class PmmhTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig scenario;
    scenario.params.population = 300000;
    scenario.initial_exposed = 150;
    scenario.total_days = 40;
    truth_ = new GroundTruth(simulate_ground_truth(scenario));
    sim_ = new SeirSimulator(
        EpiSimulatorConfig{scenario.params, 0.3, scenario.initial_exposed});
    init_ = new epismc::epi::Checkpoint(sim_->initial_state(0, 77));
  }
  static void TearDownTestSuite() {
    delete truth_;
    delete sim_;
    delete init_;
    truth_ = nullptr;
    sim_ = nullptr;
    init_ = nullptr;
  }

  static PmmhConfig fast_config() {
    PmmhConfig cfg;
    cfg.iterations = 400;
    cfg.burnin = 100;
    cfg.replicates = 6;
    return cfg;
  }

  static GroundTruth* truth_;
  static SeirSimulator* sim_;
  static epismc::epi::Checkpoint* init_;
};

GroundTruth* PmmhTest::truth_ = nullptr;
SeirSimulator* PmmhTest::sim_ = nullptr;
epismc::epi::Checkpoint* PmmhTest::init_ = nullptr;

TEST_F(PmmhTest, ChainMovesAndAcceptsReasonably) {
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const PmmhResult res =
      run_pmmh(*sim_, lik, bias, truth_->observed(), *init_, fast_config());
  EXPECT_EQ(res.theta_chain.size(), 300u);
  EXPECT_GT(res.acceptance_rate, 0.01);
  EXPECT_LT(res.acceptance_rate, 0.95);
  const std::set<double> distinct(res.theta_chain.begin(),
                                  res.theta_chain.end());
  EXPECT_GT(distinct.size(), 3u);  // the chain is not stuck
  // Proposals outside the prior support are rejected without simulating,
  // so the budget is an upper bound that most iterations consume.
  EXPECT_LE(res.simulations_used,
            (fast_config().iterations + 1) * fast_config().replicates);
  EXPECT_GE(res.simulations_used,
            fast_config().iterations * fast_config().replicates / 2);
}

TEST_F(PmmhTest, PosteriorConcentratesNearTruth) {
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  PmmhConfig cfg = fast_config();
  cfg.iterations = 800;
  cfg.burnin = 250;
  const PmmhResult res =
      run_pmmh(*sim_, lik, bias, truth_->observed(), *init_, cfg);
  EXPECT_NEAR(res.theta_mean(), 0.30, 0.05);
  // Tighter than the U(0.1, 0.5) prior sd.
  EXPECT_LT(res.theta_sd(), 0.6 * 0.4 / std::sqrt(12.0));
  for (const double rho : res.rho_chain) {
    ASSERT_GE(rho, 0.0);
    ASSERT_LE(rho, 1.0);
  }
}

TEST_F(PmmhTest, AgreesWithImportanceSampling) {
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  PmmhConfig cfg = fast_config();
  cfg.iterations = 800;
  cfg.burnin = 250;
  const PmmhResult mcmc =
      run_pmmh(*sim_, lik, bias, truth_->observed(), *init_, cfg);

  CalibrationConfig is_cfg;
  is_cfg.windows = {{20, 33}};
  is_cfg.n_params = 250;
  is_cfg.replicates = 6;
  is_cfg.resample_size = 500;
  epismc::stream::StreamingCalibrator cal(*sim_, {.calibration = is_cfg});
  const auto s = summarize_window(cal.ingest_window(truth_->observed()));

  // Two inference engines, one posterior: means agree within a tolerance
  // driven by both methods' Monte-Carlo error.
  EXPECT_NEAR(mcmc.theta_mean(), s.theta.mean, 0.04);
}

TEST_F(PmmhTest, Reproducible) {
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const PmmhResult a =
      run_pmmh(*sim_, lik, bias, truth_->observed(), *init_, fast_config());
  const PmmhResult b =
      run_pmmh(*sim_, lik, bias, truth_->observed(), *init_, fast_config());
  EXPECT_EQ(a.theta_chain, b.theta_chain);
  EXPECT_EQ(a.acceptance_rate, b.acceptance_rate);
}

TEST(PmmhConfigTest, Validation) {
  PmmhConfig cfg;
  cfg.iterations = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PmmhConfig{};
  cfg.burnin = cfg.iterations;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PmmhConfig{};
  cfg.theta_step = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PmmhConfig{};
  cfg.to_day = cfg.from_day - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PmmhConfig{};
  cfg.theta_prior = nullptr;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(PmmhConfig{}.validate());
}

}  // namespace
