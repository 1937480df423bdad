// Posterior summaries: parameter summaries, credible ribbons (ordering and
// coverage), joint KDE plumbing, and posterior-predictive forecasting from
// checkpointed end states.

#include <gtest/gtest.h>

#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc::core;

class PosteriorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig scenario;
    scenario.params.population = 300000;
    scenario.initial_exposed = 150;
    scenario.total_days = 60;
    truth_ = new GroundTruth(simulate_ground_truth(scenario));
    sim_ = new SeirSimulator(
        EpiSimulatorConfig{scenario.params, 0.3, scenario.initial_exposed});

    CalibrationConfig cfg;
    cfg.windows = {{20, 33}};
    cfg.n_params = 120;
    cfg.replicates = 4;
    cfg.resample_size = 240;
    cfg.seed = 777;
    epismc::stream::StreamingCalibrator cal(*sim_, {.calibration = cfg});
    window_ = new WindowResult(cal.ingest_window(truth_->observed()));
  }

  static void TearDownTestSuite() {
    delete window_;
    delete sim_;
    delete truth_;
    window_ = nullptr;
    sim_ = nullptr;
    truth_ = nullptr;
  }

  static GroundTruth* truth_;
  static SeirSimulator* sim_;
  static WindowResult* window_;
};

GroundTruth* PosteriorTest::truth_ = nullptr;
SeirSimulator* PosteriorTest::sim_ = nullptr;
WindowResult* PosteriorTest::window_ = nullptr;

TEST_F(PosteriorTest, SummaryOrderingsHold) {
  const auto s = summarize_window(*window_);
  EXPECT_EQ(s.from_day, 20);
  EXPECT_EQ(s.to_day, 33);
  EXPECT_LE(s.theta.ci90.lo, s.theta.ci50.lo);
  EXPECT_LE(s.theta.ci50.lo, s.theta.median);
  EXPECT_LE(s.theta.median, s.theta.ci50.hi);
  EXPECT_LE(s.theta.ci50.hi, s.theta.ci90.hi);
  EXPECT_GT(s.theta.sd, 0.0);
  EXPECT_GE(s.rho.mean, 0.0);
  EXPECT_LE(s.rho.mean, 1.0);
}

TEST_F(PosteriorTest, RibbonOrderedAndOrdersByLevel) {
  const Ribbon r50 = posterior_ribbon(*window_, WindowResult::Series::kObsCases, 0.5);
  const Ribbon r90 = posterior_ribbon(*window_, WindowResult::Series::kObsCases, 0.9);
  ASSERT_EQ(r50.mid.size(), window_->window_length());
  for (std::size_t d = 0; d < r50.mid.size(); ++d) {
    ASSERT_LE(r50.lo[d], r50.mid[d]);
    ASSERT_LE(r50.mid[d], r50.hi[d]);
    // Wider level contains the narrower one.
    ASSERT_LE(r90.lo[d], r50.lo[d]);
    ASSERT_GE(r90.hi[d], r50.hi[d]);
  }
  EXPECT_THROW((void)posterior_ribbon(*window_,
                                      WindowResult::Series::kObsCases, 1.5),
               std::invalid_argument);
}

TEST_F(PosteriorTest, RibbonTracksObservations) {
  // The 90% posterior ribbon on reported cases was fit to the observed
  // window: it must track the observations' scale day by day. (Exact
  // pointwise coverage is not guaranteed at this tiny particle budget --
  // the sigma = 1 sqrt-likelihood concentrates on few unique trajectories,
  // whose ribbon can be narrower than the observation noise.)
  const Ribbon r = posterior_ribbon(*window_, WindowResult::Series::kObsCases, 0.9);
  const auto y = truth_->observed().cases_window(20, 33);
  std::size_t covered = 0;
  for (std::size_t d = 0; d < y.size(); ++d) {
    if (y[d] >= r.lo[d] && y[d] <= r.hi[d]) ++covered;
    // Median never drifts past 50% relative error on any fitted day.
    ASSERT_NEAR(r.mid[d], y[d], 0.5 * y[d] + 5.0) << "day " << d;
  }
  EXPECT_GE(covered, y.size() / 2);
}

TEST_F(PosteriorTest, TrueCasesRibbonSitsAboveObserved) {
  // rho < 1 means true cases exceed reported cases in distribution.
  const Ribbon truth_ribbon =
      posterior_ribbon(*window_, WindowResult::Series::kTrueCases, 0.5);
  const Ribbon obs_ribbon =
      posterior_ribbon(*window_, WindowResult::Series::kObsCases, 0.5);
  double truth_sum = 0.0;
  double obs_sum = 0.0;
  for (std::size_t d = 0; d < truth_ribbon.mid.size(); ++d) {
    truth_sum += truth_ribbon.mid[d];
    obs_sum += obs_ribbon.mid[d];
  }
  EXPECT_GT(truth_sum, obs_sum);
}

TEST_F(PosteriorTest, JointKdeConcentratesNearTruth) {
  const auto kde = joint_posterior_kde(*window_, 0.1, 0.5, 0.0, 1.0, 48);
  EXPECT_NEAR(kde.total_mass(), 1.0, 0.1);
  const auto [theta_mode, rho_mode] = kde.mode();
  EXPECT_NEAR(theta_mode, 0.30, 0.07);
  // Mass within a box around the truth dominates a same-size far box.
  const double near = epismc::stats::box_mass(kde, 0.25, 0.35, 0.4, 0.8);
  const double far = epismc::stats::box_mass(kde, 0.40, 0.50, 0.0, 0.4);
  EXPECT_GT(near, 5.0 * far);
}

TEST_F(PosteriorTest, ForecastShapesAndOrdering) {
  const Forecast fc = posterior_forecast(*sim_, *window_, 45, 50, 31337);
  EXPECT_EQ(fc.from_day, 34);
  EXPECT_EQ(fc.to_day, 45);
  ASSERT_EQ(fc.true_cases.size(), 50u);
  for (const auto& row : fc.true_cases) ASSERT_EQ(row.size(), 12u);
  const Ribbon rib = fc.case_ribbon(0.8);
  for (std::size_t d = 0; d < rib.mid.size(); ++d) {
    ASSERT_LE(rib.lo[d], rib.mid[d]);
    ASSERT_LE(rib.mid[d], rib.hi[d]);
  }
  EXPECT_THROW((void)posterior_forecast(*sim_, *window_, 33, 10, 1),
               std::invalid_argument);
}

TEST_F(PosteriorTest, ForecastReproducible) {
  const Forecast a = posterior_forecast(*sim_, *window_, 40, 20, 5);
  const Forecast b = posterior_forecast(*sim_, *window_, 40, 20, 5);
  EXPECT_EQ(a.true_cases, b.true_cases);
}

TEST(ParameterSummaryTest, Validation) {
  EXPECT_THROW((void)summarize_parameter({1.0}), std::invalid_argument);
  const auto s = summarize_parameter({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(s.mean, 2.5, 1e-12);
  EXPECT_NEAR(s.median, 2.5, 1e-12);
}

}  // namespace
