// Graceful degeneracy handling (DegeneracyPolicy): a draw whose
// log-likelihood scores NaN/+inf is quarantined to -inf with an exact
// DegeneracyReport (or raises CalibrationError under kThrow), a
// legitimate -inf is never counted as degenerate, and an all-degenerate
// window fails as a typed, recoverable CalibrationError instead of a
// stats-layer throw. Batch and streaming paths both covered.
//
// Determinism trick: the likelihood shares CRN with the clean run (it
// never touches propagation or bias draws), so a likelihood that goes
// non-finite whenever any simulated day exceeds a threshold T -- with T
// read off the *clean* run's ensemble -- demotes a set of draws the test
// can predict exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/importance_sampler.hpp"
#include "core/scenario.hpp"
#include "io/binary_archive.hpp"
#include "stream/stream_state.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc;
using namespace epismc::core;
namespace epi = epismc::epi;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// --- Batch fixture (mirrors core_importance_test.cpp, smaller). -------------

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
    cfg.params.population = 150000;
    cfg.initial_exposed = 120;
    cfg.total_days = 40;
    return cfg;
  }
};

WindowSpec small_spec() {
  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.window_index = 0;
  spec.n_params = 50;
  spec.replicates = 2;
  spec.resample_size = 100;
  spec.seed = 77;
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

/// Gaussian-sqrt likelihood that returns `poison` (NaN or -inf) whenever
/// any simulated day exceeds `threshold` -- same CRN as the clean run,
/// so the affected draw set is exactly predictable.
class ThresholdPoisonLikelihood : public Likelihood {
 public:
  ThresholdPoisonLikelihood(double threshold, double poison)
      : base_(1.0), threshold_(threshold), poison_(poison) {}

  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated)
      const override {
    for (const double v : simulated) {
      if (v > threshold_) return poison_;
    }
    return base_.logpdf(observed, simulated);
  }

  [[nodiscard]] std::string name() const override {
    return "threshold-poison";
  }

 private:
  GaussianSqrtLikelihood base_;
  double threshold_;
  double poison_;
};

struct CleanRun {
  WindowResult result;
  double threshold = 0.0;                // median per-sim window peak
  std::vector<std::uint32_t> over;       // sims with a day > threshold
};

const CleanRun& clean_run() {
  static const CleanRun run = [] {
    const Fixture fx;
    const GaussianSqrtLikelihood lik(1.0);
    const BinomialBias bias;
    const auto parents = fx.simulator.make_pool();
    parents->append_checkpoint(fx.simulator.initial_state(19, 7));
    CleanRun r{run_importance_window(fx.simulator, lik, lik, bias,
                                     fx.truth.observed(), *parents,
                                     small_spec(), prior_proposal())};
    std::vector<double> peaks(r.result.n_sims());
    for (std::size_t s = 0; s < peaks.size(); ++s) {
      const auto series = r.result.ensemble.obs_cases(s);
      peaks[s] = *std::max_element(series.begin(), series.end());
    }
    std::vector<double> sorted = peaks;
    std::sort(sorted.begin(), sorted.end());
    r.threshold = sorted[sorted.size() / 2];
    for (std::size_t s = 0; s < peaks.size(); ++s) {
      if (peaks[s] > r.threshold) {
        r.over.push_back(static_cast<std::uint32_t>(s));
      }
    }
    return r;
  }();
  return run;
}

TEST(Degeneracy, QuarantineDemotesExactlyThePredictedDraws) {
  const CleanRun& clean = clean_run();
  ASSERT_FALSE(clean.over.empty());
  ASSERT_LT(clean.over.size(), clean.result.n_sims());

  const Fixture fx;
  const ThresholdPoisonLikelihood lik(clean.threshold, kNan);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));

  const WindowResult result =
      run_importance_window(fx.simulator, lik, lik, bias, fx.truth.observed(),
                            *parents, small_spec(), prior_proposal());

  // The report names exactly the draws whose CRN trajectory crosses the
  // threshold, in ascending order.
  EXPECT_TRUE(result.smc.degeneracy.any());
  EXPECT_EQ(result.smc.degeneracy.demoted, clean.over.size());
  EXPECT_EQ(result.smc.degeneracy.draws, clean.over);

  // Demoted draws carry -inf log-weight, zero normalized weight, and are
  // never resampled; the survivors still form a proper posterior.
  for (const std::uint32_t s : result.smc.degeneracy.draws) {
    EXPECT_EQ(result.ensemble.log_weight[s], kNegInf);
    EXPECT_EQ(result.weights[s], 0.0);
  }
  for (const std::uint32_t s : result.resampled) {
    EXPECT_FALSE(std::binary_search(result.smc.degeneracy.draws.begin(),
                                    result.smc.degeneracy.draws.end(), s));
  }
  double total = 0.0;
  for (const double w : result.weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Degeneracy, LegitimateNegInfIsNotCountedDegenerate) {
  // -inf is the honest "impossible trajectory" score; only NaN/+inf are
  // numerical failures. Same threshold, poison -inf: zero demotions.
  const CleanRun& clean = clean_run();
  const Fixture fx;
  const ThresholdPoisonLikelihood lik(clean.threshold, kNegInf);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));

  const WindowResult result =
      run_importance_window(fx.simulator, lik, lik, bias, fx.truth.observed(),
                            *parents, small_spec(), prior_proposal());

  EXPECT_FALSE(result.smc.degeneracy.any());
  EXPECT_EQ(result.smc.degeneracy.demoted, 0u);
  for (const std::uint32_t s : clean.over) {
    EXPECT_EQ(result.ensemble.log_weight[s], kNegInf);
    EXPECT_EQ(result.weights[s], 0.0);
  }
}

TEST(Degeneracy, ThrowPolicyRaisesNamingWindowAndDraws) {
  const CleanRun& clean = clean_run();
  const Fixture fx;
  const ThresholdPoisonLikelihood lik(clean.threshold, kNan);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));
  WindowSpec spec = small_spec();
  spec.on_degenerate = DegeneracyPolicy::kThrow;

  try {
    (void)run_importance_window(fx.simulator, lik, lik, bias,
                                fx.truth.observed(), *parents, spec,
                                prior_proposal());
    FAIL() << "kThrow let a degenerate window through";
  } catch (const CalibrationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("window 0"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(clean.over.size()) + " draw(s)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(clean.over.front())),
              std::string::npos)
        << what;
  }
}

TEST(Degeneracy, AllDegenerateWindowIsTypedCalibrationError) {
  // Threshold below every trajectory: all draws poisoned, the window has
  // no posterior. Both policies fail with CalibrationError -- quarantine
  // because every weight is -inf, throw at the scoring stage.
  const Fixture fx;
  const ThresholdPoisonLikelihood lik(-1.0, kNan);
  const BinomialBias bias;
  const auto parents = fx.simulator.make_pool();
  parents->append_checkpoint(fx.simulator.initial_state(19, 7));

  try {
    (void)run_importance_window(fx.simulator, lik, lik, bias,
                                fx.truth.observed(), *parents, small_spec(),
                                prior_proposal());
    FAIL() << "all-degenerate window produced a posterior";
  } catch (const CalibrationError& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
  }

  WindowSpec spec = small_spec();
  spec.on_degenerate = DegeneracyPolicy::kThrow;
  EXPECT_THROW((void)run_importance_window(fx.simulator, lik, lik, bias,
                                           fx.truth.observed(), *parents, spec,
                                           prior_proposal()),
               CalibrationError);
}

TEST(Degeneracy, PolicyNamesRoundTrip) {
  EXPECT_EQ(degeneracy_policy_from_name("quarantine"),
            DegeneracyPolicy::kQuarantine);
  EXPECT_EQ(degeneracy_policy_from_name("throw"), DegeneracyPolicy::kThrow);
  EXPECT_STREQ(to_string(DegeneracyPolicy::kQuarantine), "quarantine");
  EXPECT_STREQ(to_string(DegeneracyPolicy::kThrow), "throw");
  EXPECT_THROW((void)degeneracy_policy_from_name("panic"),
               std::invalid_argument);
}

TEST(Degeneracy, ReportSerializesOnSmcDiagnostics) {
  SmcDiagnostics d;
  d.strategy = InferenceStrategy::kTempered;
  d.triggered = true;
  d.degeneracy.demoted = 3;
  d.degeneracy.draws = {4, 9, 77};

  io::BinaryWriter out(SmcDiagnostics::kArchiveVersion);
  d.serialize(out);
  io::BinaryReader in(out.bytes());
  const SmcDiagnostics back = SmcDiagnostics::deserialize(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(back.degeneracy.demoted, 3u);
  EXPECT_EQ(back.degeneracy.draws, d.degeneracy.draws);
  EXPECT_TRUE(back.degeneracy.any());
}

// --- Streaming: a NaN observation day under both policies. ------------------

struct StreamFixture {
  core::ScenarioConfig scenario;
  core::GroundTruth truth;

  StreamFixture() {
    scenario.params.population = 50000;
    scenario.initial_exposed = 80;
    scenario.total_days = 30;
    scenario.theta_segments = {{0, 0.30}};
    scenario.rho_segments = {{0, 0.60}};
    truth = core::simulate_ground_truth(scenario);
  }

  api::CalibrationSession session(DegeneracyPolicy policy) const {
    core::CalibrationConfig cfg;
    cfg.windows = {{5, 14}, {15, 24}};
    cfg.n_params = 32;
    cfg.replicates = 2;
    cfg.resample_size = 64;
    cfg.seed = 99;
    cfg.on_degenerate = policy;

    api::SimulatorSpec spec;
    spec.params = scenario.params;
    spec.burnin_theta = 0.3;
    spec.initial_exposed = scenario.initial_exposed;

    api::CalibrationSession s;
    s.with_simulator("seir-event", spec)
        .with_data(truth.observed())
        .with_config(std::move(cfg));
    return s;
  }

  stream::DailyObservation obs_for(std::int32_t day) const {
    stream::DailyObservation obs;
    obs.day = day;
    obs.cases = truth.observed().cases_at(day);
    return obs;
  }
};

TEST(Degeneracy, StreamingNanDayQuarantinesEveryDraw) {
  const StreamFixture fx;
  api::CalibrationSession session = fx.session(DegeneracyPolicy::kQuarantine);
  stream::StreamingCalibrator cal = session.stream({});

  for (std::int32_t d = 5; d <= 6; ++d) {
    const auto& rec = cal.ingest(fx.obs_for(d));
    EXPECT_EQ(rec.demoted, 0u);
  }

  // A NaN observation poisons every draw's day term: all quarantined,
  // recorded on the day, the stream itself stays alive.
  stream::DailyObservation poisoned;
  poisoned.day = 7;
  poisoned.cases = kNan;
  const auto& rec = cal.ingest(poisoned);
  EXPECT_EQ(rec.demoted, 64u);  // n_params * replicates

  // Later healthy days add nothing back (weights already -inf) ...
  for (std::int32_t d = 8; d <= 13; ++d) cal.ingest(fx.obs_for(d));
  // ... and the boundary reports the unusable window as a typed,
  // recoverable CalibrationError rather than a stats-layer throw.
  EXPECT_THROW((void)cal.ingest(fx.obs_for(14)), CalibrationError);
}

TEST(Degeneracy, StreamingThrowPolicyAbortsBeforeStateIsPoisoned) {
  const StreamFixture fx;
  api::CalibrationSession session = fx.session(DegeneracyPolicy::kThrow);
  stream::StreamingCalibrator cal = session.stream({});

  for (std::int32_t d = 5; d <= 6; ++d) cal.ingest(fx.obs_for(d));
  const stream::StreamState before = cal.snapshot();

  stream::DailyObservation poisoned;
  poisoned.day = 7;
  poisoned.cases = kNan;
  try {
    (void)cal.ingest(poisoned);
    FAIL() << "kThrow let a NaN observation day through";
  } catch (const CalibrationError& e) {
    EXPECT_NE(std::string(e.what()).find("day 7"), std::string::npos)
        << e.what();
  }

  // The promise behind kThrow: nothing was folded into the session, so a
  // calibrator restored from the pre-poison snapshot sails through the
  // whole feed with the corrected observation.
  stream::StreamingCalibrator fresh = session.stream({});
  fresh.restore(before);
  EXPECT_EQ(fresh.next_expected_day(), 7);
  for (std::int32_t d = 7; d <= 24; ++d) fresh.ingest(fx.obs_for(d));
  EXPECT_TRUE(fresh.finished());
  EXPECT_EQ(fresh.windows_completed(), 2u);
  for (const auto& day : fresh.day_records()) EXPECT_EQ(day.demoted, 0u);
}

}  // namespace
