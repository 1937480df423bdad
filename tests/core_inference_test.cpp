// The adaptive SMC inference core: ESS-triggered tempering recovers a
// degenerate window that single-stage importance sampling loses (at
// re-scoring cost only), rejuvenation moves diversify the resampled
// duplicates, both adaptive strategies are fixed-seed deterministic and
// thread-invariant, healthy windows stay bit-identical to single-stage,
// the fail-fast config validation rejects out-of-range inference knobs,
// and the SmcDiagnostics trace lands in WindowResult and dumps as CSV.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <vector>

#include "api/api.hpp"
#include "core/importance_sampler.hpp"
#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "parallel/parallel.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc::core;
namespace epi = epismc::epi;
namespace api = epismc::api;
namespace parallel = epismc::parallel;

constexpr std::size_t kNParams = 300;
constexpr std::size_t kReplicates = 2;
constexpr std::size_t kNSims = kNParams * kReplicates;
constexpr std::size_t kResample = 1200;
// GaussianSqrt sigma tuned so the window-1 likelihood is sharp relative to
// the prior proposal: single-stage ESS collapses below 1% of n_sims while
// a 16x-denser reference run retains a usable posterior sample.
constexpr double kSharpSigma = 1.0;

const GroundTruth& sharp_truth() {
  static const GroundTruth truth = [] {
    ScenarioConfig cfg;
    cfg.params.population = 300000;
    cfg.initial_exposed = 150;
    cfg.total_days = 40;
    return simulate_ground_truth(cfg);
  }();
  return truth;
}

std::unique_ptr<Simulator> make_sim() {
  api::SimulatorSpec spec;
  spec.params.population = 300000;
  spec.initial_exposed = 150;
  return api::simulators().create("seir-event", spec);
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

WindowSpec sharp_spec(InferenceStrategy strategy) {
  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.n_params = kNParams;
  spec.replicates = kReplicates;
  spec.resample_size = kResample;
  spec.seed = 42;
  spec.inference = strategy;
  spec.ess_threshold = 0.5;
  return spec;
}

WindowResult run_sharp(const Simulator& sim, const WindowSpec& spec,
                       double sigma = kSharpSigma) {
  const GaussianSqrtLikelihood lik(sigma);
  const BinomialBias bias;
  const auto parents = sim.make_pool();
  parents->append_checkpoint(sim.initial_state(19, 7));
  return run_importance_window(sim, lik, lik, bias, sharp_truth().observed(),
                               *parents, spec, prior_proposal());
}

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t hash_states(const StatePool& pool) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t u = 0; u < pool.size(); ++u) {
    const epi::Checkpoint s = pool.to_checkpoint(u);
    const auto* day = reinterpret_cast<const unsigned char*>(&s.day);
    for (std::size_t i = 0; i < sizeof(s.day); ++i) {
      h = (h ^ day[i]) * 1099511628211ull;
    }
    for (const std::byte b : s.bytes) {
      h = (h ^ static_cast<unsigned char>(b)) * 1099511628211ull;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Degeneracy recovery: the acceptance-criterion scenario.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, TemperedRecoversWindowWhereSingleStageCollapses) {
  const auto sim = make_sim();

  parallel::Timer single_timer;
  const WindowResult single =
      run_sharp(*sim, sharp_spec(InferenceStrategy::kSingleStage));
  const double single_seconds = single_timer.seconds();

  // The sharp likelihood collapses the single-stage ensemble: ESS under 1%
  // of n_sims, a handful of unique ancestors.
  EXPECT_LT(single.diag.ess, 0.01 * static_cast<double>(kNSims));
  EXPECT_EQ(single.smc.strategy, InferenceStrategy::kSingleStage);
  EXPECT_EQ(single.smc.stages.size(), 1u);

  parallel::Timer tempered_timer;
  const WindowResult tempered =
      run_sharp(*sim, sharp_spec(InferenceStrategy::kTempered));
  const double tempered_seconds = tempered_timer.seconds();

  // The ladder engaged and every recorded rung -- including the final one
  // -- held ESS at or above the configured target.
  ASSERT_TRUE(tempered.smc.tempered());
  EXPECT_GT(tempered.smc.stages.size(), 1u);
  EXPECT_LE(tempered.smc.stages.size(), 12u);
  const double target = 0.5 * static_cast<double>(kNSims);
  EXPECT_LT(tempered.smc.initial_ess, target);
  EXPECT_GE(tempered.smc.final_ess, target);
  for (const SmcStage& st : tempered.smc.stages) {
    EXPECT_GE(st.ess, target * 0.999);
  }
  // The ladder is monotone in phi and ends exactly at 1.
  double prev_phi = 0.0;
  for (const SmcStage& st : tempered.smc.stages) {
    EXPECT_GT(st.phi, prev_phi);
    prev_phi = st.phi;
  }
  EXPECT_NEAR(tempered.smc.stages.back().phi, 1.0, 1e-9);

  // Re-scoring only: the ladder re-weights cached log-likelihoods, so the
  // tempered window costs at most a sliver over the single-stage run (the
  // acceptance bound is 1.3x; a generous absolute slack absorbs CI noise).
  EXPECT_LE(tempered_seconds, 1.3 * single_seconds + 0.25)
      << "tempered=" << tempered_seconds << "s single=" << single_seconds
      << "s";

  // The tempered posterior mean lands within tolerance of a 16x-denser
  // single-stage reference run of the same target.
  WindowSpec dense = sharp_spec(InferenceStrategy::kSingleStage);
  dense.n_params = 16 * kNParams;
  dense.resample_size = 2 * dense.n_params * kReplicates;
  const WindowResult reference = run_sharp(*sim, dense);
  EXPECT_GT(reference.diag.ess, 20.0);  // the reference is actually usable
  EXPECT_NEAR(mean_of(tempered.posterior_thetas()),
              mean_of(reference.posterior_thetas()), 0.04);

  // The tempered evidence estimate (product over rungs) agrees with the
  // single-stage estimator to Monte Carlo accuracy.
  double ladder_log_marginal = 0.0;
  for (const SmcStage& st : tempered.smc.stages) {
    ladder_log_marginal += st.log_marginal_increment;
  }
  EXPECT_DOUBLE_EQ(tempered.diag.log_marginal, ladder_log_marginal);
  EXPECT_NEAR(tempered.diag.log_marginal, single.diag.log_marginal, 5.0);
}

TEST(AdaptiveInference, AdaptiveStrategiesMatchSingleStageOnHealthyWindows) {
  const auto sim = make_sim();
  // A flat likelihood keeps ESS far above the trigger, so the adaptive
  // strategies must take exactly the single-stage path: same weights, same
  // resampled indices, same end states, one phi = 1 rung, no overlay.
  const double flat_sigma = 60.0;
  const WindowResult single = run_sharp(
      *sim, sharp_spec(InferenceStrategy::kSingleStage), flat_sigma);
  ASSERT_GE(single.diag.ess, 0.5 * static_cast<double>(kNSims));

  for (const InferenceStrategy strategy :
       {InferenceStrategy::kTempered, InferenceStrategy::kTemperedRejuvenate}) {
    const WindowResult adaptive =
        run_sharp(*sim, sharp_spec(strategy), flat_sigma);
    EXPECT_EQ(adaptive.ensemble.log_weight, single.ensemble.log_weight);
    EXPECT_EQ(adaptive.weights, single.weights);
    EXPECT_EQ(adaptive.resampled, single.resampled);
    EXPECT_EQ(hash_states(*adaptive.state_pool), hash_states(*single.state_pool));
    EXPECT_FALSE(adaptive.smc.tempered());
    EXPECT_FALSE(adaptive.rejuvenated.has_value());
    EXPECT_EQ(adaptive.smc.strategy, strategy);
    EXPECT_EQ(adaptive.smc.stages.size(), 1u);
    EXPECT_DOUBLE_EQ(adaptive.smc.final_ess, single.diag.ess);
  }
}

// ---------------------------------------------------------------------------
// Rejuvenation moves.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, RejuvenationDiversifiesResampledDuplicates) {
  const auto sim = make_sim();
  // Moderately sharp: the ladder still triggers (ESS ~7% of n_sims) while
  // independence proposals retain a workable acceptance rate.
  const double sigma = 2.5;
  WindowSpec spec = sharp_spec(InferenceStrategy::kTemperedRejuvenate);
  spec.rejuvenation_moves = 2;
  const WindowResult r = run_sharp(*sim, spec, sigma);

  ASSERT_TRUE(r.smc.tempered());
  ASSERT_TRUE(r.rejuvenated.has_value());
  const RejuvenatedDraws& overlay = *r.rejuvenated;
  ASSERT_EQ(overlay.moved.size(), r.n_draws());
  ASSERT_EQ(overlay.theta.size(), r.n_draws());
  ASSERT_EQ(overlay.state_slot.size(), r.n_draws());
  EXPECT_EQ(r.smc.move_acceptance.size(), 2u);
  EXPECT_EQ(r.smc.rejuvenation_proposed, 2 * r.n_draws());

  std::size_t moved = 0;
  for (const std::uint8_t m : overlay.moved) moved += m;
  EXPECT_EQ(moved > 0, r.smc.rejuvenation_accepted > 0);
  ASSERT_GT(r.smc.rejuvenation_accepted, 0u);
  EXPECT_GT(r.smc.acceptance_rate(), 0.0);
  EXPECT_LE(r.smc.acceptance_rate(), 1.0);

  // Every draw -- moved or not -- resolves to a live state slot and
  // coherent parameters through the draw-level accessors.
  std::set<std::uint32_t> slots;
  for (std::size_t i = 0; i < r.n_draws(); ++i) {
    const std::uint32_t slot = r.draw_state_slot(i);
    ASSERT_LT(slot, r.state_pool->size());
    slots.insert(slot);
    if (overlay.moved[i]) {
      EXPECT_EQ(r.draw_theta(i), overlay.theta[i]);
      // Moved draws read their own freshly propagated series row.
      const auto row = r.draw_series(EnsembleBuffer::Series::kTrueCases, i);
      EXPECT_EQ(row.size(), r.window_length());
    } else {
      EXPECT_EQ(r.draw_theta(i), r.ensemble.theta[r.resampled[i]]);
    }
  }
  // The pool holds the surviving originals plus one state per moved draw.
  EXPECT_EQ(r.state_pool->size(), r.diag.unique_resampled + moved);

  // Moves strictly increase parameter diversity over the pre-move sample.
  std::set<double> pre, post;
  for (std::size_t i = 0; i < r.n_draws(); ++i) {
    pre.insert(r.ensemble.theta[r.resampled[i]]);
    post.insert(r.draw_theta(i));
  }
  EXPECT_GT(post.size(), pre.size());

  // Posterior summaries and forecasts consume the overlay transparently.
  const auto summary = summarize_window(r);
  EXPECT_GT(summary.theta.sd, 0.0);
  const Forecast fc = posterior_forecast(*sim, r, 40, 32, 7);
  EXPECT_EQ(fc.true_cases.size(), 32u);
}

// ---------------------------------------------------------------------------
// Determinism and thread invariance.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, FixedSeedDeterminismAndThreadInvariance) {
  const auto sim = make_sim();
  for (const InferenceStrategy strategy :
       {InferenceStrategy::kTempered, InferenceStrategy::kTemperedRejuvenate}) {
    WindowSpec spec = sharp_spec(strategy);
    const WindowResult a = run_sharp(*sim, spec, 2.5);
    const WindowResult b = run_sharp(*sim, spec, 2.5);

    const int saved_threads = parallel::max_threads();
    parallel::set_threads(saved_threads > 1 ? 1 : 4);
    const WindowResult c = run_sharp(*sim, spec, 2.5);
    parallel::set_threads(saved_threads);

    for (const WindowResult* other : {&b, &c}) {
      EXPECT_EQ(a.resampled, other->resampled);
      EXPECT_EQ(a.posterior_thetas(), other->posterior_thetas());
      EXPECT_EQ(a.posterior_rhos(), other->posterior_rhos());
      EXPECT_EQ(hash_states(*a.state_pool), hash_states(*other->state_pool));
      EXPECT_EQ(a.smc.stages.size(), other->smc.stages.size());
      EXPECT_EQ(a.smc.rejuvenation_accepted, other->smc.rejuvenation_accepted);
      EXPECT_EQ(a.rejuvenated.has_value(), other->rejuvenated.has_value());
      if (a.rejuvenated && other->rejuvenated) {
        EXPECT_EQ(a.rejuvenated->moved, other->rejuvenated->moved);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sequential wiring: adaptive windows chain into the next window.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, SequentialCalibrationChainsThroughAdaptiveWindows) {
  const auto sim = make_sim();
  CalibrationConfig cfg;
  cfg.windows = {{20, 26}, {27, 33}};
  cfg.n_params = 60;
  cfg.replicates = 2;
  cfg.resample_size = 120;
  cfg.seed = 777;
  cfg.likelihood_parameter = 1.0;  // sharp enough to trigger the ladder
  cfg.inference = InferenceStrategy::kTemperedRejuvenate;
  cfg.ess_threshold = 0.5;
  epismc::stream::StreamingCalibrator cal(*sim, {.calibration = cfg});
  while (!cal.finished()) cal.ingest_window(sharp_truth().observed());
  ASSERT_EQ(cal.results().size(), 2u);
  for (const WindowResult& w : cal.results()) {
    EXPECT_EQ(w.smc.strategy, InferenceStrategy::kTemperedRejuvenate);
    EXPECT_EQ(w.n_draws(), cfg.resample_size);
    for (std::size_t i = 0; i < w.n_draws(); ++i) {
      EXPECT_LT(w.draw_state_slot(i), w.state_pool->size());
    }
  }
}

// ---------------------------------------------------------------------------
// api facade: registry + session selection.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, InferenceRegistryAndSessionSelection) {
  EXPECT_TRUE(api::inference_strategies().contains("single-stage"));
  EXPECT_TRUE(api::inference_strategies().contains("tempered"));
  EXPECT_TRUE(api::inference_strategies().contains("tempered+rejuvenate"));
  EXPECT_TRUE(api::inference_strategies().contains("tempered-rejuvenate"));
  EXPECT_THROW((void)api::inference_strategies().create("annealed"),
               api::UnknownComponentError);

  api::CalibrationSession session;
  session.with_scenario("paper-baseline")
      .with_windows({{20, 26}})
      .with_budget(24, 2, 48)
      .with_likelihood("gaussian-sqrt", 1.0)
      .with_inference("tempered")
      .with_ess_threshold(0.6);
  EXPECT_EQ(session.config().inference, InferenceStrategy::kTempered);
  EXPECT_DOUBLE_EQ(session.config().ess_threshold, 0.6);
  session.run_all();
  EXPECT_EQ(session.results().front().smc.strategy,
            InferenceStrategy::kTempered);
}

// ---------------------------------------------------------------------------
// Fail-fast validation of the new knobs.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, ConfigValidationRejectsBadKnobs) {
  const auto expect_rejects = [](CalibrationConfig cfg,
                                 const std::string& needle) {
    try {
      cfg.validate();
      FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  CalibrationConfig ok;
  EXPECT_NO_THROW(ok.validate());

  CalibrationConfig zero_defensive;
  zero_defensive.defensive_fraction = 0.0;
  expect_rejects(zero_defensive, "defensive_fraction");
  CalibrationConfig negative_defensive;
  negative_defensive.defensive_fraction = -0.1;
  expect_rejects(negative_defensive, "defensive_fraction");

  for (const double bad : {0.0, -0.5, 1.0, 1.5}) {
    CalibrationConfig cfg;
    cfg.ess_threshold = bad;
    expect_rejects(cfg, "ess_threshold");
  }
  CalibrationConfig no_stages;
  no_stages.max_temper_stages = 0;
  expect_rejects(no_stages, "max_temper_stages");
  CalibrationConfig no_moves;
  no_moves.inference = InferenceStrategy::kTemperedRejuvenate;
  no_moves.rejuvenation_moves = 0;
  expect_rejects(no_moves, "rejuvenation_moves");
  // Ladder-only strategies ignore the move count entirely.
  CalibrationConfig tempered_no_moves;
  tempered_no_moves.inference = InferenceStrategy::kTempered;
  tempered_no_moves.rejuvenation_moves = 0;
  EXPECT_NO_THROW(tempered_no_moves.validate());

  WindowSpec spec;
  spec.to_day = 10;
  spec.ess_threshold = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.ess_threshold = 0.5;
  spec.max_temper_stages = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.max_temper_stages = 12;
  spec.inference = InferenceStrategy::kTemperedRejuvenate;
  spec.rejuvenation_moves = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Diagnostics CSV.
// ---------------------------------------------------------------------------

TEST(AdaptiveInference, DiagnosticsCsvDumpsLadderAndMoves) {
  const auto sim = make_sim();
  const WindowSpec spec = sharp_spec(InferenceStrategy::kTemperedRejuvenate);
  std::vector<WindowResult> windows;
  windows.push_back(run_sharp(*sim, sharp_spec(InferenceStrategy::kSingleStage),
                              60.0));
  windows.push_back(run_sharp(*sim, spec, 2.5));

  std::ostringstream os;
  write_smc_diagnostics_csv(os, windows);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("window,from_day,to_day,strategy,kind,index,phi,ess,"
                     "log_marginal_increment,acceptance_rate"),
            std::string::npos);
  EXPECT_NE(csv.find("single-stage,stage,0,1"), std::string::npos);
  EXPECT_NE(csv.find("tempered+rejuvenate,stage,"), std::string::npos);
  EXPECT_NE(csv.find("tempered+rejuvenate,move,0,"), std::string::npos);
  // One line per header + per stage + per move round.
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1 + windows[0].smc.stages.size() +
                       windows[1].smc.stages.size() +
                       windows[1].smc.move_acceptance.size());
}

}  // namespace
