#include "core/calibration_config.hpp"

#include <stdexcept>

#include "api/components.hpp"
#include "random/engines.hpp"

namespace epismc::core {

void CalibrationConfig::validate() const {
  if (windows.empty()) {
    throw std::invalid_argument("CalibrationConfig: no windows");
  }
  for (std::size_t m = 0; m < windows.size(); ++m) {
    if (windows[m].second < windows[m].first) {
      throw std::invalid_argument("CalibrationConfig: window ends before start");
    }
    if (m > 0 && windows[m].first != windows[m - 1].second + 1) {
      throw std::invalid_argument(
          "CalibrationConfig: windows must be contiguous");
    }
  }
  if (n_params == 0 || replicates == 0 || resample_size == 0) {
    throw std::invalid_argument("CalibrationConfig: zero-sized budget");
  }
  if (!(defensive_fraction > 0.0 && defensive_fraction <= 1.0)) {
    // A zero (or negative) fraction silently disables the defensive prior
    // mixture -- the safeguard that keeps regime shifts wider than the
    // jitter kernel reachable (the paper's day-62 jump). Disabling a
    // safeguard must be an explicit decision, so the config rejects it
    // instead of accepting a footgun default.
    throw std::invalid_argument(
        "CalibrationConfig: defensive_fraction must be in (0, 1], got " +
        std::to_string(defensive_fraction) +
        " (a zero/negative fraction disables the defensive prior mixture "
        "that keeps regime shifts reachable; use a small positive fraction "
        "such as 0.01 to approximate 'off')");
  }
  if (!(ess_threshold > 0.0 && ess_threshold < 1.0)) {
    throw std::invalid_argument(
        "CalibrationConfig: ess_threshold must be a fraction of n_sims in "
        "(0, 1), got " + std::to_string(ess_threshold));
  }
  if (max_temper_stages == 0) {
    throw std::invalid_argument(
        "CalibrationConfig: max_temper_stages must be >= 1");
  }
  if (inference == InferenceStrategy::kTemperedRejuvenate &&
      rejuvenation_moves == 0) {
    throw std::invalid_argument(
        "CalibrationConfig: the tempered+rejuvenate strategy needs "
        "rejuvenation_moves >= 1 (use \"tempered\" for ladder-only runs)");
  }
  if (burnin_day < 0 || burnin_day >= windows.front().first) {
    throw std::invalid_argument(
        "CalibrationConfig: burnin_day must be in [0, first window start)");
  }
  if (!theta_prior || !rho_prior) {
    throw std::invalid_argument("CalibrationConfig: null prior");
  }
  // Resolve every named component now: a typo'd likelihood (including the
  // death-stream one, which a cases-only run never touches) or bias model
  // must fail here, before any window has burned compute -- not on the run
  // that first exercises it.
  (void)api::likelihoods().create(likelihood_name, likelihood_parameter);
  (void)api::likelihoods().create(death_likelihood_name,
                                  death_likelihood_parameter);
  (void)api::bias_models().create(bias_name);
}

PosteriorDraws PosteriorDraws::from_window(const WindowResult& w) {
  const std::size_t n = w.n_draws();
  PosteriorDraws d;
  d.theta.resize(n);
  d.rho.resize(n);
  d.parent_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.theta[i] = w.draw_theta(i);
    d.rho[i] = w.draw_rho(i);
    d.parent_slot[i] = w.draw_state_slot(i);
  }
  return d;
}

ParamProposal make_prior_proposal(const CalibrationConfig& config,
                                  bool needs_rho) {
  return [theta_prior = config.theta_prior, rho_prior = config.rho_prior,
          needs_rho](rng::Engine& eng, std::uint32_t) {
    ProposedParams p;
    p.theta = theta_prior->sample(eng);
    p.rho = needs_rho ? rho_prior->sample(eng) : 1.0;
    p.parent = 0;
    return p;
  };
}

ParamProposal make_posterior_proposal(
    const CalibrationConfig& config,
    std::shared_ptr<const PosteriorDraws> draws, bool needs_rho) {
  if (!draws || draws->size() == 0) {
    throw std::invalid_argument(
        "make_posterior_proposal: empty posterior draw set");
  }
  return [draws = std::move(draws), theta_prior = config.theta_prior,
          rho_prior = config.rho_prior, theta_jitter = config.theta_jitter,
          rho_jitter = config.rho_jitter,
          defensive_fraction = config.defensive_fraction,
          needs_rho](rng::Engine& eng, std::uint32_t j) {
    const std::size_t draw = j % draws->size();
    ProposedParams p;
    if (rng::uniform_double(eng) < defensive_fraction) {
      // Defensive component: fresh draw from the window-1 priors so that
      // parameter jumps beyond the jitter width stay reachable.
      p.theta = theta_prior->sample(eng);
      p.rho = needs_rho ? rho_prior->sample(eng) : 1.0;
    } else {
      p.theta = theta_jitter.sample(eng, draws->theta[draw]);
      p.rho = needs_rho ? rho_jitter.sample(eng, draws->rho[draw]) : 1.0;
    }
    p.parent = draws->parent_slot[draw];
    return p;
  };
}

WindowSpec make_window_spec(const CalibrationConfig& config, std::size_t m) {
  if (m >= config.windows.size()) {
    throw std::out_of_range("make_window_spec: window " + std::to_string(m) +
                            " of " + std::to_string(config.windows.size()));
  }
  WindowSpec spec;
  spec.from_day = config.windows[m].first;
  spec.to_day = config.windows[m].second;
  spec.window_index = static_cast<std::uint32_t>(m);
  spec.n_params = config.n_params;
  spec.replicates = config.replicates;
  spec.resample_size = config.resample_size;
  spec.common_random_numbers = config.common_random_numbers;
  spec.use_deaths = config.use_deaths;
  spec.scheme = config.scheme;
  spec.seed = rng::hash_combine(config.seed, m);
  spec.capture = config.capture;
  spec.inline_state_budget = config.inline_state_budget;
  spec.inference = config.inference;
  spec.ess_threshold = config.ess_threshold;
  spec.max_temper_stages = config.max_temper_stages;
  spec.rejuvenation_moves = config.rejuvenation_moves;
  spec.on_degenerate = config.on_degenerate;
  return spec;
}

}  // namespace epismc::core
