#pragma once

// Discretized sojourn-time distributions.
//
// Cohorts entering a compartment have their future exit *scheduled at entry
// time* -- this is what makes the model state checkpointable as "counts +
// future transition events". Sojourn times follow Erlang(shape, mean)
// distributions discretized to whole days: pmf[d] = P(d - 0.5 < X <= d +
// 0.5) for d = 1..max_delay (day 1 absorbs all mass below 1.5 so every
// transition takes at least one day, which rules out same-day event
// cascades).

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "epi/parameters.hpp"
#include "random/distributions.hpp"

namespace epismc::epi {

class DelayDistribution {
 public:
  DelayDistribution() = default;

  /// Build from an Erlang(shape, mean) sojourn law truncated at max_delay.
  DelayDistribution(double mean_days, int erlang_shape, int max_delay);

  /// Split a cohort of `count` individuals across delays 1..max_delay:
  /// calls emit(d, n) to report n > 0 individuals leaving after exactly
  /// d+1 days (a bucket may be reported more than once; counts add).
  /// Cohorts of at most kIndividualMax are sampled one by one (O(count) cdf
  /// lookups); larger ones through the multinomial plan built once with the
  /// table (O(max_delay) binomial draws, no allocation) -- identical
  /// distribution, different constants.
  template <class Emit>
  void split(rng::Engine& eng, std::int64_t count, Emit&& emit) const {
    if (pmf_.empty()) throw std::logic_error("DelayDistribution: not built");
    if (count <= kIndividualMax) {
      for (std::int64_t i = 0; i < count; ++i) {
        emit(static_cast<std::size_t>(sample_one(eng) - 1), std::int64_t{1});
      }
      return;
    }
    plan_.draw(eng, count, emit);
  }

  /// Sample a single delay in days (>= 1).
  [[nodiscard]] int sample_one(rng::Engine& eng) const;

  [[nodiscard]] std::span<const double> pmf() const noexcept { return pmf_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] int max_delay() const noexcept {
    return static_cast<int>(pmf_.size());
  }

 private:
  /// Per-individual sampling beats a full multinomial sweep for the small
  /// cohorts that dominate late-pipeline compartments (ICU, deaths).
  static constexpr std::int64_t kIndividualMax = 16;

  std::vector<double> pmf_;  // pmf_[i] = P(delay == i + 1 days)
  std::vector<double> cdf_;
  rng::MultinomialPlan plan_;  // conditional-binomial split over pmf_
};

/// Immutable bundle of the nine discretized sojourn tables of a disease
/// parameterization, shared by the SEIR and agent-based models.
struct DelayTables {
  DelayDistribution latent;
  DelayDistribution presym;
  DelayDistribution asym;
  DelayDistribution mild;
  DelayDistribution severe;
  DelayDistribution hosp;
  DelayDistribution hosp_icu;
  DelayDistribution icu;
  DelayDistribution posticu;
};

/// The delay tables for `params` (durations, Erlang shape, max_delay).
/// Durations and shape never change across checkpoint restarts (only
/// branching fractions, infectiousness and transmission are restartable),
/// so restored models share tables through a thread-local one-entry cache
/// instead of re-deriving them -- restore sits on the SMC hot path.
[[nodiscard]] std::shared_ptr<const DelayTables> shared_delay_tables(
    const DiseaseParameters& params);

/// Regularized lower incomplete gamma P(k, x) for integer k >= 1
/// (the Erlang CDF): P(X <= x) with X ~ Erlang(k, scale 1).
[[nodiscard]] double erlang_cdf(int shape, double scale, double x);

}  // namespace epismc::epi
