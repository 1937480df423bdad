#include "epi/delay.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace epismc::epi {

double erlang_cdf(int shape, double scale, double x) {
  if (shape < 1) throw std::invalid_argument("erlang_cdf: shape must be >= 1");
  if (!(scale > 0.0)) throw std::invalid_argument("erlang_cdf: scale must be > 0");
  if (x <= 0.0) return 0.0;
  const double z = x / scale;
  // 1 - exp(-z) * sum_{j=0}^{k-1} z^j / j!
  double term = 1.0;
  double sum = 1.0;
  for (int j = 1; j < shape; ++j) {
    term *= z / static_cast<double>(j);
    sum += term;
  }
  return 1.0 - std::exp(-z) * sum;
}

DelayDistribution::DelayDistribution(double mean_days, int erlang_shape,
                                     int max_delay) {
  if (!(mean_days > 0.0)) {
    throw std::invalid_argument("DelayDistribution: mean must be > 0");
  }
  if (erlang_shape < 1) {
    throw std::invalid_argument("DelayDistribution: shape must be >= 1");
  }
  if (max_delay < 2) {
    throw std::invalid_argument("DelayDistribution: max_delay must be >= 2");
  }
  const double scale = mean_days / static_cast<double>(erlang_shape);
  pmf_.resize(static_cast<std::size_t>(max_delay));
  double prev = 0.0;  // CDF at 0.5 folded into day 1 (min sojourn is 1 day)
  for (int d = 1; d <= max_delay; ++d) {
    const double upper = d == max_delay
                             ? 1.0  // fold the tail into the last bin
                             : erlang_cdf(erlang_shape, scale,
                                          static_cast<double>(d) + 0.5);
    pmf_[static_cast<std::size_t>(d - 1)] = upper - prev;
    prev = upper;
  }
  cdf_.resize(pmf_.size());
  std::partial_sum(pmf_.begin(), pmf_.end(), cdf_.begin());
  cdf_.back() = 1.0;
  plan_ = rng::MultinomialPlan(pmf_);
}

int DelayDistribution::sample_one(rng::Engine& eng) const {
  if (cdf_.empty()) throw std::logic_error("DelayDistribution: not built");
  const double u = rng::uniform_double(eng);
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    if (u <= cdf_[i]) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(cdf_.size());
}

double DelayDistribution::mean() const noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    m += static_cast<double>(i + 1) * pmf_[i];
  }
  return m;
}

namespace {

/// Cache key over the fields the delay tables depend on.
struct DelayKey {
  double durations[9];
  int shape;
  int max_delay;

  friend bool operator==(const DelayKey& a, const DelayKey& b) {
    for (int i = 0; i < 9; ++i) {
      if (a.durations[i] != b.durations[i]) return false;
    }
    return a.shape == b.shape && a.max_delay == b.max_delay;
  }
};

DelayKey make_delay_key(const DiseaseParameters& p) {
  return DelayKey{{p.latent_period, p.presymptomatic_period,
                   p.asymptomatic_period, p.mild_period, p.severe_period,
                   p.hospital_period, p.hospital_to_icu, p.icu_period,
                   p.post_icu_period},
                  p.erlang_shape,
                  p.max_delay};
}

}  // namespace

std::shared_ptr<const DelayTables> shared_delay_tables(
    const DiseaseParameters& params) {
  // One-entry thread-local cache: particle loops restore thousands of
  // models with identical durations, so the hit rate is ~100%.
  thread_local DelayKey cached_key{};
  thread_local std::shared_ptr<const DelayTables> cached_tables;

  const DelayKey key = make_delay_key(params);
  if (cached_tables && cached_key == key) return cached_tables;
  const int k = params.erlang_shape;
  const int md = params.max_delay;
  auto tables = std::make_shared<DelayTables>();
  tables->latent = DelayDistribution(params.latent_period, k, md);
  tables->presym = DelayDistribution(params.presymptomatic_period, k, md);
  tables->asym = DelayDistribution(params.asymptomatic_period, k, md);
  tables->mild = DelayDistribution(params.mild_period, k, md);
  tables->severe = DelayDistribution(params.severe_period, k, md);
  tables->hosp = DelayDistribution(params.hospital_period, k, md);
  tables->hosp_icu = DelayDistribution(params.hospital_to_icu, k, md);
  tables->icu = DelayDistribution(params.icu_period, k, md);
  tables->posticu = DelayDistribution(params.post_icu_period, k, md);
  cached_key = key;
  cached_tables = tables;
  return tables;
}

}  // namespace epismc::epi
