// Discretized Erlang sojourn distributions: pmf normalization, mean
// preservation, minimum one-day delay, cohort splitting (draw for draw
// against the per-call conditional-binomial reference), and the Erlang CDF
// against closed-form references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "epi/delay.hpp"

namespace {

using epismc::epi::DelayDistribution;
using epismc::epi::erlang_cdf;
using epismc::rng::Engine;

/// Bucket counts of one split, aggregated from the emit callback.
std::vector<std::int64_t> split_counts(const DelayDistribution& d, Engine& eng,
                                       std::int64_t count) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(d.max_delay()), 0);
  d.split(eng, count, [&](std::size_t i, std::int64_t n) {
    ASSERT_GT(n, 0);
    out.at(i) += n;
  });
  return out;
}

/// The split as it was computed per call before the multinomial plan:
/// one sample_one() per individual up to 16, otherwise conditional
/// binomials over the raw pmf with the running mass recomputed each call.
std::vector<std::int64_t> reference_split(const DelayDistribution& d,
                                          Engine& eng, std::int64_t count) {
  const auto probs = d.pmf();
  std::vector<std::int64_t> out(probs.size(), 0);
  if (count <= 16) {
    for (std::int64_t i = 0; i < count; ++i) {
      out[static_cast<std::size_t>(d.sample_one(eng) - 1)] += 1;
    }
    return out;
  }
  double total = 0.0;
  for (const double p : probs) total += p;
  std::int64_t remaining = count;
  double mass = total;
  for (std::size_t i = 0; i + 1 < probs.size() && remaining > 0; ++i) {
    const double cond = std::clamp(probs[i] / mass, 0.0, 1.0);
    const std::int64_t draw = epismc::rng::binomial(eng, remaining, cond);
    out[i] = draw;
    remaining -= draw;
    mass -= probs[i];
    if (mass <= 0.0) break;
  }
  out.back() += remaining;
  return out;
}

TEST(ErlangCdf, Shape1IsExponential) {
  // Erlang(1, scale) == Exponential(1/scale).
  for (const double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(erlang_cdf(1, 2.0, x), 1.0 - std::exp(-x / 2.0), 1e-12);
  }
  EXPECT_EQ(erlang_cdf(1, 2.0, 0.0), 0.0);
  EXPECT_EQ(erlang_cdf(1, 2.0, -1.0), 0.0);
}

TEST(ErlangCdf, Shape2ClosedForm) {
  // P(X <= x) = 1 - e^-z (1 + z), z = x / scale.
  const double scale = 1.5;
  for (const double x : {0.5, 2.0, 5.0}) {
    const double z = x / scale;
    EXPECT_NEAR(erlang_cdf(2, scale, x), 1.0 - std::exp(-z) * (1.0 + z),
                1e-12);
  }
  EXPECT_THROW((void)erlang_cdf(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)erlang_cdf(2, 0.0, 1.0), std::invalid_argument);
}

TEST(DelayDistribution, PmfNormalized) {
  const DelayDistribution d(5.0, 2, 64);
  double total = 0.0;
  for (const double p : d.pmf()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DelayDistribution, MeanApproximatesContinuousMean) {
  for (const double mean : {2.0, 5.0, 8.0}) {
    const DelayDistribution d(mean, 2, 64);
    // Rounding to whole days shifts the mean by at most ~half a day.
    EXPECT_NEAR(d.mean(), mean, 0.6) << "mean " << mean;
  }
}

TEST(DelayDistribution, ShortMeanConcentratesOnDayOne) {
  const DelayDistribution d(0.2, 2, 16);
  EXPECT_GT(d.pmf()[0], 0.95);  // nearly everything leaves after one day
}

TEST(DelayDistribution, TailFoldedIntoLastBin) {
  const DelayDistribution d(30.0, 1, 8);  // heavy tail beyond 8 days
  double total = 0.0;
  for (const double p : d.pmf()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(d.pmf().back(), 0.5);  // most mass lands in the fold
}

TEST(DelayDistribution, SplitConservesCohort) {
  const DelayDistribution d(4.0, 2, 32);
  Engine eng(20240040);
  for (const std::int64_t cohort : {0ll, 1ll, 17ll, 100000ll}) {
    const auto buckets = split_counts(d, eng, cohort);
    EXPECT_EQ(std::accumulate(buckets.begin(), buckets.end(), std::int64_t{0}),
              cohort);
  }
}

TEST(DelayDistribution, SplitMeanMatchesPmfMean) {
  const DelayDistribution d(6.0, 2, 64);
  Engine eng(20240041);
  const std::int64_t cohort = 200000;
  const auto buckets = split_counts(d, eng, cohort);
  double mean = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    mean += static_cast<double>(i + 1) * static_cast<double>(buckets[i]);
  }
  mean /= static_cast<double>(cohort);
  EXPECT_NEAR(mean, d.mean(), 0.05);
}

TEST(DelayDistribution, SplitMatchesReferenceDraws) {
  // Bit-identity oracle: the plan-based split must give the same counts as
  // the per-call reference and leave the engine at the same position, so
  // every golden built on the SEIR simulator stays valid.
  const auto tables =
      epismc::epi::shared_delay_tables(epismc::epi::DiseaseParameters{});
  const DelayDistribution* all[] = {
      &tables->latent, &tables->presym,   &tables->asym,
      &tables->mild,   &tables->severe,   &tables->hosp,
      &tables->hosp_icu, &tables->icu,    &tables->posticu};
  const std::int64_t cohorts[] = {0, 1, 16, 17, 63, 64, 65, 1000, 1000000};
  for (std::size_t t = 0; t < std::size(all); ++t) {
    for (const std::int64_t cohort : cohorts) {
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Engine plan_eng(seed, t);
        Engine ref_eng(seed, t);
        const auto got = split_counts(*all[t], plan_eng, cohort);
        const auto want = reference_split(*all[t], ref_eng, cohort);
        ASSERT_EQ(got, want) << "table " << t << " cohort " << cohort
                             << " seed " << seed;
        ASSERT_EQ(plan_eng.position(), ref_eng.position())
            << "table " << t << " cohort " << cohort << " seed " << seed;
      }
    }
  }
}

TEST(DelayDistribution, SampleOneWithinSupport) {
  const DelayDistribution d(3.0, 2, 16);
  Engine eng(20240042);
  double mean = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const int delay = d.sample_one(eng);
    ASSERT_GE(delay, 1);
    ASSERT_LE(delay, 16);
    mean += delay;
  }
  EXPECT_NEAR(mean / kDraws, d.mean(), 0.05);
}

TEST(DelayDistribution, HigherShapeIsLessDispersed) {
  const DelayDistribution wide(6.0, 1, 64);
  const DelayDistribution tight(6.0, 8, 64);
  const auto variance = [](const DelayDistribution& d) {
    double m = d.mean();
    double v = 0.0;
    const auto pmf = d.pmf();
    for (std::size_t i = 0; i < pmf.size(); ++i) {
      const double x = static_cast<double>(i + 1);
      v += pmf[i] * (x - m) * (x - m);
    }
    return v;
  };
  EXPECT_LT(variance(tight), variance(wide));
}

TEST(DelayDistribution, Validation) {
  EXPECT_THROW(DelayDistribution(0.0, 2, 16), std::invalid_argument);
  EXPECT_THROW(DelayDistribution(1.0, 0, 16), std::invalid_argument);
  EXPECT_THROW(DelayDistribution(1.0, 2, 1), std::invalid_argument);
}

}  // namespace
