// Chain-binomial baseline engine: same invariants as the event-driven model
// (conservation, determinism, checkpoint equivalence) plus cross-engine
// consistency -- both engines must agree on aggregate epidemic size within
// stochastic tolerance, since they discretize the same disease process.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "epi/chain_binomial.hpp"
#include "epi/seir_model.hpp"

namespace {

using namespace epismc::epi;

DiseaseParameters test_params() {
  DiseaseParameters p;
  p.population = 150000;
  return p;
}

TEST(ChainBinomial, Conservation) {
  ChainBinomialModel m(test_params(), PiecewiseSchedule(0.35), 3);
  m.seed_exposed(300);
  for (int day = 1; day <= 120; ++day) {
    m.step();
    ASSERT_EQ(m.total_individuals(), 150000) << "day " << day;
  }
}

TEST(ChainBinomial, Deterministic) {
  const auto run = [] {
    ChainBinomialModel m(test_params(), PiecewiseSchedule(0.3), 5, 2);
    m.seed_exposed(200);
    m.run_until_day(60);
    return m.trajectory().new_infections(1, 60);
  };
  EXPECT_EQ(run(), run());
}

TEST(ChainBinomial, HigherThetaGrowsFaster) {
  const auto total = [](double theta) {
    ChainBinomialModel m(test_params(), PiecewiseSchedule(theta), 7);
    m.seed_exposed(100);
    m.run_until_day(60);
    const auto cases = m.trajectory().new_infections(1, 60);
    return std::accumulate(cases.begin(), cases.end(), 0.0);
  };
  EXPECT_GT(total(0.4), 2.0 * total(0.2));
}

TEST(ChainBinomial, CheckpointResumeEqualsUninterrupted) {
  const auto seeded = [] {
    ChainBinomialModel m(test_params(), PiecewiseSchedule(0.3), 11);
    m.seed_exposed(200);
    return m;
  };
  ChainBinomialModel reference = seeded();
  reference.run_until_day(80);

  ChainBinomialModel half = seeded();
  half.run_until_day(40);
  ChainBinomialModel resumed =
      ChainBinomialModel::restore(half.make_checkpoint());
  resumed.run_until_day(80);
  EXPECT_EQ(resumed.census(), reference.census());
}

TEST(ChainBinomial, CheckpointOverridesApply) {
  ChainBinomialModel m(test_params(), PiecewiseSchedule(0.3), 13);
  m.seed_exposed(200);
  m.run_until_day(30);
  RestartOverrides ovr;
  ovr.seed = 77;
  ovr.transmission_rate = 0.05;
  ChainBinomialModel cold = ChainBinomialModel::restore(m.make_checkpoint(), ovr);
  cold.run_until_day(90);
  RestartOverrides hot;
  hot.seed = 77;
  hot.transmission_rate = 0.5;
  ChainBinomialModel warm = ChainBinomialModel::restore(m.make_checkpoint(), hot);
  warm.run_until_day(90);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_GT(sum(warm.trajectory().new_infections(31, 90)),
            sum(cold.trajectory().new_infections(31, 90)));
}

TEST(ChainBinomial, RejectsEventEngineCheckpoints) {
  SeirModel event_model(test_params(), PiecewiseSchedule(0.3), 17);
  event_model.seed_exposed(100);
  event_model.run_until_day(10);
  EXPECT_THROW(
      (void)ChainBinomialModel::restore(event_model.make_checkpoint()),
      epismc::io::ArchiveError);
}

TEST(ChainBinomial, CorruptParameterFailsTyped) {
  // A stored parameter out of its range fails as a typed corruption, not
  // as the std::invalid_argument that a bad restart override raises.
  ChainBinomialModel m(test_params(), PiecewiseSchedule(0.3), 19);
  m.seed_exposed(100);
  m.run_until_day(10);
  Checkpoint ckpt = m.make_checkpoint();
  // The 8-byte archive header, then DiseaseParameters field by field:
  // detection_delay follows population, 17 doubles and two ints.
  constexpr std::size_t kDetectionDelayAt = 8 + 8 + 9 * 8 + 2 * 4 + 8 * 8;
  int delay = 0;
  std::memcpy(&delay, ckpt.bytes.data() + kDetectionDelayAt, sizeof delay);
  ASSERT_EQ(delay, test_params().detection_delay);
  delay = 100'000;
  std::memcpy(ckpt.bytes.data() + kDetectionDelayAt, &delay, sizeof delay);
  try {
    (void)ChainBinomialModel::restore(ckpt);
    FAIL() << "detection_delay " << delay << " was accepted";
  } catch (const epismc::io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), epismc::io::ArchiveErrorKind::kCorrupt) << e.what();
  }
}

TEST(CrossEngine, AggregateEpidemicSizesComparable) {
  // Not bit-identical (different sojourn laws), but cumulative infections
  // over a fixed horizon should be the same order of magnitude.
  const double theta = 0.35;
  const auto run_event = [&] {
    SeirModel m(test_params(), PiecewiseSchedule(theta), 19);
    m.seed_exposed(200);
    m.run_until_day(70);
    const auto c = m.trajectory().new_infections(1, 70);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  const auto run_chain = [&] {
    ChainBinomialModel m(test_params(), PiecewiseSchedule(theta), 19);
    m.seed_exposed(200);
    m.run_until_day(70);
    const auto c = m.trajectory().new_infections(1, 70);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  const double event_total = run_event();
  const double chain_total = run_chain();
  EXPECT_GT(event_total, 0.0);
  EXPECT_GT(chain_total, 0.0);
  EXPECT_LT(std::max(event_total, chain_total) /
                std::min(event_total, chain_total),
            5.0);
}

}  // namespace
