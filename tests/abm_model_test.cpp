// Agent-based model: the same invariants demanded of the compartmental
// engines (conservation, determinism, checkpoint-resume equality, restart
// overrides), plus agent-level structure (household topology determinism,
// per-agent state accounting) and SMC interoperability through the shared
// Simulator interface.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "abm/abm_simulator.hpp"
#include "abm/agent_model.hpp"
#include "core/posterior.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc;
using abm::AbmConfig;
using abm::AgentBasedModel;

AbmConfig small_config() {
  AbmConfig cfg;
  cfg.disease.population = 20000;
  return cfg;
}

AgentBasedModel seeded(std::uint64_t seed, double theta = 0.35,
                       std::int64_t exposed = 60) {
  AgentBasedModel m(small_config(), epi::PiecewiseSchedule(theta), seed);
  m.seed_exposed(exposed);
  return m;
}

TEST(AbmModel, StartsAllSusceptibleAndConserves) {
  AgentBasedModel m = seeded(1);
  EXPECT_EQ(m.total_individuals(), 20000);
  for (int day = 1; day <= 100; ++day) {
    m.step();
    ASSERT_EQ(m.total_individuals(), 20000) << "day " << day;
  }
}

TEST(AbmModel, HouseholdTopologyIsSeedDeterministic) {
  const AgentBasedModel a = seeded(1);
  const AgentBasedModel b = seeded(2);  // different dynamics seed
  // Same network seed -> identical household partition.
  EXPECT_EQ(a.household_count(), b.household_count());

  AbmConfig other = small_config();
  other.network_seed = 99;
  AgentBasedModel c(other, epi::PiecewiseSchedule(0.35), 1);
  EXPECT_NE(a.household_count(), c.household_count());
}

TEST(AbmModel, HouseholdSizesAverageOut) {
  const AgentBasedModel m = seeded(3);
  const double avg = 20000.0 / static_cast<double>(m.household_count());
  EXPECT_NEAR(avg, small_config().mean_household_size, 0.2);
}

TEST(AbmModel, DeterministicForSameSeed) {
  const auto run = [] {
    AgentBasedModel m = seeded(42);
    m.run_until_day(60);
    return m.trajectory().new_infections(1, 60);
  };
  EXPECT_EQ(run(), run());
}

TEST(AbmModel, DifferentSeedsDiverge) {
  AgentBasedModel a = seeded(1);
  AgentBasedModel b = seeded(2);
  a.run_until_day(60);
  b.run_until_day(60);
  EXPECT_NE(a.trajectory().new_infections(1, 60),
            b.trajectory().new_infections(1, 60));
}

TEST(AbmModel, HigherThetaGrowsFaster) {
  const auto total = [](double theta) {
    AgentBasedModel m = seeded(7, theta);
    m.run_until_day(60);
    const auto c = m.trajectory().new_infections(1, 60);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  EXPECT_GT(total(0.45), 2.0 * total(0.15));
}

TEST(AbmModel, HouseholdShareShiftsTransmission) {
  // With full community mixing vs full household mixing the epidemic still
  // spreads, but pure household transmission saturates (households are
  // small) and infects fewer people.
  const auto total = [](double share) {
    AbmConfig cfg;
    cfg.disease.population = 20000;
    cfg.household_share = share;
    AgentBasedModel m(cfg, epi::PiecewiseSchedule(0.4), 11);
    m.seed_exposed(60);
    m.run_until_day(90);
    const auto c = m.trajectory().new_infections(1, 90);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  EXPECT_GT(total(0.0), total(1.0));
  EXPECT_GT(total(1.0), 0.0);
}

TEST(AbmModel, CheckpointResumeEqualsUninterrupted) {
  AgentBasedModel reference = seeded(13);
  reference.run_until_day(70);

  AgentBasedModel half = seeded(13);
  half.run_until_day(35);
  AgentBasedModel resumed = AgentBasedModel::restore(half.make_checkpoint());
  resumed.run_until_day(70);
  EXPECT_EQ(resumed.census(), reference.census());
  EXPECT_EQ(resumed.trajectory().new_infections(1, 70),
            reference.trajectory().new_infections(1, 70));
}

TEST(AbmModel, CheckpointOverridesBranchFutures) {
  AgentBasedModel m = seeded(17);
  m.run_until_day(30);
  const epi::Checkpoint ckpt = m.make_checkpoint();

  epi::RestartOverrides hot;
  hot.seed = 500;
  hot.transmission_rate = 0.6;
  epi::RestartOverrides cold;
  cold.seed = 500;
  cold.transmission_rate = 0.02;
  AgentBasedModel a = AgentBasedModel::restore(ckpt, hot);
  AgentBasedModel b = AgentBasedModel::restore(ckpt, cold);
  EXPECT_EQ(a.census(), b.census());  // same state at branch point
  a.run_until_day(80);
  b.run_until_day(80);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_GT(sum(a.trajectory().new_infections(31, 80)),
            2.0 * sum(b.trajectory().new_infections(31, 80)));
  EXPECT_EQ(a.total_individuals(), 20000);
}

TEST(AbmModel, RejectsCompartmentalCheckpoints) {
  epi::DiseaseParameters p;
  p.population = 10000;
  epi::SeirModel compartmental(p, epi::PiecewiseSchedule(0.3), 3);
  compartmental.seed_exposed(50);
  compartmental.run_until_day(10);
  EXPECT_THROW((void)AgentBasedModel::restore(compartmental.make_checkpoint()),
               io::ArchiveError);
}

TEST(AbmModel, HugeRingLengthFailsTyped) {
  // The event-calendar ring length is a u32 the loader sizes a vector
  // from; patched to 0xFFFFFFFF it must fail as a typed truncation before
  // any allocation, not as bad_alloc or length_error.
  AgentBasedModel m = seeded(23);
  m.run_until_day(10);
  epi::Checkpoint ckpt = m.make_checkpoint();

  // Walk the restore layout up to the ring length field.
  io::BinaryReader in{ckpt.bytes};
  (void)epi::DiseaseParameters::deserialize(in);
  (void)in.read<double>();         // mean_household_size
  (void)in.read<double>();         // household_share
  (void)in.read<std::uint64_t>();  // network_seed
  (void)in.read<std::uint8_t>();   // engine tag
  (void)epi::PiecewiseSchedule::deserialize(in);
  (void)in.read<std::int32_t>();   // day
  (void)in.read<epi::Census>();
  (void)in.read_vector<std::uint8_t>();   // state
  (void)in.read_vector<std::uint8_t>();   // next_state
  (void)in.read_vector<std::int32_t>();   // next_day
  (void)in.read_vector<std::uint32_t>();  // hot_households
  const std::size_t ring_at = ckpt.bytes.size() - in.remaining();
  ASSERT_GT(in.read<std::uint32_t>(), 0u);

  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(ckpt.bytes.data() + ring_at, &huge, sizeof huge);
  try {
    (void)AgentBasedModel::restore(ckpt);
    FAIL() << "huge ring length was accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kTruncated) << e.what();
  }
}

TEST(AbmModel, CorruptPopulationFailsTyped) {
  // A stored population that disagrees with the archived agent arrays must
  // fail as a typed corruption before the household network is sized from
  // it.
  AgentBasedModel m = seeded(29);
  m.run_until_day(10);
  epi::Checkpoint ckpt = m.make_checkpoint();
  // DiseaseParameters opens the payload after the 8-byte archive header,
  // and population is its first field.
  constexpr std::size_t kPopulationAt = 8;
  std::int64_t population = 0;
  std::memcpy(&population, ckpt.bytes.data() + kPopulationAt,
              sizeof population);
  ASSERT_EQ(population, small_config().disease.population);
  population *= 10;
  std::memcpy(ckpt.bytes.data() + kPopulationAt, &population,
              sizeof population);
  try {
    (void)AgentBasedModel::restore(ckpt);
    FAIL() << "population " << population << " was accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kCorrupt) << e.what();
  }
}

TEST(AbmModel, SeedValidation) {
  AgentBasedModel m = seeded(19);
  EXPECT_THROW(m.seed_exposed(-1), std::invalid_argument);
  EXPECT_THROW(m.seed_exposed(30000), std::invalid_argument);
  AbmConfig bad = small_config();
  bad.household_share = 1.5;
  EXPECT_THROW(AgentBasedModel(bad, epi::PiecewiseSchedule(0.3), 1),
               std::invalid_argument);
}

TEST(AbmSimulator, ImplementsTheSimulatorContract) {
  abm::AbmSimulatorConfig cfg;
  cfg.abm.disease.population = 20000;
  cfg.initial_exposed = 60;
  const abm::AbmSimulator sim(cfg);
  EXPECT_EQ(sim.name(), "agent-based");

  const epi::Checkpoint init = sim.initial_state(0, 5);
  EXPECT_EQ(init.day, 0);
  const core::WindowRun run = sim.run_window(init, 0.35, 9, 1, 30, true);
  EXPECT_EQ(run.true_cases.size(), 30u);
  EXPECT_EQ(run.end_state.day, 30);

  // Deterministic replay -- required by the checkpoint-regeneration trick.
  const core::WindowRun replay = sim.run_window(init, 0.35, 9, 1, 30, false);
  EXPECT_EQ(replay.true_cases, run.true_cases);
}

TEST(AbmSimulator, CalibratesWithTheSameSmcCore) {
  // End-to-end: ABM ground truth -> ABM calibration through the same
  // calibrator the compartmental backends use. The posterior must
  // concentrate near the truth.
  abm::AbmSimulatorConfig cfg;
  cfg.abm.disease.population = 20000;
  cfg.initial_exposed = 60;
  const abm::AbmSimulator sim(cfg);

  const double theta_true = 0.33;
  AgentBasedModel truth_model(cfg.abm, epi::PiecewiseSchedule(theta_true), 555);
  truth_model.seed_exposed(cfg.initial_exposed);
  truth_model.run_until_day(40);
  const auto true_cases = truth_model.trajectory().new_infections(1, 40);
  // Thin with rho = 0.7.
  auto thin_eng = rng::PhiloxEngine(901, 0);
  std::vector<double> observed;
  observed.reserve(true_cases.size());
  for (const double v : true_cases) {
    observed.push_back(static_cast<double>(rng::binomial(
        thin_eng, static_cast<std::int64_t>(v), 0.7)));
  }

  core::CalibrationConfig config;
  config.windows = {{20, 33}};
  config.n_params = 100;
  config.replicates = 4;
  config.resample_size = 200;
  config.seed = 31;
  stream::StreamingCalibrator cal(sim, {.calibration = config});
  const auto& w = cal.ingest_window(core::ObservedData(1, observed, {}));
  const auto s = core::summarize_window(w);
  EXPECT_NEAR(s.theta.mean, theta_true, 0.07);
  EXPECT_LT(s.theta.sd, 0.06);
}

}  // namespace
