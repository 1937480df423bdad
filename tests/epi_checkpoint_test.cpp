// Checkpointing -- the paper's §III-B mechanism. The central invariant:
// run(0 -> T) is bit-identical to run(0 -> t) + checkpoint + restore +
// run(t -> T) when no overrides are applied, because the checkpoint carries
// compartment counts, the future-event queue, the simulated time and the
// exact RNG position. Restart overrides must branch new trajectories with
// the stated semantics.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>

#include "epi/seir_model.hpp"

namespace {

using namespace epismc::epi;

DiseaseParameters test_params() {
  DiseaseParameters p;
  p.population = 150000;
  return p;
}

SeirModel seeded_model(std::uint64_t seed, double theta = 0.3) {
  SeirModel m(test_params(), PiecewiseSchedule(theta), seed, 5);
  m.seed_exposed(200);
  return m;
}

bool trajectories_equal(const Trajectory& a, const Trajectory& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].day != b[i].day || a[i].new_infections != b[i].new_infections ||
        a[i].new_deaths != b[i].new_deaths ||
        a[i].hospital_census != b[i].hospital_census ||
        a[i].icu_census != b[i].icu_census ||
        a[i].susceptible != b[i].susceptible) {
      return false;
    }
  }
  return true;
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  SeirModel uninterrupted = seeded_model(42);
  uninterrupted.run_until_day(90);

  SeirModel first_half = seeded_model(42);
  first_half.run_until_day(45);
  const Checkpoint ckpt = first_half.make_checkpoint();
  SeirModel resumed = SeirModel::restore(ckpt);
  resumed.run_until_day(90);

  EXPECT_EQ(resumed.census(), uninterrupted.census());
  EXPECT_TRUE(
      trajectories_equal(resumed.trajectory(), uninterrupted.trajectory()));
}

TEST(Checkpoint, MultipleResumePointsAllAgree) {
  SeirModel reference = seeded_model(7);
  reference.run_until_day(75);

  for (const std::int32_t split : {1, 10, 33, 60, 74}) {
    SeirModel partial = seeded_model(7);
    partial.run_until_day(split);
    SeirModel resumed = SeirModel::restore(partial.make_checkpoint());
    resumed.run_until_day(75);
    ASSERT_EQ(resumed.census(), reference.census()) << "split " << split;
  }
}

TEST(Checkpoint, PreservesHistoricalTrajectory) {
  SeirModel m = seeded_model(11);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();
  const SeirModel restored = SeirModel::restore(ckpt);
  EXPECT_EQ(restored.day(), 40);
  EXPECT_TRUE(trajectories_equal(restored.trajectory(), m.trajectory()));
  EXPECT_EQ(restored.pending_events(), m.pending_events());
}

TEST(Checkpoint, FileRoundTrip) {
  SeirModel m = seeded_model(13);
  m.run_until_day(30);
  const Checkpoint ckpt = m.make_checkpoint();
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_ckpt_test.bin";
  ckpt.save(path);
  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.day, 30);

  SeirModel a = SeirModel::restore(ckpt);
  SeirModel b = SeirModel::restore(loaded);
  a.run_until_day(70);
  b.run_until_day(70);
  EXPECT_EQ(a.census(), b.census());
  std::filesystem::remove(path);
}

TEST(Checkpoint, NewSeedBranchesNewTrajectory) {
  SeirModel m = seeded_model(17);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();

  RestartOverrides ovr_a;
  ovr_a.seed = 1001;
  RestartOverrides ovr_b;
  ovr_b.seed = 1002;
  SeirModel a = SeirModel::restore(ckpt, ovr_a);
  SeirModel b = SeirModel::restore(ckpt, ovr_b);
  // Same state at restore time...
  EXPECT_EQ(a.census(), b.census());
  a.run_until_day(80);
  b.run_until_day(80);
  // ...different futures.
  EXPECT_NE(a.trajectory().new_infections(41, 80),
            b.trajectory().new_infections(41, 80));
}

TEST(Checkpoint, SameSeedOverrideIsReproducible) {
  SeirModel m = seeded_model(19);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.seed = 555;
  ovr.stream = 3;
  SeirModel a = SeirModel::restore(ckpt, ovr);
  SeirModel b = SeirModel::restore(ckpt, ovr);
  a.run_until_day(90);
  b.run_until_day(90);
  EXPECT_EQ(a.census(), b.census());
}

TEST(Checkpoint, TransmissionOverrideChangesDynamics) {
  SeirModel m = seeded_model(23, 0.35);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();

  RestartOverrides hot;
  hot.seed = 99;
  hot.transmission_rate = 0.5;
  RestartOverrides cold;
  cold.seed = 99;
  cold.transmission_rate = 0.05;
  SeirModel a = SeirModel::restore(ckpt, hot);
  SeirModel b = SeirModel::restore(ckpt, cold);
  a.run_until_day(90);
  b.run_until_day(90);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_GT(sum(a.trajectory().new_infections(41, 90)),
            2.0 * sum(b.trajectory().new_infections(41, 90)));
  // The override applies from the restart day, not retroactively.
  EXPECT_DOUBLE_EQ(a.transmission().value_at(40), 0.35);
  EXPECT_DOUBLE_EQ(a.transmission().value_at(41), 0.5);
}

TEST(Checkpoint, BranchingFractionOverridesApply) {
  SeirModel m = seeded_model(29);
  m.run_until_day(30);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.seed = 7;
  ovr.fraction_symptomatic = 0.9;
  ovr.fraction_mild = 0.5;
  ovr.asymptomatic_infectiousness = 0.2;
  ovr.detected_infectiousness = 0.8;
  const SeirModel restored = SeirModel::restore(ckpt, ovr);
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_symptomatic, 0.9);
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_mild, 0.5);
  EXPECT_DOUBLE_EQ(restored.parameters().asymptomatic_infectiousness, 0.2);
  EXPECT_DOUBLE_EQ(restored.parameters().detected_infectiousness, 0.8);
  // Unrelated parameters untouched.
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_critical,
                   m.parameters().fraction_critical);
}

TEST(Checkpoint, InvalidOverrideRejected) {
  SeirModel m = seeded_model(31);
  m.run_until_day(10);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.fraction_mild = 1.5;
  EXPECT_THROW((void)SeirModel::restore(ckpt, ovr), std::invalid_argument);
}

TEST(Checkpoint, CorruptBytesRejected) {
  SeirModel m = seeded_model(37);
  m.run_until_day(10);
  Checkpoint ckpt = m.make_checkpoint();
  ckpt.bytes.resize(ckpt.bytes.size() / 2);
  EXPECT_THROW((void)SeirModel::restore(ckpt), epismc::io::ArchiveError);
}

TEST(Checkpoint, HugeTrajectoryCountFailsTyped) {
  // A corrupt record count must fail as a typed truncation before the
  // loader reserves for it, not as bad_alloc or length_error.
  SeirModel m = seeded_model(39);
  m.run_until_day(10);
  Checkpoint ckpt = m.make_checkpoint();
  // The trajectory closes the checkpoint: a u64 count, then one 60-byte
  // record (day + seven i64 fields) per day.
  const std::size_t count_at = ckpt.bytes.size() - 8 - m.trajectory().size() * 60;
  std::uint64_t count = 0;
  std::memcpy(&count, ckpt.bytes.data() + count_at, sizeof count);
  ASSERT_EQ(count, m.trajectory().size());
  count = std::uint64_t{1} << 62;
  std::memcpy(ckpt.bytes.data() + count_at, &count, sizeof count);
  try {
    (void)SeirModel::restore(ckpt);
    FAIL() << "huge trajectory count was accepted";
  } catch (const epismc::io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), epismc::io::ArchiveErrorKind::kTruncated) << e.what();
  }
}

TEST(Checkpoint, CorruptEventFailsTyped) {
  // A corrupt event must fail as a typed corruption before its compartment
  // bytes index the edge table, and a corrupt census before it is used.
  SeirModel m = seeded_model(43);
  m.run_until_day(10);
  ASSERT_GT(m.pending_events(), 0u);
  const Checkpoint good = m.make_checkpoint();
  // The checkpoint closes with the last event (i32 day, u8 from, u8 to,
  // i64 count), the RNG triple (3 x u64) and the trajectory (a u64 count,
  // then one 60-byte record per day).
  const std::size_t event_at =
      good.bytes.size() - (8 + m.trajectory().size() * 60) - 24 - 14;
  const auto expect_corrupt = [](const Checkpoint& ckpt, const char* what) {
    try {
      (void)SeirModel::restore(ckpt);
      ADD_FAILURE() << what << " was accepted";
    } catch (const epismc::io::ArchiveError& e) {
      EXPECT_EQ(e.kind(), epismc::io::ArchiveErrorKind::kCorrupt) << e.what();
    }
  };
  {
    Checkpoint bad = good;
    std::uint8_t from = 0;
    std::memcpy(&from, bad.bytes.data() + event_at + 4, sizeof from);
    ASSERT_LT(from, kCompartmentCount);
    from = 0xFF;
    std::memcpy(bad.bytes.data() + event_at + 4, &from, sizeof from);
    expect_corrupt(bad, "out-of-range compartment");
  }
  {
    Checkpoint bad = good;
    std::int64_t count = 0;
    std::memcpy(&count, bad.bytes.data() + event_at + 6, sizeof count);
    ASSERT_GT(count, 0);
    count = -1;
    std::memcpy(bad.bytes.data() + event_at + 6, &count, sizeof count);
    expect_corrupt(bad, "negative event count");
  }
  // The census (one i64 per compartment) sits just before the u64 event
  // count and the events.
  const std::size_t census_at =
      event_at + 14 - m.pending_events() * 14 - 8 - sizeof(Census);
  Census census{};
  std::memcpy(census.data(), good.bytes.data() + census_at, sizeof census);
  ASSERT_EQ(census, m.census());
  {
    Checkpoint bad = good;
    Census shifted = census;  // same total, one entry negative
    shifted[index(Compartment::kS)] += shifted[index(Compartment::kDd)] + 1;
    shifted[index(Compartment::kDd)] = -1;
    std::memcpy(bad.bytes.data() + census_at, shifted.data(), sizeof shifted);
    expect_corrupt(bad, "negative census entry");
  }
  {
    Checkpoint bad = good;
    Census short_one = census;
    short_one[index(Compartment::kS)] -= 1;
    std::memcpy(bad.bytes.data() + census_at, short_one.data(),
                sizeof short_one);
    expect_corrupt(bad, "census not summing to the population");
  }
  (void)SeirModel::restore(good);  // the untouched bytes still load
}

TEST(Checkpoint, CorruptParameterFailsTyped) {
  // A stored parameter out of its range must fail as a typed corruption
  // before the loader sizes the event ring from it (27 x 8 B per day of
  // detection delay).
  SeirModel m = seeded_model(47);
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
    (void)SeirModel::restore(ckpt);
    FAIL() << "detection_delay " << delay << " was accepted";
  } catch (const epismc::io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), epismc::io::ArchiveErrorKind::kCorrupt) << e.what();
  }
}

TEST(Checkpoint, ConservationAfterRestore) {
  SeirModel m = seeded_model(41);
  m.run_until_day(55);
  RestartOverrides ovr;
  ovr.seed = 123;
  ovr.transmission_rate = 0.45;
  SeirModel restored = SeirModel::restore(m.make_checkpoint(), ovr);
  restored.run_until_day(120);
  EXPECT_EQ(restored.total_individuals(), 150000);
}

}  // namespace
