// ScenarioSweep: presets x backends in one call -- cell layout, eager name
// validation, per-cell error capture, and the determinism contract (results
// byte-identical across thread counts, stable under simulator reordering
// per scenario).

#include <gtest/gtest.h>

#include <algorithm>

#include "api/api.hpp"
#include "parallel/parallel.hpp"

namespace {

using namespace epismc;

// Small-population copies of the built-in presets keep a 4x2 sweep cheap
// enough for a unit test; registered once for every test in this file.
void ensure_test_presets() {
  static const bool registered = [] {
    for (const char* base :
         {"paper-baseline", "sharp-jump", "low-reporting",
          "chain-binomial-truth"}) {
      api::ScenarioPreset preset = api::scenarios().create(base);
      preset.name = std::string("test-") + base;
      preset.scenario.params.population = 120000;
      preset.scenario.initial_exposed = 150;
      preset.scenario.total_days = 50;
      api::scenarios().add(preset.name,
                           [preset] { return preset; });
    }
    return true;
  }();
  (void)registered;
}

std::vector<std::string> test_scenarios() {
  ensure_test_presets();
  return {"test-paper-baseline", "test-sharp-jump", "test-low-reporting",
          "test-chain-binomial-truth"};
}

api::ScenarioSweep small_sweep() {
  api::ScenarioSweep sweep;
  sweep.add_scenarios(test_scenarios())
      .add_simulator("seir-event")
      .add_simulator("chain-binomial")
      .with_windows({{20, 33}, {34, 47}})
      .with_budget(40, 3, 80)
      .with_seed(991);
  return sweep;
}

/// Statistical fingerprint of a sweep (excludes wall-clock).
std::vector<double> fingerprint(const std::vector<api::SweepRun>& runs) {
  std::vector<double> out;
  for (const auto& run : runs) {
    EXPECT_TRUE(run.ok()) << run.scenario << " x " << run.simulator << ": "
                          << run.error;
    for (const auto& w : run.windows) {
      out.push_back(w.theta.mean);
      out.push_back(w.theta.sd);
      out.push_back(w.rho.mean);
      out.push_back(w.rho.sd);
    }
    for (const auto& d : run.diagnostics) out.push_back(d.ess);
  }
  return out;
}

TEST(Sweep, RunsFourScenariosAcrossTwoBackends) {
  const api::ScenarioSweep sweep = small_sweep();
  EXPECT_EQ(sweep.cell_count(), 8u);
  const auto runs = sweep.run_all();
  ASSERT_EQ(runs.size(), 8u);

  // Scenario-major layout, every cell completed with 2 windows.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].scenario, test_scenarios()[i / 2]);
    EXPECT_EQ(runs[i].simulator,
              (i % 2 == 0) ? "seir-event" : "chain-binomial");
    ASSERT_TRUE(runs[i].ok()) << runs[i].error;
    ASSERT_EQ(runs[i].windows.size(), 2u);
    ASSERT_EQ(runs[i].diagnostics.size(), 2u);
    EXPECT_GT(runs[i].diagnostics[0].ess, 0.0);
    // Truth metadata rides along for reporting.
    EXPECT_GT(runs[i].truth_theta[0], 0.0);
    EXPECT_GT(runs[i].truth_rho[0], 0.0);
  }
}

TEST(Sweep, ByteIdenticalAcrossThreadCounts) {
  const api::ScenarioSweep sweep = small_sweep();

  // Capture the threaded count *before* forcing serial: max_threads()
  // reflects the last set_threads call, so reading it afterwards would
  // compare two serial runs. Force >= 2 so the contract is exercised even
  // on a single-core machine.
  const int threaded_count = std::max(2, parallel::max_threads());
  parallel::set_threads(1);
  const auto serial = fingerprint(sweep.run_all());
  parallel::set_threads(threaded_count);
  const auto threaded = fingerprint(sweep.run_all());
  EXPECT_EQ(serial, threaded);
}

TEST(Sweep, HierarchicalSchedulingNeverOversubscribesLanes) {
  // The outer cell loop and the inner particle loops share one set of
  // lanes via hierarchical submit; peak_active is the observable that
  // nesting never exceeded the configured budget.
  const api::ScenarioSweep sweep = small_sweep();
  const int prev_threads = parallel::max_threads();
  parallel::set_threads(4);
  parallel::TaskPool::instance().reset_peak();

  const auto pooled = fingerprint(sweep.run_all());

  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_LE(stats.peak_active, stats.lanes)
      << "outer cells x inner particle loops oversubscribed the pool";
  EXPECT_GE(stats.peak_active, 1);
  EXPECT_EQ(stats.lanes, 4);

  // Same answer as the 1-lane reference, and at 8 lanes: hierarchical
  // placement is an engine decision, not a statistical one.
  parallel::set_threads(1);
  const auto serial = fingerprint(sweep.run_all());
  EXPECT_EQ(pooled, serial);
  parallel::set_threads(8);
  EXPECT_EQ(fingerprint(sweep.run_all()), serial);

  parallel::set_threads(prev_threads);
}

TEST(Sweep, CellsInvariantToListOrdering) {
  // A cell's randomness derives from (sweep seed, scenario *name*), so
  // listing the scenarios or backends in a different order reproduces
  // every cell exactly.
  ensure_test_presets();
  const auto cell = [&](const std::vector<std::string>& scenarios,
                        const std::vector<std::string>& sims,
                        const std::string& scenario,
                        const std::string& simulator) {
    api::ScenarioSweep sweep;
    sweep.add_scenarios(scenarios)
        .add_simulators(sims)
        .with_windows({{20, 33}})
        .with_budget(30, 2, 60)
        .with_seed(5);
    const auto runs = sweep.run_all();
    for (const auto& r : runs) {
      if (r.scenario == scenario && r.simulator == simulator) {
        return r.windows.front().theta.mean;
      }
    }
    ADD_FAILURE() << "cell not found";
    return 0.0;
  };
  const double ab = cell({"test-paper-baseline", "test-sharp-jump"},
                         {"seir-event", "chain-binomial"},
                         "test-paper-baseline", "chain-binomial");
  const double ba = cell({"test-sharp-jump", "test-paper-baseline"},
                         {"chain-binomial", "seir-event"},
                         "test-paper-baseline", "chain-binomial");
  EXPECT_EQ(ab, ba);
}

TEST(Sweep, UnknownNamesRejectedEagerly) {
  api::ScenarioSweep sweep;
  EXPECT_THROW(sweep.add_scenario("atlantis"), api::UnknownComponentError);
  EXPECT_THROW(sweep.add_simulator("spherical-cow"),
               api::UnknownComponentError);
  EXPECT_THROW((void)api::ScenarioSweep().run_all(), std::logic_error);
}

TEST(Sweep, CellErrorsAreCapturedNotFatal) {
  ensure_test_presets();
  api::ScenarioSweep sweep;
  sweep.add_scenario("test-paper-baseline")
      .add_simulator("seir-event")
      // Windows beyond the 50-day truth horizon: the cell must fail with a
      // data-coverage error while run_all still returns.
      .with_windows({{20, 33}, {34, 47}, {48, 61}, {62, 75}})
      .with_budget(20, 2, 40);
  const auto runs = sweep.run_all();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].ok());
  EXPECT_NE(runs[0].error.find("cover"), std::string::npos);
}

TEST(Sweep, SessionSetupHookApplies) {
  ensure_test_presets();
  api::ScenarioSweep sweep;
  sweep.add_scenario("test-paper-baseline")
      .add_simulator("seir-event")
      .with_windows({{20, 33}})
      .with_budget(30, 2, 60)
      .with_session_setup([](api::CalibrationSession& s) {
        s.with_bias("identity");  // no reporting correction
      });
  const auto runs = sweep.run_all();
  ASSERT_TRUE(runs[0].ok()) << runs[0].error;
  // IdentityBias ignores rho, so the posterior rho equals the fixed 1.0
  // the proposal assigns when the bias model does not use it.
  EXPECT_DOUBLE_EQ(runs[0].windows[0].rho.mean, 1.0);
}

}  // namespace
