// Battery-drain lifetime simulation: death ordering, epoch re-init, tree
// healing, and exactness of every per-epoch answer.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/lifetime.h"
#include "core/scenario.h"

namespace wsnq {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.num_sensors = 40;
  config.radio_range = 60.0;
  config.synthetic.period_rounds = 50;
  config.synthetic.noise_percent = 10;
  return config;
}

/// RunLifetimeSimulation over the scenario of run `run`.
LifetimeResult Lifetime(const SimulationConfig& config, AlgorithmKind kind,
                        int run, const LifetimeOptions& options) {
  return RunLifetimeSimulation(config, BuildScenario(config, run).value(),
                               kind, options);
}

TEST(LifetimeTest, RunsToSurvivorThresholdWithExactAnswers) {
  SimulationConfig config = SmallConfig();
  LifetimeOptions options;
  options.max_rounds = 8000;
  const LifetimeResult r = Lifetime(config, AlgorithmKind::kIq, 0, options);
  // Somebody died and the network kept answering.
  EXPECT_GT(r.first_death_round, 0);
  EXPECT_GT(r.reinit_epochs, 1);
  EXPECT_GT(r.total_rounds, r.first_death_round);
  // Every round's answer (over the then-reachable sensors) was exact.
  EXPECT_EQ(r.exact_rounds, r.total_rounds);
  // Percentile marks are ordered when present.
  if (r.p10_death_round >= 0) {
    EXPECT_GE(r.p10_death_round, r.first_death_round);
  }
  if (r.p25_death_round >= 0 && r.p10_death_round >= 0) {
    EXPECT_GE(r.p25_death_round, r.p10_death_round);
  }
  // Deaths are chronologically recorded.
  for (size_t i = 1; i < r.deaths.size(); ++i) {
    EXPECT_GE(r.deaths[i].round, r.deaths[i - 1].round);
  }
}

TEST(LifetimeTest, CheaperProtocolLivesLonger) {
  SimulationConfig config = SmallConfig();
  LifetimeOptions options;
  options.max_rounds = 8000;
  const LifetimeResult iq = Lifetime(config, AlgorithmKind::kIq, 1, options);
  const LifetimeResult tag = Lifetime(config, AlgorithmKind::kTag, 1, options);
  EXPECT_GT(iq.first_death_round, tag.first_death_round);
}

TEST(LifetimeTest, FirstDeathConsistentWithExtrapolation) {
  // The measured first death must be in the same ballpark as the
  // §5.1.5-style extrapolation (initial energy / hotspot mean draw) —
  // within a factor of ~3 (the hotspot changes as the filter wanders).
  SimulationConfig config = SmallConfig();
  config.rounds = 60;
  auto scenario_extrapolation = [&]() {
    // Reuse the experiment machinery for the extrapolated number.
    auto aggregates =
        RunExperiment(config, {AlgorithmKind::kHbc}, /*runs=*/1);
    return aggregates.value()[0].lifetime_rounds.mean();
  };
  LifetimeOptions options;
  options.max_rounds = 8000;
  const LifetimeResult measured =
      Lifetime(config, AlgorithmKind::kHbc, 0, options);
  const double extrapolated = scenario_extrapolation();
  const double first = static_cast<double>(measured.first_death_round);
  EXPECT_GT(first, extrapolated / 3.0);
  EXPECT_LT(first, extrapolated * 3.0);
}

TEST(LifetimeTest, RoundCapRespected) {
  SimulationConfig config = SmallConfig();
  config.synthetic.noise_percent = 0;  // calm: batteries drain slowly
  LifetimeOptions options;
  options.max_rounds = 50;
  const LifetimeResult result =
      Lifetime(config, AlgorithmKind::kIq, 0, options);
  EXPECT_LE(result.end_round, 50);
  EXPECT_LE(result.total_rounds, 50);
}

}  // namespace
}  // namespace wsnq
