// Core engine: scenario construction, simulation metrics, experiment
// aggregation, and cross-protocol invariants of the evaluation harness.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "algo/pos.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "data/value_source.h"

namespace wsnq {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.num_sensors = 40;
  config.radio_range = 60.0;
  config.rounds = 15;
  return config;
}

TEST(ScenarioTest, SyntheticShape) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario.value().network->num_sensors(), 40);
  EXPECT_EQ(scenario.value().k, 20);
  // The root has no sensor; everyone else maps to a distinct sensor.
  std::vector<bool> seen(40, false);
  int root_entries = 0;
  for (int s : scenario.value().sensor_of_vertex) {
    if (s < 0) {
      ++root_entries;
    } else {
      EXPECT_FALSE(seen[static_cast<size_t>(s)]);
      seen[static_cast<size_t>(s)] = true;
    }
  }
  EXPECT_EQ(root_entries, 1);
}

TEST(ScenarioTest, MultiValueNodesExpandThePopulation) {
  // §2: a node producing m values behaves like m colocated nodes. The
  // population, k, and the exactness contract all scale accordingly.
  SimulationConfig config = SmallConfig();
  config.values_per_node = 3;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario.value().network->num_sensors(), 40 * 3);
  EXPECT_EQ(scenario.value().k, 60);
  // Replicas are colocated: for every vertex there are exactly
  // values_per_node vertices sharing its position (except the root). The
  // radio graph is indexed by label.
  const Network& net = *scenario.value().network;
  const auto& graph = net.graph();
  const int root = net.label(net.root());
  for (int v = 0; v < graph.size(); ++v) {
    if (v == root) continue;
    int colocated = 0;
    for (int u = 0; u < graph.size(); ++u) {
      colocated += graph.point(u).x == graph.point(v).x &&
                   graph.point(u).y == graph.point(v).y;
    }
    EXPECT_EQ(colocated, 3) << "vertex " << v;
  }
  // And the quantile over all 120 values stays exact.
  auto protocol =
      MakeProtocol(AlgorithmKind::kIq, scenario.value().k,
                   scenario.value().source->range_min(),
                   scenario.value().source->range_max(), config.wire);
  const SimulationResult result =
      RunSimulation(scenario.value(), protocol.get(), config.rounds);
  EXPECT_EQ(result.errors, 0);
}

TEST(ScenarioTest, DeterministicPerRun) {
  const SimulationConfig config = SmallConfig();
  auto a = BuildScenario(config, 3);
  auto b = BuildScenario(config, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ValuesByVertex(5), b.value().ValuesByVertex(5));
  EXPECT_EQ(a.value().network->tree().parent, b.value().network->tree().parent);
}

TEST(ScenarioTest, DifferentRunsDiffer) {
  const SimulationConfig config = SmallConfig();
  auto a = BuildScenario(config, 0);
  auto b = BuildScenario(config, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().ValuesByVertex(0), b.value().ValuesByVertex(0));
}

TEST(ScenarioTest, PressureKeepsPositionsAcrossRuns) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 60;
  config.radio_range = 60.0;
  config.rounds = 5;
  auto a = BuildScenario(config, 0);
  auto b = BuildScenario(config, 1);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  // Same station positions (§5.1: only the root changes)...
  const auto& pa = a.value().network->graph().points();
  const auto& pb = b.value().network->graph().points();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i].x, pb[i].x);
    EXPECT_DOUBLE_EQ(pa[i].y, pb[i].y);
  }
}

TEST(ScenarioTest, PressureScaledUniverse) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 50;
  config.radio_range = 60.0;
  config.pressure_scale_bits = 12;
  config.rounds = 5;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario.value().source->range_min(), 0);
  EXPECT_EQ(scenario.value().source->range_max(), 4095);
}

TEST(SimulationTest, MetricsAreConsistent) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto protocol =
      MakeProtocol(AlgorithmKind::kIq, scenario.value().k,
                   scenario.value().source->range_min(),
                   scenario.value().source->range_max(), config.wire);
  const SimulationResult result =
      RunSimulation(scenario.value(), protocol.get(), config.rounds,
                    /*keep_trail=*/true);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.rounds, config.rounds + 1);
  EXPECT_EQ(result.trail.size(), static_cast<size_t>(config.rounds + 1));
  EXPECT_GT(result.mean_max_round_energy_mj, 0.0);
  EXPECT_GT(result.lifetime_rounds, 0.0);
  // The trail's mean must equal the aggregate.
  double sum = 0.0;
  for (const auto& r : result.trail) sum += r.max_round_energy_mj;
  EXPECT_NEAR(sum / result.rounds, result.mean_max_round_energy_mj, 1e-12);
}

TEST(SimulationTest, ReplaySameScenarioIsDeterministic) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto run_once = [&] {
    auto protocol =
        MakeProtocol(AlgorithmKind::kHbc, scenario.value().k,
                     scenario.value().source->range_min(),
                     scenario.value().source->range_max(), config.wire);
    return RunSimulation(scenario.value(), protocol.get(), config.rounds);
  };
  const SimulationResult a = run_once();
  const SimulationResult b = run_once();
  EXPECT_DOUBLE_EQ(a.mean_max_round_energy_mj, b.mean_max_round_energy_mj);
  EXPECT_DOUBLE_EQ(a.lifetime_rounds, b.lifetime_rounds);
  EXPECT_DOUBLE_EQ(a.mean_packets, b.mean_packets);
}

TEST(SimulationTest, LifetimeInverselyRelatedToLoad) {
  // TAG's hotspot pays more than IQ's on a calm workload, so its projected
  // lifetime must be shorter.
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto lifetime = [&](AlgorithmKind kind) {
    auto protocol = MakeProtocol(kind, scenario.value().k,
                                 scenario.value().source->range_min(),
                                 scenario.value().source->range_max(),
                                 config.wire);
    return RunSimulation(scenario.value(), protocol.get(), config.rounds)
        .lifetime_rounds;
  };
  EXPECT_GT(lifetime(AlgorithmKind::kIq), lifetime(AlgorithmKind::kTag));
}

// RunSimulation's oracle counts over the round's vertex-indexed row; these
// legs compare every trail record with the reference selection oracle over
// the same round's sensor values.

/// Checks each record's correct/rank_error against OracleKth /
/// OracleRankError and `errors` against the incorrect rounds; returns how
/// many rounds had a non-zero rank error.
int64_t ExpectTrailMatchesReferenceOracle(const Scenario& scenario,
                                          const SimulationResult& result) {
  int64_t inexact_rounds = 0;
  int64_t incorrect_rounds = 0;
  for (const RoundRecord& record : result.trail) {
    const std::vector<int64_t> sensors = SensorValues(
        *scenario.network, scenario.ValuesByVertex(record.round));
    EXPECT_EQ(record.correct,
              record.quantile == OracleKth(sensors, scenario.k))
        << "round " << record.round;
    EXPECT_EQ(record.rank_error,
              OracleRankError(sensors, record.quantile, scenario.k))
        << "round " << record.round;
    if (record.rank_error != 0) ++inexact_rounds;
    if (!record.correct) ++incorrect_rounds;
  }
  EXPECT_EQ(result.errors, incorrect_rounds);
  return inexact_rounds;
}

SimulationResult RunWithTrail(const Scenario& scenario, AlgorithmKind kind,
                              int rounds) {
  auto protocol = MakeProtocol(kind, scenario.k, scenario.source->range_min(),
                               scenario.source->range_max(), WireFormat{});
  return RunSimulation(scenario, protocol.get(), rounds,
                       /*keep_trail=*/true);
}

TEST(SimulationOracleTest, ExactProtocolMatchesReference) {
  const SimulationConfig config = SmallConfig();
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  const SimulationResult result =
      RunWithTrail(scenario.value(), AlgorithmKind::kIq, config.rounds);
  EXPECT_EQ(ExpectTrailMatchesReferenceOracle(scenario.value(), result), 0);
  EXPECT_EQ(result.errors, 0);
}

TEST(SimulationOracleTest, ApproximateProtocolRankErrorMatchesReference) {
  SimulationConfig config = SmallConfig();
  config.num_sensors = 200;
  config.radio_range = 30.0;
  config.rounds = 30;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  const SimulationResult result =
      RunWithTrail(scenario.value(), AlgorithmKind::kQdigest, config.rounds);
  // The leg only means something if the approximation actually misses.
  EXPECT_GT(ExpectTrailMatchesReferenceOracle(scenario.value(), result), 0);
  EXPECT_GT(result.max_rank_error, 0);
}

/// Reports 0 every round and sends nothing.
class ReportsZeroProtocol : public QuantileProtocol {
 public:
  const char* name() const override { return "ZERO"; }
  void RunRound(Network* /*net*/, const std::vector<int64_t>& /*values*/,
                int64_t /*round*/) override {}
  int64_t quantile() const override { return 0; }
  RootCounts root_counts() const override { return {}; }
};

/// Sensor s reads 0 while s < zeros(round) and s + 1 otherwise, where
/// zeros(round) cycles through k - 2, k - 1, k: a reported 0 then sits 2
/// ranks low, 1 rank low, and exactly on rank k.
class ZeroPrefixSource : public ValueSource {
 public:
  ZeroPrefixSource(int num_sensors, int64_t k)
      : num_sensors_(num_sensors), k_(k) {}
  int64_t Value(int sensor, int64_t round) const override {
    return sensor < k_ - 2 + round % 3 ? 0 : sensor + 1;
  }
  int num_sensors() const override { return num_sensors_; }
  int64_t range_min() const override { return 0; }
  int64_t range_max() const override { return num_sensors_; }

 private:
  int num_sensors_;
  int64_t k_;
};

TEST(SimulationOracleTest, RootEntryIsNotCountedAsASensor) {
  // The vertex-indexed row carries a 0 for the root. A protocol reporting
  // 0 over sensors that also read 0 is wrong whenever fewer than k sensors
  // read 0, and counting the root's 0 as a sensor would hide one rank of
  // that error.
  const SimulationConfig config = SmallConfig();
  auto built = BuildScenario(config, 0);
  ASSERT_TRUE(built.ok());
  Scenario& scenario = built.value();
  const ZeroPrefixSource source(scenario.network->num_sensors(), scenario.k);
  scenario.source = &source;
  ASSERT_GE(scenario.k, 2);
  ASSERT_EQ(scenario.ValuesByVertex(0)[static_cast<size_t>(
                scenario.network->root())],
            0);
  ReportsZeroProtocol protocol;
  const SimulationResult result =
      RunSimulation(scenario, &protocol, /*rounds=*/5, /*keep_trail=*/true);
  EXPECT_EQ(ExpectTrailMatchesReferenceOracle(scenario, result), 4);
  ASSERT_EQ(result.trail.size(), 6u);
  const int64_t expected_rank_error[] = {2, 1, 0, 2, 1, 0};
  for (size_t round = 0; round < result.trail.size(); ++round) {
    EXPECT_EQ(result.trail[round].rank_error, expected_rank_error[round])
        << "round " << round;
  }
  EXPECT_EQ(result.errors, 4);
  EXPECT_EQ(result.max_rank_error, 2);
}

TEST(ExperimentTest, AggregatesAcrossRuns) {
  const SimulationConfig config = SmallConfig();
  auto aggregates = RunExperiment(
      config, {AlgorithmKind::kTag, AlgorithmKind::kIq}, /*runs=*/3);
  ASSERT_TRUE(aggregates.ok());
  ASSERT_EQ(aggregates.value().size(), 2u);
  for (const auto& agg : aggregates.value()) {
    EXPECT_EQ(agg.runs, 3);
    EXPECT_EQ(agg.errors, 0);
    EXPECT_EQ(agg.max_round_energy_mj.count(), 3);
    EXPECT_GT(agg.max_round_energy_mj.mean(), 0.0);
  }
  EXPECT_EQ(aggregates.value()[0].label, "TAG");
  EXPECT_EQ(aggregates.value()[1].label, "IQ");
}

TEST(ExperimentTest, CustomFactoriesRun) {
  const SimulationConfig config = SmallConfig();
  std::vector<ProtocolFactory> factories = {
      DefaultFactory(AlgorithmKind::kPos),
      {"POS-custom",
       [](int64_t k, int64_t lo, int64_t hi, const WireFormat& wire) {
         PosProtocol::Options options;
         options.use_hints = false;
         return std::make_unique<PosProtocol>(k, lo, hi, wire, options);
       }},
  };
  auto aggregates = RunExperiment(config, factories, 2);
  ASSERT_TRUE(aggregates.ok());
  EXPECT_EQ(aggregates.value()[1].label, "POS-custom");
  EXPECT_EQ(aggregates.value()[1].errors, 0);
}

TEST(RegistryTest, NamesRoundTrip) {
  for (AlgorithmKind kind : PaperAlgorithms()) {
    auto parsed = ParseAlgorithmName(AlgorithmName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseAlgorithmName("NOPE").ok());
}

TEST(RegistryTest, EveryKindConstructs) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kTag, AlgorithmKind::kPos, AlgorithmKind::kHbc,
        AlgorithmKind::kHbcNtb, AlgorithmKind::kIq, AlgorithmKind::kLcllH,
        AlgorithmKind::kLcllS, AlgorithmKind::kSnapshot,
        AlgorithmKind::kSwitching}) {
    auto protocol = MakeProtocol(kind, 5, 0, 1023, WireFormat{});
    ASSERT_NE(protocol, nullptr);
    EXPECT_STREQ(protocol->name(), AlgorithmName(kind));
  }
}

}  // namespace
}  // namespace wsnq
