// Message-loss extension (§6 future work): failure injection on the uplink.
// Protocols may answer inexactly under loss — but they must not crash, must
// degrade gracefully (bounded, loss-monotone rank error), and must remain
// exact when the loss probability is zero.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "fault/fault_plan.h"
#include "tests/test_scenario.h"

namespace wsnq {
namespace {

using testing_support::MakeLineNetwork;

// Binds a counter-based FaultPlan with the given loss probability to `net`
// (the migration target of the legacy EnableUplinkLoss stub).
void InstallLoss(Network* net, double loss, uint64_t seed) {
  FaultConfig fault;
  fault.loss = loss;
  net->set_transport_policy(std::make_unique<FaultPlan>(
      fault, seed, /*run=*/0, net->num_vertices(), net->root(),
      ParentSelection::kNearest, /*tree_salt=*/0));
}

TEST(RankErrorTest, Definition) {
  const std::vector<int64_t> values = {10, 20, 20, 30, 40};
  // Ranks: 10->1, 20->2..3, 30->4, 40->5.
  EXPECT_EQ(OracleRankError(values, 20, 2), 0);
  EXPECT_EQ(OracleRankError(values, 20, 3), 0);
  EXPECT_EQ(OracleRankError(values, 20, 1), 1);
  EXPECT_EQ(OracleRankError(values, 20, 5), 2);
  EXPECT_EQ(OracleRankError(values, 40, 1), 4);
  // A value absent from the data: 25 sits between ranks 3 and 4.
  EXPECT_EQ(OracleRankError(values, 25, 3), 1);
  EXPECT_EQ(OracleRankError(values, 25, 4), 1);
  EXPECT_EQ(OracleRankError(values, 25, 5), 2);
}

TEST(LossyNetworkTest, SenderPaysReceiverDoesNot) {
  Network net = MakeLineNetwork(3, 0);
  InstallLoss(&net, 1.0, 7);  // every uplink lost
  net.BeginRound();
  EXPECT_FALSE(net.SendToParent(2, 100));
  EXPECT_GT(net.round_energy(2), 0.0);   // sender burned energy
  EXPECT_EQ(net.round_energy(1), 0.0);   // receiver heard nothing
  EXPECT_EQ(net.round_packets(), 1);     // the packet was on the air
}

TEST(LossyNetworkTest, ZeroProbabilityAlwaysDelivers) {
  Network net = MakeLineNetwork(3, 0);
  InstallLoss(&net, 0.0, 7);
  EXPECT_FALSE(net.lossy());
  net.BeginRound();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(net.SendToParent(2, 8));
}

TEST(LossyNetworkTest, ResetReplaysTheSameLossSequence) {
  Network net = MakeLineNetwork(3, 0);
  InstallLoss(&net, 0.5, 42);
  std::vector<bool> first, second;
  net.ResetAccounting();
  for (int i = 0; i < 64; ++i) first.push_back(net.SendToParent(2, 8));
  net.ResetAccounting();
  for (int i = 0; i < 64; ++i) second.push_back(net.SendToParent(2, 8));
  EXPECT_EQ(first, second);
}

class LossSweepTest
    : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(LossSweepTest, SurvivesHeavyLossAndStaysInRange) {
  SimulationConfig config;
  config.num_sensors = 50;
  config.radio_range = 60.0;
  config.rounds = 30;
  config.fault.loss = 0.3;  // brutal
  config.synthetic.period_rounds = 30;
  auto scenario = BuildScenario(config, 0);
  ASSERT_TRUE(scenario.ok());
  auto protocol = MakeProtocol(GetParam(), scenario.value().k,
                               scenario.value().source->range_min(),
                               scenario.value().source->range_max(),
                               config.wire);
  const SimulationResult result =
      RunSimulation(scenario.value(), protocol.get(), config.rounds);
  // No crash, and the reported value never leaves the universe.
  EXPECT_GE(protocol->quantile(), scenario.value().source->range_min());
  EXPECT_LE(protocol->quantile(), scenario.value().source->range_max());
  EXPECT_LE(result.max_rank_error, 50);
}

TEST_P(LossSweepTest, ZeroLossConfigStaysExact) {
  SimulationConfig config;
  config.num_sensors = 40;
  config.radio_range = 60.0;
  config.rounds = 20;
  config.fault.loss = 0.0;
  auto scenario = BuildScenario(config, 1);
  ASSERT_TRUE(scenario.ok());
  auto protocol = MakeProtocol(GetParam(), scenario.value().k,
                               scenario.value().source->range_min(),
                               scenario.value().source->range_max(),
                               config.wire);
  const SimulationResult result =
      RunSimulation(scenario.value(), protocol.get(), config.rounds);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.max_rank_error, 0);
}

TEST_P(LossSweepTest, RankErrorGrowsWithLoss) {
  auto mean_error = [&](double loss) {
    double total = 0.0;
    for (int run = 0; run < 3; ++run) {
      SimulationConfig config;
      config.num_sensors = 60;
      config.radio_range = 60.0;
      config.rounds = 25;
      config.fault.loss = loss;
      config.synthetic.noise_percent = 10;
      auto scenario = BuildScenario(config, run);
      if (!scenario.ok()) continue;
      auto protocol = MakeProtocol(GetParam(), scenario.value().k,
                                   scenario.value().source->range_min(),
                                   scenario.value().source->range_max(),
                                   config.wire);
      total += RunSimulation(scenario.value(), protocol.get(), config.rounds)
                   .mean_rank_error;
    }
    return total / 3.0;
  };
  const double none = mean_error(0.0);
  const double heavy = mean_error(0.25);
  EXPECT_EQ(none, 0.0);
  EXPECT_GT(heavy, none);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, LossSweepTest,
    ::testing::Values(AlgorithmKind::kTag, AlgorithmKind::kPos,
                      AlgorithmKind::kPosSr,
                      AlgorithmKind::kHbc, AlgorithmKind::kHbcNtb,
                      AlgorithmKind::kIq, AlgorithmKind::kLcllH,
                      AlgorithmKind::kLcllS, AlgorithmKind::kSnapshot),
    [](const ::testing::TestParamInfo<AlgorithmKind>& param_info) {
      std::string name = AlgorithmName(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace wsnq
