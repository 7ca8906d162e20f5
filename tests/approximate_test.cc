// The approximate / probabilistic protocol tier (§3.1's other two classes):
// bounded or concentrated rank error at bounded message cost.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/approximate.h"
#include "algo/oracle.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "tests/test_scenario.h"
#include "util/rng.h"

namespace wsnq {
namespace {

using testing_support::MakeRandomNetwork;

TEST(QdigestProtocolTest, ErrorWithinBoundEveryRound) {
  Network net = MakeRandomNetwork(80, 61);
  QdigestProtocol::Options options;
  options.compression = 16;
  QdigestProtocol protocol(40, 0, 1023, WireFormat{}, options);
  Rng rng(5);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 15; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 1023);
    }
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    const auto sensors = SensorValues(net, values);
    EXPECT_LE(OracleRankError(sensors, protocol.quantile(), 40),
              protocol.last_error_bound())
        << "round " << round;
  }
}

TEST(QdigestProtocolTest, HigherCompressionIsMoreAccurateButCostlier) {
  auto run = [](int64_t compression) {
    Network net = MakeRandomNetwork(100, 67);
    QdigestProtocol::Options options;
    options.compression = compression;
    QdigestProtocol protocol(50, 0, 65535, WireFormat{}, options);
    Rng rng(7);
    std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
    int64_t total_error = 0;
    net.ResetAccounting();
    for (int64_t round = 0; round <= 10; ++round) {
      for (int v = 1; v < net.num_vertices(); ++v) {
        values[static_cast<size_t>(v)] = rng.UniformInt(0, 65535);
      }
      net.BeginRound();
      protocol.RunRound(&net, values, round);
      total_error += OracleRankError(SensorValues(net, values),
                                     protocol.quantile(), 50);
    }
    return std::pair(total_error, net.MaxTotalEnergyOverSensors());
  };
  const auto [coarse_error, coarse_energy] = run(4);
  const auto [fine_error, fine_energy] = run(256);
  EXPECT_LT(fine_error, coarse_error);
  EXPECT_GT(fine_energy, coarse_energy);
}

TEST(GkProtocolTest, SmallEpsilonTracksClosely) {
  Network net = MakeRandomNetwork(120, 71);
  GkProtocol::Options options;
  options.epsilon = 0.02;
  GkProtocol protocol(60, 0, 100000, WireFormat{}, options);
  Rng rng(9);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 10; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 100000);
    }
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    // Tree merging inflates the error by the merge depth; stay generous
    // but meaningful: a few percent of |N|.
    EXPECT_LE(OracleRankError(SensorValues(net, values),
                              protocol.quantile(), 60),
              24)
        << "round " << round;
  }
}

TEST(SamplingProtocolTest, FullProbabilityIsExact) {
  Network net = MakeRandomNetwork(60, 73);
  SamplingProtocol::Options options;
  options.probability = 1.0;
  SamplingProtocol protocol(30, 0, 4095, WireFormat{}, options);
  Rng rng(11);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 5; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 4095);
    }
    net.BeginRound();
    protocol.RunRound(&net, values, round);
    EXPECT_EQ(protocol.quantile(),
              OracleKth(SensorValues(net, values), 30));
  }
}

TEST(SamplingProtocolTest, ErrorConcentratesWithProbability) {
  auto mean_error = [](double p) {
    Network net = MakeRandomNetwork(150, 79);
    SamplingProtocol::Options options;
    options.probability = p;
    SamplingProtocol protocol(75, 0, 65535, WireFormat{}, options);
    Rng rng(13);
    std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
    int64_t total = 0;
    for (int64_t round = 0; round <= 20; ++round) {
      for (int v = 1; v < net.num_vertices(); ++v) {
        values[static_cast<size_t>(v)] = rng.UniformInt(0, 65535);
      }
      net.BeginRound();
      protocol.RunRound(&net, values, round);
      total += OracleRankError(SensorValues(net, values),
                               protocol.quantile(), 75);
    }
    return total;
  };
  EXPECT_LT(mean_error(0.8), mean_error(0.05));
}

TEST(ApproximateTest, SummariesScaleBetterThanExactCollection) {
  // The economic argument for summaries: TAG's hotspot traffic grows with
  // k = |N|/2, while a summary's per-node message size is bounded. At
  // |N| = 600 the bounded-size tier must undercut TAG; the growth factor
  // from |N| = 150 must also be much smaller.
  auto energy = [](int sensors, AlgorithmKind kind) {
    SimulationConfig config;
    config.num_sensors = sensors;
    config.radio_range = 45.0;
    config.rounds = 8;
    auto scenario = BuildScenario(config, 0);
    WSNQ_CHECK(scenario.ok());
    auto protocol = MakeProtocol(kind, scenario.value().k,
                                 scenario.value().source->range_min(),
                                 scenario.value().source->range_max(),
                                 config.wire);
    return RunSimulation(scenario.value(), protocol.get(), config.rounds)
        .mean_max_round_energy_mj;
  };
  const double tag_small = energy(150, AlgorithmKind::kTag);
  const double tag_big = energy(600, AlgorithmKind::kTag);
  const double qd_small = energy(150, AlgorithmKind::kQdigest);
  const double qd_big = energy(600, AlgorithmKind::kQdigest);
  const double gk_small = energy(150, AlgorithmKind::kGk);
  const double gk_big = energy(600, AlgorithmKind::kGk);
  // Interestingly, at a few hundred nodes TAG's k-limited collection is
  // still competitive in absolute terms (one reason the paper focuses on
  // exact methods); the summaries' edge is the growth rate.
  EXPECT_LT(qd_big / qd_small, 0.85 * tag_big / tag_small);
  EXPECT_LT(gk_big / gk_small, 0.85 * tag_big / tag_small);
}

}  // namespace
}  // namespace wsnq
