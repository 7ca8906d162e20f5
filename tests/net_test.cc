#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "net/energy_model.h"
#include "net/network.h"
#include "net/packetizer.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "tests/test_scenario.h"
#include "util/rng.h"

namespace wsnq {
namespace {

std::vector<Point2D> LinePoints(int n, double spacing) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * spacing, 0.0});
  return points;
}

TEST(PlacementTest, UniformStaysInArea) {
  Rng rng(1);
  const auto points = UniformPlacement(500, 200.0, 100.0, &rng);
  ASSERT_EQ(points.size(), 500u);
  for (const auto& p : points) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 200.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(PlacementTest, JitteredGridConnectedAtModestRange) {
  Rng rng(2);
  const auto points = JitteredGridPlacement(256, 200.0, 200.0, 0.25, &rng);
  // Cell size 12.5 m; 20 m covers neighbours even with max jitter.
  EXPECT_TRUE(IsConnected(points, 20.0));
}

TEST(PlacementTest, ConnectedPlacementIsConnected) {
  Rng rng(3);
  auto result = ConnectedPlacement(128, 200.0, 200.0, 35.0, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsConnected(result.value(), 35.0));
}

TEST(PlacementTest, ImpossibleRangeFails) {
  Rng rng(4);
  auto result = ConnectedPlacement(400, 200.0, 200.0, 0.5, &rng, 3);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlacementTest, ConnectivityCheckAgreesWithRadioGraph) {
  // Seeded placements on both sides of the connectivity threshold (about
  // 25-35 m for 150 nodes on 200 m x 200 m), plus rho = 0.001, where the
  // grid cells widen far past rho.
  int connected = 0;
  int disconnected = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::vector<std::vector<Point2D>> placements = {
        UniformPlacement(150, 200.0, 200.0, &rng),
        JitteredGridPlacement(150, 200.0, 200.0, 0.25, &rng),
        UniformPlacement(2, 200.0, 200.0, &rng),
        UniformPlacement(1, 200.0, 200.0, &rng)};
    for (const std::vector<Point2D>& points : placements) {
      for (double rho : {0.001, 15.0, 20.0, 25.0, 30.0, 35.0, 45.0, 300.0}) {
        const bool expected = RadioGraph(points, rho).IsConnected();
        EXPECT_EQ(IsConnected(points, rho), expected)
            << "seed " << seed << " n " << points.size() << " rho " << rho;
        ++(expected ? connected : disconnected);
      }
    }
  }
  EXPECT_GT(connected, 0);
  EXPECT_GT(disconnected, 0);
}

TEST(RadioGraphTest, EdgesMatchBruteForce) {
  Rng rng(5);
  const auto points = UniformPlacement(120, 100.0, 100.0, &rng);
  const double rho = 18.0;
  RadioGraph graph(points, rho);
  for (int v = 0; v < graph.size(); ++v) {
    std::vector<int> expected;
    for (int u = 0; u < graph.size(); ++u) {
      if (u != v && Distance(points[static_cast<size_t>(v)],
                             points[static_cast<size_t>(u)]) <= rho) {
        expected.push_back(u);
      }
    }
    EXPECT_EQ(graph.neighbors(v), expected) << "vertex " << v;
  }
}

TEST(RadioGraphTest, SymmetricAdjacency) {
  Rng rng(6);
  RadioGraph graph(UniformPlacement(200, 200.0, 200.0, &rng), 30.0);
  for (int v = 0; v < graph.size(); ++v) {
    for (int u : graph.neighbors(v)) {
      const auto& back = graph.neighbors(u);
      EXPECT_TRUE(std::find(back.begin(), back.end(), v) != back.end());
    }
  }
}

TEST(RadioGraphTest, DisconnectedDetected) {
  std::vector<Point2D> points = {{0, 0}, {1, 0}, {100, 0}, {101, 0}};
  RadioGraph graph(points, 2.0);
  EXPECT_FALSE(graph.IsConnected());
  RadioGraph joined(points, 150.0);
  EXPECT_TRUE(joined.IsConnected());
}

TEST(SpanningTreeTest, LineTopology) {
  RadioGraph graph(LinePoints(5, 10.0), 10.5);
  auto tree = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  EXPECT_EQ(t.parent[0], -1);
  for (int v = 1; v < 5; ++v) {
    EXPECT_EQ(t.parent[static_cast<size_t>(v)], v - 1);
    EXPECT_EQ(t.depth[static_cast<size_t>(v)], v);
  }
}

TEST(SpanningTreeTest, HopOptimalDepths) {
  Rng rng(7);
  auto placement = ConnectedPlacement(150, 200.0, 200.0, 40.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 40.0);
  auto tree = BuildShortestPathTree(graph, 3);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  // BFS depths are hop-optimal: every edge differs by at most one level.
  for (int v = 0; v < graph.size(); ++v) {
    for (int u : graph.neighbors(v)) {
      EXPECT_LE(std::abs(t.depth[static_cast<size_t>(v)] -
                         t.depth[static_cast<size_t>(u)]),
                1);
    }
  }
  // Parents are radio neighbours one hop closer.
  for (int v = 0; v < graph.size(); ++v) {
    if (v == 3) continue;
    const int p = t.parent[static_cast<size_t>(v)];
    EXPECT_EQ(t.depth[static_cast<size_t>(p)],
              t.depth[static_cast<size_t>(v)] - 1);
    const auto& nb = graph.neighbors(v);
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), p) != nb.end());
  }
}

TEST(SpanningTreeTest, OrdersAreConsistent) {
  Rng rng(8);
  auto placement = ConnectedPlacement(100, 200.0, 200.0, 45.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 45.0);
  auto tree = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(tree.ok());
  const SpanningTree& t = tree.value();
  ASSERT_EQ(static_cast<int>(t.pre_order.size()), graph.size());
  ASSERT_EQ(static_cast<int>(t.post_order.size()), graph.size());
  // In post order every child appears before its parent.
  std::vector<int> position(static_cast<size_t>(graph.size()));
  for (size_t i = 0; i < t.post_order.size(); ++i) {
    position[static_cast<size_t>(t.post_order[i])] = static_cast<int>(i);
  }
  for (int v = 0; v < graph.size(); ++v) {
    for (int c : t.children[static_cast<size_t>(v)]) {
      EXPECT_LT(position[static_cast<size_t>(c)],
                position[static_cast<size_t>(v)]);
    }
  }
  // In pre order every parent appears before its children.
  for (size_t i = 0; i < t.pre_order.size(); ++i) {
    position[static_cast<size_t>(t.pre_order[i])] = static_cast<int>(i);
  }
  for (int v = 0; v < graph.size(); ++v) {
    if (v == 0) continue;
    EXPECT_LT(position[static_cast<size_t>(t.parent[static_cast<size_t>(v)])],
              position[static_cast<size_t>(v)]);
  }
}

TEST(RoutingTreeTest, AllStrategiesAreHopOptimal) {
  Rng rng(55);
  auto placement = ConnectedPlacement(120, 200.0, 200.0, 45.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 45.0);
  const auto reference = BuildShortestPathTree(graph, 0);
  ASSERT_TRUE(reference.ok());
  for (ParentSelection selection :
       {ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
        ParentSelection::kRandom}) {
    auto tree = BuildRoutingTree(graph, 0, selection, 9);
    ASSERT_TRUE(tree.ok());
    // Identical BFS depths regardless of parent choice.
    EXPECT_EQ(tree.value().depth, reference.value().depth);
    // Parents are radio neighbours exactly one hop closer.
    for (int v = 1; v < graph.size(); ++v) {
      const int p = tree.value().parent[static_cast<size_t>(v)];
      EXPECT_EQ(tree.value().depth[static_cast<size_t>(p)],
                tree.value().depth[static_cast<size_t>(v)] - 1);
      const auto& nb = graph.neighbors(v);
      EXPECT_TRUE(std::find(nb.begin(), nb.end(), p) != nb.end());
    }
  }
}

TEST(RoutingTreeTest, DegreeBalancingFlattensFanout) {
  Rng rng(57);
  auto placement = ConnectedPlacement(200, 200.0, 200.0, 50.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 50.0);
  auto fanout_max = [&](ParentSelection selection) {
    auto tree = BuildRoutingTree(graph, 0, selection, 3);
    size_t worst = 0;
    for (const auto& kids : tree.value().children) {
      worst = std::max(worst, kids.size());
    }
    return worst;
  };
  EXPECT_LE(fanout_max(ParentSelection::kDegreeBalanced),
            fanout_max(ParentSelection::kNearest));
}

TEST(RoutingTreeTest, RandomSelectionIsSeedDeterministic) {
  Rng rng(59);
  auto placement = ConnectedPlacement(80, 200.0, 200.0, 50.0, &rng);
  ASSERT_TRUE(placement.ok());
  RadioGraph graph(placement.value(), 50.0);
  auto a = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 42);
  auto b = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 42);
  auto c = BuildRoutingTree(graph, 0, ParentSelection::kRandom, 43);
  EXPECT_EQ(a.value().parent, b.value().parent);
  EXPECT_NE(a.value().parent, c.value().parent);
}

TEST(SpanningTreeTest, DisconnectedFails) {
  std::vector<Point2D> points = {{0, 0}, {1, 0}, {50, 0}};
  RadioGraph graph(points, 2.0);
  EXPECT_FALSE(BuildShortestPathTree(graph, 0).ok());
}

TEST(PacketizerTest, SinglePacket) {
  Packetizer p;  // 128-bit header, 1024-bit payload
  const auto msg = p.Packetize(100);
  EXPECT_EQ(msg.packets, 1);
  EXPECT_EQ(msg.total_bits, 228);
}

TEST(PacketizerTest, Fragmentation) {
  Packetizer p;
  const auto msg = p.Packetize(1025);  // one bit over a packet
  EXPECT_EQ(msg.packets, 2);
  EXPECT_EQ(msg.total_bits, 1025 + 2 * 128);
  const auto exact = p.Packetize(2048);
  EXPECT_EQ(exact.packets, 2);
}

TEST(PacketizerTest, EmptyPayloadIsBeacon) {
  Packetizer p;
  const auto msg = p.Packetize(0);
  EXPECT_EQ(msg.packets, 1);
  EXPECT_EQ(msg.total_bits, 128);
}

TEST(PacketizerTest, ValuesPerPacket) {
  Packetizer p;
  EXPECT_EQ(p.ValuesPerPacket(16), 64);  // §5.1.6: 64 two-byte measurements
}

TEST(EnergyModelTest, CostFormulas) {
  EnergyModel model;
  // 1000 bits at 35 m: 1000 * (50e-6 + 10e-9 * 1225) mJ.
  EXPECT_NEAR(model.SendCost(1000, 35.0), 1000 * (50e-6 + 10e-9 * 1225.0),
              1e-12);
  EXPECT_NEAR(model.RecvCost(1000), 0.05, 1e-12);
  // Sending always costs more than receiving.
  EXPECT_GT(model.SendCost(100, 15.0), model.RecvCost(100));
}

TEST(NetworkTest, AccountingOnLine) {
  // 0 -- 1 -- 2 rooted at 0.
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(2, 100);
  const auto msg = Packetizer{}.Packetize(100);
  const EnergyModel model;
  EXPECT_NEAR(net.round_energy(2), model.SendCost(msg.total_bits, 10.5),
              1e-15);
  EXPECT_NEAR(net.round_energy(1), model.RecvCost(msg.total_bits), 1e-15);
  EXPECT_EQ(net.round_energy(0), 0.0);
  EXPECT_EQ(net.round_packets(), 1);

  net.BroadcastToChildren(0, 40);
  const auto bmsg = Packetizer{}.Packetize(40);
  EXPECT_NEAR(net.round_energy(0), model.SendCost(bmsg.total_bits, 10.5),
              1e-15);
  EXPECT_EQ(net.round_packets(), 2);
}

TEST(NetworkTest, FloodReachesEveryone) {
  RadioGraph graph(LinePoints(6, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.FloodFromRoot(16);
  // Nodes 0..4 transmit (node 5 is a leaf); nodes 1..5 receive.
  EXPECT_EQ(net.round_packets(), 5);
  for (int v = 1; v <= 5; ++v) EXPECT_GT(net.round_energy(v), 0.0);
  const EnergyModel model;
  const auto msg = Packetizer{}.Packetize(16);
  // The leaf only receives.
  EXPECT_NEAR(net.round_energy(5), model.RecvCost(msg.total_bits), 1e-15);
}

TEST(NetworkTest, ResetAccountingClears) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(2, 100);
  net.CountValues(3);
  EXPECT_GT(net.total_energy(2), 0.0);
  EXPECT_EQ(net.total_values(), 3);
  net.ResetAccounting();
  EXPECT_EQ(net.total_energy(2), 0.0);
  EXPECT_EQ(net.total_packets(), 0);
  EXPECT_EQ(net.total_values(), 0);
  EXPECT_EQ(net.MaxTotalEnergyOverSensors(), 0.0);
}

TEST(NetworkTest, RootSendToParentIsNoop) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 0, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.SendToParent(0, 100);
  EXPECT_EQ(net.round_packets(), 0);
  EXPECT_EQ(net.round_energy(0), 0.0);
}

TEST(NetworkTest, MaxRoundEnergyExcludesRoot) {
  RadioGraph graph(LinePoints(3, 10.0), 10.5);
  auto net_or = Network::Create(graph, 1, EnergyModel{}, Packetizer{});
  ASSERT_TRUE(net_or.ok());
  Network net = std::move(net_or).value();
  net.BeginRound();
  net.BroadcastToChildren(1, 5000);  // root 1 transmits a lot
  const double max_sensor = net.MaxRoundEnergyOverSensors();
  EXPECT_LT(max_sensor, net.round_energy(1));
}

// FloodFromRoot must account exactly like one BroadcastToChildren per
// vertex in pre order: same per-vertex energy bits, packet count, and
// observer callbacks, whether or not a transport policy or a SendObserver
// is installed.
struct RecordingObserver : SendObserver {
  std::vector<SendInfo> sends;
  void OnSend(const SendInfo& info) override { sends.push_back(info); }
};

enum class FloodSetup { kReliable, kCrashedInterior, kObserver };

struct FloodRig {
  Network net;
  RecordingObserver observer;
};

std::unique_ptr<FloodRig> MakeFloodRig(FloodSetup setup) {
  auto rig = std::make_unique<FloodRig>(
      FloodRig{testing_support::MakeRandomNetwork(40, /*seed=*/7), {}});
  if (setup == FloodSetup::kCrashedInterior) {
    FaultConfig config;
    config.crash_nodes = 8;
    config.crash_round = 0;
    config.crash_len = 1;
    config.repair = false;  // keep the crashed vertices in the tree
    rig->net.set_transport_policy(std::make_unique<FaultPlan>(
        config, /*seed=*/3, /*run=*/0, rig->net.num_vertices(),
        rig->net.root(), ParentSelection::kNearest, /*tree_salt=*/0));
  }
  if (setup == FloodSetup::kObserver) {
    rig->net.set_send_observer(&rig->observer);
  }
  rig->net.BeginRound();
  return rig;
}

void ExpectFloodMatchesBroadcasts(FloodSetup setup) {
  constexpr int64_t kBits = 300;  // more than one packet
  std::unique_ptr<FloodRig> flood = MakeFloodRig(setup);
  std::unique_ptr<FloodRig> broadcasts = MakeFloodRig(setup);
  flood->net.FloodFromRoot(kBits);
  for (int v : broadcasts->net.tree().pre_order) {
    broadcasts->net.BroadcastToChildren(v, kBits);
  }
  EXPECT_EQ(flood->net.round_packets(), broadcasts->net.round_packets());
  EXPECT_GT(flood->net.round_packets(), 0);
  for (int v = 0; v < flood->net.num_vertices(); ++v) {
    EXPECT_EQ(flood->net.total_energy(v), broadcasts->net.total_energy(v))
        << "vertex " << v;
  }
  const auto& got = flood->observer.sends;
  const auto& want = broadcasts->observer.sends;
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, SendObserver::SendKind::kBroadcast);
    EXPECT_EQ(got[i].sender, want[i].sender) << "send " << i;
    EXPECT_EQ(got[i].payload_bits, want[i].payload_bits) << "send " << i;
    EXPECT_EQ(got[i].wire_bits, want[i].wire_bits) << "send " << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << "send " << i;
  }
  if (setup == FloodSetup::kObserver) {
    EXPECT_FALSE(got.empty());
  }
}

TEST(NetworkTest, FloodMatchesPreOrderBroadcastsOnReliableMedium) {
  ExpectFloodMatchesBroadcasts(FloodSetup::kReliable);
}

TEST(NetworkTest, FloodMatchesPreOrderBroadcastsWithCrashedInteriorNode) {
  // The setup must really crash a vertex that relays the flood.
  std::unique_ptr<FloodRig> rig = MakeFloodRig(FloodSetup::kCrashedInterior);
  const Network& net = rig->net;
  TransportPolicy* policy = rig->net.transport_policy();
  bool crashed_interior = false;
  for (int v = 0; v < net.num_vertices(); ++v) {
    crashed_interior |= policy->IsDown(v) && !net.is_root(v) &&
                        !net.tree().children[static_cast<size_t>(v)].empty();
  }
  ASSERT_TRUE(crashed_interior);
  ExpectFloodMatchesBroadcasts(FloodSetup::kCrashedInterior);
}

TEST(NetworkTest, FloodMatchesPreOrderBroadcastsWithObserver) {
  ExpectFloodMatchesBroadcasts(FloodSetup::kObserver);
}

}  // namespace
}  // namespace wsnq
