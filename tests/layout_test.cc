// The post-order vertex layout and its label boundary (net/network.h).
// Every test hand-builds one deployment twice: in the identity layout,
// where vertex id == label (placement index), and in the post-order layout
// that simulated runs use. Whatever crosses the boundary — TransportPolicy
// arguments, SendObserver senders, trace node ids — must carry labels, so
// it must be identical between the two; per-vertex energy read by label
// must be bit-identical too.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "net/wave.h"
#include "util/rng.h"
#include "util/trace.h"

namespace wsnq {
namespace {

constexpr int kVertices = 90;
constexpr int kRoot = 17;  // not 0, so the root's label moves too
constexpr int kRounds = 8;

/// The shared deployment and its routing tree, by label.
struct Deployment {
  std::shared_ptr<const RadioGraph> graph;
  SpanningTree tree;
};

Deployment MakeDeployment() {
  Rng rng(11);
  auto placement = ConnectedPlacement(kVertices, 200.0, 200.0, 45.0, &rng);
  Deployment d;
  d.graph = std::make_shared<const RadioGraph>(std::move(placement).value(),
                                               45.0);
  d.tree = BuildRoutingTree(*d.graph, kRoot, ParentSelection::kNearest)
               .value();
  return d;
}

Network IdentityLayout(const Deployment& d) {
  return Network(d.graph, d.tree, EnergyModel{}, Packetizer{});
}

Network InPostOrder(const Deployment& d) {
  return Network::InPostOrder(d.graph,
                              std::make_shared<const PostOrderLayout>(d.tree),
                              EnergyModel{}, Packetizer{});
}

/// Measurement of label `label` in round `round`.
int64_t ValueOf(int label, int64_t round) {
  return (label * 37 + round * 11) % 200;
}

/// One line per trace event, node ids included.
std::string Describe(const std::vector<trace::Event>& events) {
  std::ostringstream out;
  for (const trace::Event& e : events) {
    out << e.phase << '/' << e.name << " node=" << e.node;
    for (int i = 0; i < e.num_args; ++i) {
      out << ' ' << e.args[i].key << '=' << e.args[i].value;
    }
    out << '\n';
  }
  return out.str();
}

class RecordingObserver : public SendObserver {
 public:
  void OnSend(const SendInfo& info) override {
    std::ostringstream line;
    line << (info.kind == SendKind::kUplink ? "up" : "bc") << ' '
         << info.sender << ' ' << info.payload_bits << ' ' << info.delivered;
    log.push_back(line.str());
  }
  std::vector<std::string> log;
};

/// A transport that keeps label `down` crashed and delivers everything
/// else, logging every call it receives.
class RecordingPolicy : public TransportPolicy {
 public:
  RecordingPolicy(int down, std::vector<std::string>* log)
      : down_(down), log_(log) {}

  void OnRoundStart(int64_t round, Network* /*net*/) override {
    log_->push_back("round " + std::to_string(round));
  }
  void OnReset() override {}
  bool reliable() const override { return false; }
  bool IsDown(int v) const override {
    log_->push_back("down? " + std::to_string(v));
    return v == down_;
  }
  int64_t AckPayloadBits() const override { return 0; }
  UplinkOutcome Uplink(int src, int dst) override {
    log_->push_back("uplink " + std::to_string(src) + "->" +
                    std::to_string(dst));
    uplinks.emplace_back(src, dst);
    return UplinkOutcome{};
  }

  std::vector<std::pair<int, int>> uplinks;

 private:
  int down_;
  std::vector<std::string>* log_;
};

/// Everything one replay shows at the boundary.
struct Replay {
  std::string trace;
  std::vector<std::string> sends;
  std::vector<double> energy_by_label;
  std::vector<int64_t> answers;
};

/// Runs IQ for kRounds rounds over `net` with values by label, under a
/// trace buffer and a recording observer.
Replay RunIq(Network* net) {
  Replay replay;
  RecordingObserver observer;
  net->set_send_observer(&observer);
  trace::TraceBuffer buffer(0);
  {
    trace::RunScope scope(&buffer);
    auto iq = MakeProtocol(AlgorithmKind::kIq, kVertices / 2, 0, 255,
                           WireFormat{});
    std::vector<int64_t> values(static_cast<size_t>(kVertices), 0);
    for (int64_t round = 0; round < kRounds; ++round) {
      for (int v = 0; v < kVertices; ++v) {
        values[static_cast<size_t>(v)] =
            net->is_root(v) ? 0 : ValueOf(net->label(v), round);
      }
      net->BeginRound();
      iq->RunRound(net, values, round);
      replay.answers.push_back(iq->quantile());
    }
  }
  net->set_send_observer(nullptr);
  replay.trace = Describe(buffer.events());
  replay.sends = std::move(observer.log);
  for (int label = 0; label < kVertices; ++label) {
    replay.energy_by_label.push_back(
        net->total_energy(net->vertex_of(label)));
  }
  return replay;
}

void ExpectSameReplay(const Replay& got, const Replay& want) {
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.sends, want.sends);
  EXPECT_EQ(got.trace, want.trace);
  ASSERT_EQ(got.energy_by_label.size(), want.energy_by_label.size());
  for (size_t label = 0; label < want.energy_by_label.size(); ++label) {
    // Bit-exact: each vertex receives the same debits in the same order.
    EXPECT_EQ(got.energy_by_label[label], want.energy_by_label[label])
        << "label " << label;
  }
}

TEST(VertexLayoutTest, PostOrderLayoutNumbersVerticesByPostOrder) {
  const Deployment d = MakeDeployment();
  const Network net = InPostOrder(d);
  std::vector<int> iota(static_cast<size_t>(kVertices));
  std::iota(iota.begin(), iota.end(), 0);
  EXPECT_EQ(net.tree().post_order, iota);
  EXPECT_EQ(net.root(), kVertices - 1);
  EXPECT_EQ(net.label(net.root()), kRoot);
  // The hand-built deployment's placement order is not its post order.
  EXPECT_NE(net.labels(), iota);
  EXPECT_EQ(net.labels(), d.tree.post_order);
  for (int v = 0; v < kVertices; ++v) {
    EXPECT_EQ(net.vertex_of(net.label(v)), v);
    // Siblings keep their order, so every children list stays ascending.
    const std::vector<int>& kids = net.tree().children[static_cast<size_t>(v)];
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end())) << "vertex " << v;
  }
  // Relabelled back, the tree is the one built over the graph.
  const SpanningTree back = RelabelTree(net.tree(), net.labels());
  EXPECT_EQ(back.root, d.tree.root);
  EXPECT_EQ(back.parent, d.tree.parent);
  EXPECT_EQ(back.depth, d.tree.depth);
  EXPECT_EQ(back.children, d.tree.children);
  EXPECT_EQ(back.pre_order, d.tree.pre_order);
  EXPECT_EQ(back.post_order, d.tree.post_order);
}

TEST(VertexLayoutTest, ObserverTraceAndEnergySeeLabelsOnReliableMedium) {
  const Deployment d = MakeDeployment();
  Network identity = IdentityLayout(d);
  const Replay want = RunIq(&identity);
  ASSERT_FALSE(want.sends.empty());

  Network serial = InPostOrder(d);
  ExpectSameReplay(RunIq(&serial), want);

  // The subtree-parallel engine: parts are contiguous vertex ranges now,
  // and the fold still reports every send by label.
  Network parallel = InPostOrder(d);
  WaveExecutor executor(/*threads=*/2, /*target_parts=*/5);
  parallel.set_wave_executor(&executor);
  ExpectSameReplay(RunIq(&parallel), want);
}

TEST(VertexLayoutTest, TransportPolicySeesLabels) {
  const Deployment d = MakeDeployment();
  // A crashed interior node: its subtree goes silent.
  int down = -1;
  for (int v : d.tree.post_order) {
    const int parent = d.tree.parent[static_cast<size_t>(v)];
    if (parent != kRoot) {
      down = parent;
      break;
    }
  }
  ASSERT_GE(down, 0);

  std::vector<std::string> identity_log;
  Network identity = IdentityLayout(d);
  auto identity_policy =
      std::make_unique<RecordingPolicy>(down, &identity_log);
  identity.set_transport_policy(std::move(identity_policy));
  const Replay want = RunIq(&identity);

  std::vector<std::string> log;
  Network net = InPostOrder(d);
  auto owned = std::make_unique<RecordingPolicy>(down, &log);
  RecordingPolicy* policy = owned.get();
  net.set_transport_policy(std::move(owned));
  ExpectSameReplay(RunIq(&net), want);
  EXPECT_EQ(log, identity_log);

  // Every uplink names a label and its parent's label in the deployment.
  ASSERT_FALSE(policy->uplinks.empty());
  for (const auto& [src, dst] : policy->uplinks) {
    EXPECT_EQ(dst, d.tree.parent[static_cast<size_t>(src)]) << src;
    EXPECT_NE(src, down);
  }
}

TEST(VertexLayoutTest, FaultPlanRepairAdoptsTreesBuiltOverLabels) {
  const Deployment d = MakeDeployment();
  FaultConfig fault;
  fault.loss = 0.2;
  fault.arq.enabled = true;
  fault.crash_nodes = 4;
  fault.crash_round = 2;
  fault.crash_len = 3;
  const auto install = [&](Network* net) {
    net->set_transport_policy(std::make_unique<FaultPlan>(
        fault, /*seed=*/5, /*run=*/0, net->num_vertices(),
        net->label(net->root()), ParentSelection::kRandom, /*tree_salt=*/9));
  };
  Network identity = IdentityLayout(d);
  install(&identity);
  const Replay want = RunIq(&identity);
  EXPECT_NE(want.trace.find("repair"), std::string::npos);
  EXPECT_GT(identity.tree_epoch(), 0);

  // Two runs share one layout; only the faulted one repairs.
  const auto layout = std::make_shared<const PostOrderLayout>(d.tree);
  Network net = Network::InPostOrder(d.graph, layout, EnergyModel{},
                                     Packetizer{});
  const Network bystander = Network::InPostOrder(d.graph, layout,
                                                 EnergyModel{}, Packetizer{});
  install(&net);
  ExpectSameReplay(RunIq(&net), want);
  // Mid-churn or recovered, the adopted tree maps back to the same tree.
  EXPECT_EQ(net.tree_epoch(), identity.tree_epoch());
  const SpanningTree held = RelabelTree(net.tree(), net.labels());
  EXPECT_EQ(held.parent, identity.tree().parent);
  EXPECT_EQ(held.children, identity.tree().children);
  EXPECT_EQ(held.post_order, identity.tree().post_order);
  // The repair replaced the faulted run's tree, never the shared one.
  EXPECT_NE(&net.tree(), &layout->tree);
  EXPECT_EQ(&bystander.tree(), &layout->tree);
  EXPECT_EQ(layout->tree.parent, PostOrderLayout(d.tree).tree.parent);
  net.ResetAccounting();
  EXPECT_EQ(net.tree_epoch(), 0);
  EXPECT_EQ(&net.tree(), &layout->tree);
}

}  // namespace
}  // namespace wsnq
