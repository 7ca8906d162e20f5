// Unit tests of the in-run subtree-parallel convergecast engine
// (net/wave.h / net/wave.cc): the balanced cut must tile the routing
// tree's post order exactly, and RunConvergecastWave and FloodFromRoot
// must produce bit-identical network accounting, trace events and observer
// callbacks for every partition and thread count — the slot+ordered-fold
// contract the differential suites pin end to end.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/energy_model.h"
#include "net/network.h"
#include "net/packetizer.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/wave.h"
#include "util/rng.h"
#include "util/trace.h"

namespace wsnq {
namespace {

Network MakeNetwork(int n, uint64_t seed, int root = 0) {
  Rng rng(seed);
  // Sparse placements can't connect at short range; widen it for tiny n.
  const double range = n >= 32 ? 45.0 : 300.0;
  auto points = ConnectedPlacement(n, 200.0, 200.0, range, &rng);
  EXPECT_TRUE(points.ok());
  auto net = Network::Create(RadioGraph(points.value(), range), root,
                             EnergyModel{}, Packetizer{});
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

// Flattens a cut's serial program back into the post-order positions it
// visits, in visit order.
std::vector<size_t> VisitedPositions(const SubtreeCut& cut,
                                     const SpanningTree& tree) {
  std::vector<size_t> visited;
  for (const SubtreeCut::Step& step : cut.steps) {
    if (step.part >= 0) {
      const SubtreeCut::Part& part =
          cut.parts[static_cast<size_t>(step.part)];
      for (size_t i = part.begin; i < part.end; ++i) visited.push_back(i);
    } else {
      for (size_t i = 0; i < tree.post_order.size(); ++i) {
        if (tree.post_order[i] == step.vertex) {
          visited.push_back(i);
          break;
        }
      }
    }
  }
  return visited;
}

TEST(SubtreeCutTest, StepsTilePostOrderExactlyOnce) {
  for (const int n : {1, 2, 9, 64, 131}) {
    const Network net = MakeNetwork(n, static_cast<uint64_t>(n));
    for (const int parts : {1, 2, 3, 8, 64}) {
      const SubtreeCut cut = ComputeSubtreeCut(net.tree(), parts);
      const std::vector<size_t> visited = VisitedPositions(cut, net.tree());
      ASSERT_EQ(visited.size(), net.tree().post_order.size())
          << "n=" << n << " parts=" << parts;
      for (size_t i = 0; i < visited.size(); ++i) {
        // In order and exactly once: position i is visited i-th.
        EXPECT_EQ(visited[i], i) << "n=" << n << " parts=" << parts;
      }
    }
  }
}

TEST(SubtreeCutTest, PartsAreSelfContainedSubtreeRuns) {
  // Every vertex of a part except fold vertices must have its parent
  // either inside the same part or outside every part (a fold vertex) —
  // parts never split a parent from an unprocessed child, which is what
  // makes their sends replayable without cross-part state.
  const Network net = MakeNetwork(97, 11);
  const SpanningTree& tree = net.tree();
  const SubtreeCut cut = ComputeSubtreeCut(tree, 8);
  std::vector<int> part_of(tree.post_order.size(), -1);
  for (size_t p = 0; p < cut.parts.size(); ++p) {
    for (size_t i = cut.parts[p].begin; i < cut.parts[p].end; ++i) {
      ASSERT_EQ(part_of[i], -1) << "position in two parts";
      part_of[i] = static_cast<int>(p);
    }
  }
  std::vector<int> position_of(tree.size(), -1);
  for (size_t i = 0; i < tree.post_order.size(); ++i) {
    position_of[static_cast<size_t>(tree.post_order[i])] =
        static_cast<int>(i);
  }
  for (size_t i = 0; i < tree.post_order.size(); ++i) {
    if (part_of[i] < 0) continue;  // fold vertex, processed live
    const int v = tree.post_order[i];
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent < 0) continue;
    const int pi = position_of[static_cast<size_t>(parent)];
    ASSERT_GE(pi, 0);
    if (part_of[static_cast<size_t>(pi)] >= 0) {
      // A parent inside some part must be in the same part (post order
      // keeps subtrees contiguous, so this pins the "whole subtrees only"
      // shape of every part).
      EXPECT_EQ(part_of[static_cast<size_t>(pi)], part_of[i])
          << "vertex " << v << " split from its parent " << parent;
    }
  }
}

// Subtree-size Ops: every vertex reports its subtree size as payload, so
// both the send set and every payload depend on the whole fold being
// correct; the value tally varies per vertex too. Slots are disjoint per
// vertex, as the engine requires.
struct SubtreeSizeOps {
  const SpanningTree* tree;
  int root;
  std::vector<int64_t> size;

  WaveSend Process(int v, WaveLane& /*lane*/) {
    int64_t total = 1;
    for (int child : tree->children[static_cast<size_t>(v)]) {
      total += size[static_cast<size_t>(child)];
    }
    size[static_cast<size_t>(v)] = total;
    WaveSend send;
    if (v != root) send.payload_bits = total * 16;
    send.value_count = v % 3;
    return send;
  }
  void OnLost(int /*v*/) {}
};

// Bit-exact, not approximately equal: every vertex must see the identical
// debit sequence, since floating-point sums depend on their order.
void ExpectSameAccounting(const Network& net, const Network& serial,
                          int threads, int parts) {
  EXPECT_EQ(net.round_packets(), serial.round_packets());
  EXPECT_EQ(net.total_packets(), serial.total_packets());
  EXPECT_EQ(net.round_values(), serial.round_values());
  EXPECT_EQ(net.total_values(), serial.total_values());
  for (int v = 0; v < net.num_vertices(); ++v) {
    EXPECT_EQ(net.round_energy(v), serial.round_energy(v))
        << "threads=" << threads << " parts=" << parts << " v=" << v;
    EXPECT_EQ(net.total_energy(v), serial.total_energy(v))
        << "threads=" << threads << " parts=" << parts << " v=" << v;
  }
}

TEST(WaveExecutorTest, PartitionedWaveMatchesSerialBitForBit) {
  Network serial_net = MakeNetwork(131, 5, /*root=*/3);
  SubtreeSizeOps serial_ops{&serial_net.tree(), serial_net.root(),
                            std::vector<int64_t>(131, 0)};
  RunConvergecastWave(&serial_net, serial_ops);
  RunConvergecastWave(&serial_net, serial_ops);

  for (const int threads : {1, 2, 8}) {
    for (const int parts : {1, 2, 7, 32}) {
      Network net = MakeNetwork(131, 5, /*root=*/3);
      WaveExecutor executor(threads, parts);
      net.set_wave_executor(&executor);
      SubtreeSizeOps ops{&net.tree(), net.root(),
                         std::vector<int64_t>(131, 0)};
      // Two waves: the second adds onto non-zero energies, where the
      // order of a vertex's debits shows in the rounding.
      RunConvergecastWave(&net, ops);
      RunConvergecastWave(&net, ops);
      EXPECT_EQ(ops.size, serial_ops.size);
      ExpectSameAccounting(net, serial_net, threads, parts);
    }
  }
}

// Floods of five irregular payload sizes (one to five fragments): every
// vertex sums receive and send debits of many magnitudes, enough for a
// swapped pair of debits to show in the rounding.
void RunFloods(Network* net) {
  for (const int64_t bits : {37, 1531, 4877, 211, 999}) {
    net->FloodFromRoot(bits);
  }
}

TEST(WaveExecutorTest, FloodOverCutMatchesSerialBitForBit) {
  Network serial_net = MakeNetwork(131, 5, /*root=*/3);
  RunFloods(&serial_net);

  for (const int threads : {1, 2, 8}) {
    for (const int parts : {1, 2, 7, 32}) {
      Network net = MakeNetwork(131, 5, /*root=*/3);
      WaveExecutor executor(threads, parts);
      net.set_wave_executor(&executor);
      RunFloods(&net);
      EXPECT_EQ(net.total_floods(), serial_net.total_floods());
      ExpectSameAccounting(net, serial_net, threads, parts);
    }
  }
}

/// Records every callback as one comparable line.
class RecordingObserver : public SendObserver {
 public:
  void OnSend(const SendInfo& info) override {
    calls.push_back(std::to_string(static_cast<int>(info.kind)) + " " +
                    std::to_string(info.sender) + " " +
                    std::to_string(info.payload_bits) + " " +
                    std::to_string(info.wire_bits) + " " +
                    std::to_string(info.packets) + " " +
                    std::to_string(info.delivered ? 1 : 0));
  }
  std::vector<std::string> calls;
};

std::vector<std::string> EventLines(const trace::TraceBuffer& buffer) {
  std::vector<std::string> lines;
  for (const trace::Event& e : buffer.events()) {
    std::string line = std::to_string(static_cast<int>(e.kind)) + " " +
                       e.phase + " " + e.name + " " +
                       std::to_string(e.node) + " " + std::to_string(e.tick);
    for (int a = 0; a < e.num_args; ++a) {
      line += std::string(" ") + e.args[a].key + "=" +
              std::to_string(e.args[a].value);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// One wave and one flood under a trace buffer and an observer; returns the
// trace event lines followed by the observer's callback lines.
std::vector<std::string> ReportedSequence(Network* net) {
  trace::TraceBuffer buffer(/*run=*/0);
  RecordingObserver observer;
  {
    trace::RunScope scope(&buffer);
    net->set_send_observer(&observer);
    SubtreeSizeOps ops{&net->tree(), net->root(),
                       std::vector<int64_t>(
                           static_cast<size_t>(net->num_vertices()), 0)};
    RunConvergecastWave(net, ops);
    net->FloodFromRoot(1500);
    net->set_send_observer(nullptr);
  }
  std::vector<std::string> lines = EventLines(buffer);
  lines.insert(lines.end(), observer.calls.begin(), observer.calls.end());
  return lines;
}

TEST(WaveExecutorTest, ReportingMatchesSerialEventAndCallbackSequence) {
  Network serial_net = MakeNetwork(131, 5, /*root=*/3);
  const std::vector<std::string> serial = ReportedSequence(&serial_net);
  ASSERT_FALSE(serial.empty());

  for (const int threads : {1, 2, 8}) {
    for (const int parts : {1, 2, 7, 32}) {
      Network net = MakeNetwork(131, 5, /*root=*/3);
      WaveExecutor executor(threads, parts);
      net.set_wave_executor(&executor);
      EXPECT_EQ(ReportedSequence(&net), serial)
          << "threads=" << threads << " parts=" << parts;
      ExpectSameAccounting(net, serial_net, threads, parts);
    }
  }
}

TEST(WaveExecutorTest, CutIsCachedUntilTreeEpochChanges) {
  Network net = MakeNetwork(64, 9);
  WaveExecutor executor(/*threads=*/2, /*target_parts=*/4);
  const SubtreeCut& first = executor.CutFor(net);
  const SubtreeCut* first_ptr = &first;
  EXPECT_EQ(&executor.CutFor(net), first_ptr);  // cached, same object
  const size_t parts_before = first.parts.size();
  net.AdoptTree(SpanningTree(net.tree()));  // epoch bump, same shape
  const SubtreeCut& second = executor.CutFor(net);
  EXPECT_EQ(second.parts.size(), parts_before);  // recomputed consistently
  EXPECT_EQ(second.steps.size(), first.steps.size());
}

}  // namespace
}  // namespace wsnq
