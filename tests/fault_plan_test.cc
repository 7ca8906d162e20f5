// Unit and property tests of the fault subsystem (src/fault/): the
// counter-based keying helper, both link-loss processes (i.i.d. and
// Gilbert–Elliott, including the stationary-rate and burst-length
// calibration), the stop-and-wait ARQ exchange, the churn schedule, and
// deterministic tree repair (BuildLiveRoutingTree). Everything here is fully deterministic per
// seed, so the statistical tolerances are pinned, not flaky.

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/scenario.h"
#include "fault/arq.h"
#include "fault/fault_cli.h"
#include "fault/fault_key.h"
#include "fault/fault_plan.h"
#include "fault/link_models.h"
#include "fault/node_churn.h"
#include "fault/scripted_oracle.h"
#include "net/network.h"
#include "net/spanning_tree.h"
#include "tests/test_scenario.h"

namespace wsnq {
namespace {

using testing_support::MakeLineNetwork;
using testing_support::MakeRandomNetwork;

// --- fault_key.h ----------------------------------------------------------

TEST(FaultKeyTest, SameKeySameBits) {
  FaultKey key;
  key.seed = 42;
  key.run = 3;
  key.round = 17;
  key.src = 5;
  key.dst = 2;
  key.salt = FaultStream::kUplinkData;
  EXPECT_EQ(FaultBits(key), FaultBits(key));
  EXPECT_EQ(FaultUniform(key), FaultUniform(key));
}

TEST(FaultKeyTest, EveryFieldChangesTheDraw) {
  FaultKey base;
  base.seed = 42;
  base.run = 3;
  base.round = 17;
  base.src = 5;
  base.dst = 2;
  const uint64_t h = FaultBits(base);

  FaultKey k = base;
  k.seed = 43;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.run = 4;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.round = 18;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.src = 6;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.dst = 3;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.salt = FaultStream::kDownlinkAck;
  EXPECT_NE(FaultBits(k), h);
  k = base;
  k.nonce = 1;
  EXPECT_NE(FaultBits(k), h);
}

TEST(FaultKeyTest, UniformIsInUnitIntervalAndUnbiased) {
  double sum = 0.0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    FaultKey key;
    key.seed = 7;
    key.round = i;
    const double u = FaultUniform(key);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

// --- link_models.h --------------------------------------------------------

TEST(LinkLossTest, IidHitsConfiguredRate) {
  LinkLossProcess links(LossModel::kIid, 0.2, 4.0, /*seed=*/11, /*run=*/0,
                        /*num_vertices=*/8);
  int lost = 0;
  const int kFrames = 50000;
  for (int t = 0; t < kFrames; ++t) {
    lost += links.FrameLost(3, 0, t, /*downlink=*/false);
  }
  EXPECT_NEAR(static_cast<double>(lost) / kFrames, 0.2, 0.01);
}

TEST(LinkLossTest, VerdictIsAPureFunctionOfTheKey) {
  LinkLossProcess a(LossModel::kIid, 0.3, 4.0, 9, 2, 8);
  LinkLossProcess b(LossModel::kIid, 0.3, 4.0, 9, 2, 8);
  // Interleave draws on other links in `b` only: the draw order must not
  // matter, unlike a shared sequential stream.
  for (int t = 0; t < 512; ++t) {
    b.FrameLost(5, 0, t, false);
    b.FrameLost(2, 0, t, true);
    EXPECT_EQ(a.FrameLost(3, 0, t, false), b.FrameLost(3, 0, t, false)) << t;
  }
}

TEST(LinkLossTest, ExtremeProbabilitiesAreExact) {
  LinkLossProcess never(LossModel::kGilbertElliott, 0.0, 4.0, 1, 0, 4);
  LinkLossProcess always(LossModel::kGilbertElliott, 1.0, 4.0, 1, 0, 4);
  for (int t = 0; t < 100; ++t) {
    EXPECT_FALSE(never.FrameLost(1, 0, t, false));
    EXPECT_TRUE(always.FrameLost(1, 0, t, false));
  }
}

TEST(LinkLossTest, GilbertElliottTransitionProbabilities) {
  // p_BG = 1/burst_len and p_GB = loss/((1-loss)*burst_len) give the chain
  // stationary Bad mass = loss and mean Bad sojourn = burst_len.
  LinkLossProcess links(LossModel::kGilbertElliott, 0.2, 4.0, 1, 0, 4);
  EXPECT_DOUBLE_EQ(links.bad_to_good(), 0.25);
  EXPECT_DOUBLE_EQ(links.good_to_bad(), 0.2 / (0.8 * 4.0));
}

TEST(LinkLossTest, GilbertElliottStationaryRateAndBurstLength) {
  const double kLoss = 0.2;
  const double kBurst = 4.0;
  LinkLossProcess links(LossModel::kGilbertElliott, kLoss, kBurst,
                        /*seed=*/5, /*run=*/0, /*num_vertices=*/8);
  const int kFrames = 100000;
  int lost = 0;
  int bursts = 0;
  int burst_frames = 0;
  bool in_burst = false;
  for (int t = 0; t < kFrames; ++t) {
    const bool frame_lost = links.FrameLost(3, 0, t, false);
    lost += frame_lost;
    if (frame_lost) {
      if (!in_burst) ++bursts;
      ++burst_frames;
    }
    in_burst = frame_lost;
  }
  // The chain is calibrated: stationary loss rate = loss, mean loss-run
  // length = burst_len (the tolerances hold deterministically for seed 5).
  EXPECT_NEAR(static_cast<double>(lost) / kFrames, kLoss, 0.02);
  ASSERT_GT(bursts, 0);
  EXPECT_NEAR(static_cast<double>(burst_frames) / bursts, kBurst, 0.5);
}

TEST(LinkLossTest, GilbertElliottIsBurstierThanIid) {
  // Same stationary rate, but GE packs its losses into runs: the number of
  // distinct loss runs must be well below the i.i.d. count.
  const int kFrames = 50000;
  auto count_runs = [&](LossModel model) {
    LinkLossProcess links(model, 0.2, 6.0, 5, 0, 8);
    int runs = 0;
    bool in_run = false;
    for (int t = 0; t < kFrames; ++t) {
      const bool frame_lost = links.FrameLost(3, 0, t, false);
      if (frame_lost && !in_run) ++runs;
      in_run = frame_lost;
    }
    return runs;
  };
  EXPECT_LT(count_runs(LossModel::kGilbertElliott),
            count_runs(LossModel::kIid) / 2);
}

TEST(LinkLossTest, ResetReplaysTheChain) {
  LinkLossProcess links(LossModel::kGilbertElliott, 0.3, 4.0, 7, 1, 8);
  std::vector<bool> first, second;
  for (int t = 0; t < 256; ++t) first.push_back(links.FrameLost(2, 0, t, false));
  links.Reset();
  for (int t = 0; t < 256; ++t) second.push_back(links.FrameLost(2, 0, t, false));
  EXPECT_EQ(first, second);
}

TEST(LinkLossTest, UplinkAndDownlinkChannelsAreIndependent) {
  LinkLossProcess links(LossModel::kIid, 0.5, 4.0, 13, 0, 8);
  int differ = 0;
  for (int t = 0; t < 1000; ++t) {
    differ += links.FrameLost(3, 0, t, false) != links.FrameLost(0, 3, t, true);
  }
  // Bernoulli(0.5) channels that were secretly the same stream would never
  // differ; independent ones differ about half the time.
  EXPECT_GT(differ, 300);
}

// --- arq.h ----------------------------------------------------------------

TEST(ArqTest, BackoffDoublesUpToTheCap) {
  ArqConfig config;
  config.base_timeout_ticks = 2;
  config.backoff_exponent_cap = 3;
  EXPECT_EQ(ArqBackoffTicks(config, 1), 4);
  EXPECT_EQ(ArqBackoffTicks(config, 2), 8);
  EXPECT_EQ(ArqBackoffTicks(config, 3), 16);
  EXPECT_EQ(ArqBackoffTicks(config, 4), 16);   // capped
  EXPECT_EQ(ArqBackoffTicks(config, 100), 16); // stays capped
}

TEST(ArqTest, LosslessExchangeIsOneFrameOneAck) {
  LinkLossProcess links(LossModel::kIid, 0.0, 4.0, 1, 0, 4);
  ArqConfig config;
  config.enabled = true;
  int64_t clock = 0;
  const TransportPolicy::UplinkOutcome o =
      RunStopAndWait(config, &links, 1, 0, /*dst_down=*/false, &clock);
  EXPECT_TRUE(o.delivered);
  EXPECT_EQ(o.data_frames, 1);
  EXPECT_EQ(o.data_frames_received, 1);
  EXPECT_EQ(o.ack_frames, 1);
  EXPECT_EQ(o.ack_frames_received, 1);
  EXPECT_EQ(clock, o.ticks);
}

TEST(ArqTest, DisabledArqIsASingleUnackedFrame) {
  LinkLossProcess links(LossModel::kIid, 0.0, 4.0, 1, 0, 4);
  ArqConfig config;
  config.enabled = false;
  int64_t clock = 0;
  const TransportPolicy::UplinkOutcome o =
      RunStopAndWait(config, &links, 1, 0, false, &clock);
  EXPECT_TRUE(o.delivered);
  EXPECT_EQ(o.data_frames, 1);
  EXPECT_EQ(o.ack_frames, 0);
}

TEST(ArqTest, CrashedParentBurnsTheFullRetryBudget) {
  LinkLossProcess links(LossModel::kIid, 0.0, 4.0, 1, 0, 4);
  ArqConfig config;
  config.enabled = true;
  config.max_retx = 5;
  int64_t clock = 0;
  const TransportPolicy::UplinkOutcome o =
      RunStopAndWait(config, &links, 1, 0, /*dst_down=*/true, &clock);
  EXPECT_FALSE(o.delivered);
  EXPECT_EQ(o.data_frames, config.max_retx + 1);
  EXPECT_EQ(o.data_frames_received, 0);
  EXPECT_EQ(o.ack_frames, 0);
}

TEST(ArqTest, OutcomeInvariantsHoldUnderHeavyLoss) {
  LinkLossProcess links(LossModel::kGilbertElliott, 0.4, 3.0, 21, 0, 8);
  ArqConfig config;
  config.enabled = true;
  config.max_retx = 8;
  int64_t clock = 0;
  int delivered = 0;
  for (int msg = 0; msg < 2000; ++msg) {
    const int64_t before = clock;
    const TransportPolicy::UplinkOutcome o =
        RunStopAndWait(config, &links, 3, 0, false, &clock);
    delivered += o.delivered;
    EXPECT_GE(o.data_frames, 1);
    EXPECT_LE(o.data_frames, config.max_retx + 1);
    EXPECT_LE(o.data_frames_received, o.data_frames);
    EXPECT_LE(o.ack_frames, o.data_frames_received);
    EXPECT_LE(o.ack_frames_received, o.ack_frames);
    EXPECT_EQ(o.delivered, o.data_frames_received > 0);
    EXPECT_EQ(clock - before, o.ticks);
    EXPECT_GT(o.ticks, 0);
  }
  // At loss 0.4 with 9 attempts, delivery failure needs 9 straight losses
  // on the data channel — rare even inside bursts.
  EXPECT_GT(delivered, 1950);
}

TEST(ArqTest, RetriesRecoverFromModerateLoss) {
  for (double loss : {0.05, 0.15, 0.3}) {
    LinkLossProcess links(LossModel::kIid, loss, 4.0, 31, 0, 8);
    ArqConfig config;
    config.enabled = true;  // default max_retx = 16
    int64_t clock = 0;
    for (int msg = 0; msg < 1000; ++msg) {
      const TransportPolicy::UplinkOutcome o =
          RunStopAndWait(config, &links, 2, 0, false, &clock);
      ASSERT_TRUE(o.delivered) << "loss=" << loss << " msg=" << msg;
    }
  }
}

// --- node_churn.h ---------------------------------------------------------

TEST(NodeChurnTest, VictimsExcludeRootAndRespectTheWindow) {
  NodeChurn churn(/*crash_nodes=*/3, /*crash_round=*/5, /*crash_len=*/4,
                  /*seed=*/17, /*run=*/2, /*num_vertices=*/10, /*root=*/0);
  ASSERT_EQ(churn.victims().size(), 3u);
  for (int v : churn.victims()) {
    EXPECT_NE(v, 0);
    EXPECT_FALSE(churn.IsDown(v, 4));
    EXPECT_TRUE(churn.IsDown(v, 5));
    EXPECT_TRUE(churn.IsDown(v, 8));
    EXPECT_FALSE(churn.IsDown(v, 9));
  }
  EXPECT_EQ(churn.crash_round(), 5);
  EXPECT_EQ(churn.recover_round(), 9);
  EXPECT_TRUE(churn.TransitionAt(5));
  EXPECT_TRUE(churn.TransitionAt(9));
  EXPECT_FALSE(churn.TransitionAt(6));
  EXPECT_FALSE(churn.TransitionAt(4));
}

TEST(NodeChurnTest, VictimCountClampsToTheNonRootPopulation) {
  NodeChurn churn(100, 0, 0, 1, 0, /*num_vertices=*/6, /*root=*/2);
  EXPECT_EQ(churn.victims().size(), 5u);
  EXPECT_FALSE(churn.IsDown(2, 100));  // root survives even at "crash all"
}

TEST(NodeChurnTest, NonPositiveCrashLenIsPermanent) {
  NodeChurn churn(2, 3, 0, 9, 0, 8, 0);
  const int victim = churn.victims().front();
  EXPECT_FALSE(churn.IsDown(victim, 2));
  EXPECT_TRUE(churn.IsDown(victim, 3));
  EXPECT_TRUE(churn.IsDown(victim, 1000000));
  EXPECT_TRUE(churn.TransitionAt(3));
  EXPECT_FALSE(churn.TransitionAt(1000000));
}

TEST(NodeChurnTest, ZeroVictimsNeverTransitions) {
  NodeChurn churn(0, 5, 4, 1, 0, 8, 0);
  EXPECT_TRUE(churn.victims().empty());
  for (int64_t r = 0; r < 20; ++r) {
    EXPECT_FALSE(churn.TransitionAt(r));
    for (int v = 0; v < 8; ++v) EXPECT_FALSE(churn.IsDown(v, r));
  }
}

TEST(NodeChurnTest, VictimChoiceIsDeterministicPerSeedAndRun) {
  NodeChurn a(3, 5, 4, 17, 2, 20, 0);
  NodeChurn b(3, 5, 4, 17, 2, 20, 0);
  NodeChurn other_run(3, 5, 4, 17, 3, 20, 0);
  EXPECT_EQ(a.victims(), b.victims());
  EXPECT_NE(a.victims(), other_run.victims());  // holds for seed 17
}

// --- tree repair: BuildLiveRoutingTree (net/spanning_tree.h) -------------

// Structural invariants every repaired tree must satisfy: live parents,
// parent depth exactly one less, traversal orders covering exactly the
// attached set, children arrays consistent with parents.
void ExpectValidRepairedTree(const SpanningTree& tree,
                             const std::vector<char>& alive) {
  const int n = static_cast<int>(tree.parent.size());
  std::set<int> attached(tree.post_order.begin(), tree.post_order.end());
  EXPECT_EQ(tree.pre_order.size(), tree.post_order.size());
  EXPECT_TRUE(attached.count(tree.root));
  for (int v = 0; v < n; ++v) {
    if (v == tree.root) {
      EXPECT_EQ(tree.parent[static_cast<size_t>(v)], -1);
      continue;
    }
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (!attached.count(v)) {
      // Detached: dead, or unreachable through live vertices.
      EXPECT_EQ(parent, -1);
      EXPECT_EQ(tree.depth[static_cast<size_t>(v)], 0);
      EXPECT_TRUE(tree.children[static_cast<size_t>(v)].empty());
      continue;
    }
    EXPECT_TRUE(alive[static_cast<size_t>(v)]);
    ASSERT_GE(parent, 0);
    EXPECT_TRUE(alive[static_cast<size_t>(parent)]);
    EXPECT_TRUE(attached.count(parent));
    EXPECT_EQ(tree.depth[static_cast<size_t>(parent)],
              tree.depth[static_cast<size_t>(v)] - 1);
  }
}

TEST(TreeRepairTest, AllAliveMatchesTheOriginalDepths) {
  Network net = MakeRandomNetwork(30, 4);
  const std::vector<char> alive(static_cast<size_t>(net.num_vertices()), 1);
  const SpanningTree repaired = BuildLiveRoutingTree(
      net.graph(), net.root(), alive, ParentSelection::kNearest);
  ExpectValidRepairedTree(repaired, alive);
  // Repair is hop-optimal, so with nobody dead the BFS depths must match
  // the original tree's (parents may differ only among equal-depth ties).
  EXPECT_EQ(repaired.depth, net.tree().depth);
}

TEST(TreeRepairTest, AllAliveEqualsBuildRoutingTreeUnderEveryPolicy) {
  Network net = MakeRandomNetwork(40, 8);
  const std::vector<char> alive(static_cast<size_t>(net.num_vertices()), 1);
  for (ParentSelection selection :
       {ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
        ParentSelection::kRandom}) {
    SCOPED_TRACE(static_cast<int>(selection));
    auto full = BuildRoutingTree(net.graph(), net.root(), selection, 11);
    ASSERT_TRUE(full.ok());
    const SpanningTree live =
        BuildLiveRoutingTree(net.graph(), net.root(), alive, selection, 11);
    EXPECT_EQ(live.root, full.value().root);
    EXPECT_EQ(live.parent, full.value().parent);
    EXPECT_EQ(live.children, full.value().children);
    EXPECT_EQ(live.depth, full.value().depth);
    EXPECT_EQ(live.post_order, full.value().post_order);
    EXPECT_EQ(live.pre_order, full.value().pre_order);
  }
}

TEST(TreeRepairTest, OrphansReattachAboveCrashedInteriorNodes) {
  // Line 0-1-2-3-4 rooted at 0: killing vertex 2 disconnects 3 and 4 (no
  // alternative radio path), so they must detach cleanly.
  Network line = MakeLineNetwork(5, 0);
  std::vector<char> alive(5, 1);
  alive[2] = 0;
  const SpanningTree repaired = BuildLiveRoutingTree(
      line.graph(), 0, alive, ParentSelection::kNearest);
  ExpectValidRepairedTree(repaired, alive);
  EXPECT_EQ(repaired.parent[1], 0);
  EXPECT_EQ(repaired.parent[2], -1);
  EXPECT_EQ(repaired.parent[3], -1);  // unreachable despite being alive
  EXPECT_EQ(repaired.parent[4], -1);
  EXPECT_EQ(repaired.post_order.size(), 2u);
  EXPECT_EQ(LiveHopDepths(line.graph(), 0, &alive),
            (std::vector<int>{0, 1, -1, -1, -1}));
}

TEST(TreeRepairTest, EveryPolicyYieldsAValidTreeUnderChurn) {
  Network net = MakeRandomNetwork(40, 8);
  NodeChurn churn(6, 0, 0, 23, 0, net.num_vertices(), net.root());
  std::vector<char> alive(static_cast<size_t>(net.num_vertices()), 1);
  for (int v : churn.victims()) alive[static_cast<size_t>(v)] = 0;
  for (ParentSelection selection :
       {ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
        ParentSelection::kRandom}) {
    const SpanningTree repaired =
        BuildLiveRoutingTree(net.graph(), net.root(), alive, selection, 7);
    ExpectValidRepairedTree(repaired, alive);
    for (int v : churn.victims()) {
      EXPECT_EQ(repaired.parent[static_cast<size_t>(v)], -1);
    }
  }
}

TEST(TreeRepairTest, RecoveredChurnRunHoldsItsConfiguredTree) {
  // Repair must rebuild with the run's own policy and tree salt: once every
  // crashed node is back, the network holds exactly the tree the run
  // started with, not a nearest-parent tree.
  for (ParentSelection selection :
       {ParentSelection::kNearest, ParentSelection::kDegreeBalanced,
        ParentSelection::kRandom}) {
    SCOPED_TRACE(static_cast<int>(selection));
    SimulationConfig config;
    config.num_sensors = 200;
    config.tree_strategy = selection;
    config.fault.crash_nodes = 12;
    config.fault.crash_round = 2;
    config.fault.crash_len = 3;
    const int run = 1;
    StatusOr<Scenario> scenario = BuildScenario(config, run);
    ASSERT_TRUE(scenario.ok());
    Network& net = *scenario.value().network;
    // Built over the graph, so by label; compared in the same id space.
    const StatusOr<SpanningTree> configured =
        BuildRoutingTree(net.graph(), net.label(net.root()), selection,
                         RoutingTreeSalt(config, run));
    ASSERT_TRUE(configured.ok());
    for (int round = 0; round <= 5; ++round) net.BeginRound();
    EXPECT_EQ(net.tree_epoch(), 2);  // repaired at the crash and recovery
    const SpanningTree held = RelabelTree(net.tree(), net.labels());
    EXPECT_EQ(held.parent, configured.value().parent);
    EXPECT_EQ(held.children, configured.value().children);
    EXPECT_EQ(held.pre_order, configured.value().pre_order);
    EXPECT_EQ(held.post_order, configured.value().post_order);
  }
}

// --- fault_plan.h (policy-level glue) -------------------------------------

TEST(FaultPlanTest, UplinkAdvancesTheSharedClock) {
  FaultConfig config;
  config.loss = 0.3;
  config.arq.enabled = true;
  FaultPlan plan(config, /*seed=*/3, /*run=*/0, /*num_vertices=*/4,
                 /*root=*/0, ParentSelection::kNearest, /*tree_salt=*/0);
  EXPECT_FALSE(plan.reliable());
  const int64_t before = plan.clock();
  const TransportPolicy::UplinkOutcome o = plan.Uplink(2, 1);
  EXPECT_GT(plan.clock(), before);
  EXPECT_GE(o.data_frames, 1);
  EXPECT_LE(o.data_frames, config.arq.max_retx + 1);
}

TEST(FaultPlanTest, CrashWindowTogglesIsDown) {
  FaultConfig config;
  config.crash_nodes = 2;
  config.crash_round = 1;
  config.crash_len = 2;
  config.repair = false;
  FaultPlan plan(config, 5, 0, /*num_vertices=*/8, /*root=*/0,
                 ParentSelection::kNearest, /*tree_salt=*/0);
  Network net = MakeLineNetwork(8, 0);
  std::vector<int> down_at_round;
  for (int64_t round = 0; round < 5; ++round) {
    plan.OnRoundStart(round, &net);
    int down = 0;
    for (int v = 0; v < 8; ++v) down += plan.IsDown(v);
    down_at_round.push_back(down);
  }
  EXPECT_EQ(down_at_round, (std::vector<int>{0, 2, 2, 0, 0}));
}

// --- fault_key.h statistical contracts -------------------------------------

// Two FaultStream salts must yield independent streams: over many keys the
// verdicts of Bernoulli(1/2) draws under different salts agree about half
// the time. Perfect correlation (or anti-correlation) would mean uplink and
// ack losses fire together, which the ARQ analysis assumes they do not.
TEST(FaultKeyTest, StreamsWithDifferentSaltsAreIndependent) {
  const FaultStream streams[] = {
      FaultStream::kUplinkData, FaultStream::kDownlinkAck,
      FaultStream::kGilbertStep, FaultStream::kChurn};
  const int kDraws = 20000;
  for (size_t a = 0; a < std::size(streams); ++a) {
    for (size_t b = a + 1; b < std::size(streams); ++b) {
      int agree = 0;
      for (int i = 0; i < kDraws; ++i) {
        FaultKey key;
        key.seed = 11;
        key.round = i;
        key.src = i % 7;
        key.dst = (i / 7) % 7;
        key.salt = streams[a];
        const bool va = FaultBernoulli(key, 0.5);
        key.salt = streams[b];
        const bool vb = FaultBernoulli(key, 0.5);
        agree += (va == vb) ? 1 : 0;
      }
      // Binomial(20000, 1/2): +-5 sigma is about +-354.
      EXPECT_NEAR(agree, kDraws / 2, 400)
          << "salts " << static_cast<uint32_t>(streams[a]) << " and "
          << static_cast<uint32_t>(streams[b]);
    }
  }
}

// Avalanche quality: flipping any single bit of any key field must flip
// every output bit with probability ~1/2. Chi-square over the 64 output
// bit positions, aggregated across many (key, flipped-bit) pairs: each
// position's flip count is Binomial(trials, 1/2), so the normalized
// deviation sum is ~chi^2 with 64 degrees of freedom (mean 64, and
// P[> 120] is below 1e-5 — deterministic keys, so no flake).
TEST(FaultKeyTest, SingleBitFlipsAvalancheAcrossAllOutputBits) {
  struct FieldCase {
    const char* name;
    int bits;  ///< low bits of the field worth flipping
  };
  const FieldCase kFields[] = {
      {"seed", 32}, {"run", 16}, {"round", 16}, {"src", 8}, {"dst", 8},
      {"nonce", 16}};

  for (const FieldCase& field : kFields) {
    int64_t flips[64] = {0};
    int64_t trials = 0;
    for (int base = 0; base < 64; ++base) {
      FaultKey key;
      key.seed = 1000 + static_cast<uint64_t>(base);
      key.run = base;
      key.round = 31 * base;
      key.src = base % 9;
      key.dst = (base + 3) % 9;
      const uint64_t h0 = FaultBits(key);
      for (int bit = 0; bit < field.bits; ++bit) {
        FaultKey flipped = key;
        const uint64_t mask = 1ULL << bit;
        if (field.name[0] == 's' && field.name[1] == 'e') {
          flipped.seed ^= mask;
        } else if (field.name[0] == 'r' && field.name[1] == 'u') {
          flipped.run ^= static_cast<int64_t>(mask);
        } else if (field.name[0] == 'r') {
          flipped.round ^= static_cast<int64_t>(mask);
        } else if (field.name[0] == 's') {
          flipped.src ^= static_cast<int32_t>(mask);
        } else if (field.name[0] == 'd') {
          flipped.dst ^= static_cast<int32_t>(mask);
        } else {
          flipped.nonce ^= mask;
        }
        uint64_t diff = h0 ^ FaultBits(flipped);
        ++trials;
        for (int out = 0; out < 64; ++out) {
          flips[out] += (diff >> out) & 1u;
        }
      }
    }
    const double expected = static_cast<double>(trials) / 2.0;
    double chi2 = 0.0;
    for (int out = 0; out < 64; ++out) {
      const double d = static_cast<double>(flips[out]) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 120.0) << "weak avalanche in field " << field.name;
    EXPECT_GT(chi2, 20.0) << "suspiciously uniform field " << field.name;
  }
}

// --- scripted_oracle.h -----------------------------------------------------

TEST(ScriptedOracleTest, DropsExactlyTheScheduledOrdinals) {
  ScriptedFaultOracle oracle({1, 3});
  // Ordinals count uplink data frames only; acks (downlink) are free.
  EXPECT_FALSE(oracle.FrameLost(1, 0, 10, /*downlink=*/false));  // ordinal 0
  EXPECT_FALSE(oracle.FrameLost(1, 0, 11, /*downlink=*/true));   // ack
  EXPECT_TRUE(oracle.FrameLost(2, 0, 12, /*downlink=*/false));   // ordinal 1
  EXPECT_FALSE(oracle.FrameLost(2, 0, 13, /*downlink=*/false));  // ordinal 2
  EXPECT_TRUE(oracle.FrameLost(3, 0, 14, /*downlink=*/false));   // ordinal 3
  EXPECT_EQ(oracle.frames_sent(), 4);
  EXPECT_EQ(oracle.applied_drops(), 2);
  EXPECT_EQ(oracle.trace().size(), 4u);
}

TEST(ScriptedOracleTest, ResetReplaysTheSameVerdictsAndHash) {
  ScriptedFaultOracle oracle({0, 2});
  std::vector<bool> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(oracle.FrameLost(1, 0, i, false));
  }
  const uint64_t hash = oracle.trace_hash();
  oracle.Reset();
  EXPECT_EQ(oracle.frames_sent(), 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(oracle.FrameLost(1, 0, i, false), first[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(oracle.trace_hash(), hash);
}

TEST(ScriptedOracleTest, UnsortedScheduleIsCanonicalized) {
  ScriptedFaultOracle oracle({3, 1, 3});
  EXPECT_EQ(oracle.drops(), (std::vector<int64_t>{1, 3}));
}

// --- fault_cli.h -----------------------------------------------------------

FaultFlagPresence NoFlags() { return FaultFlagPresence{}; }

TEST(ValidateFaultFlagsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateFaultFlags(FaultConfig{}, NoFlags()).ok());
}

TEST(ValidateFaultFlagsTest, CrashKnobsRequireCrashNodes) {
  FaultConfig config;
  FaultFlagPresence present = NoFlags();
  present.crash_round = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());
  present = NoFlags();
  present.crash_len = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());
  present = NoFlags();
  present.no_repair = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());

  // With --crash-nodes they are all fine.
  config.crash_nodes = 2;
  present.crash_round = true;
  present.crash_len = true;
  present.crash_nodes = true;
  EXPECT_TRUE(ValidateFaultFlags(config, present).ok());
}

TEST(ValidateFaultFlagsTest, BurstLenRequiresGilbertElliott) {
  FaultConfig config;
  config.loss = 0.1;
  FaultFlagPresence present = NoFlags();
  present.loss = true;
  present.burst_len = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());

  config.loss_model = LossModel::kGilbertElliott;
  present.loss_model = true;
  EXPECT_TRUE(ValidateFaultFlags(config, present).ok());
}

TEST(ValidateFaultFlagsTest, InfeasibleGilbertElliottCalibrationIsAnError) {
  FaultConfig config;
  config.loss_model = LossModel::kGilbertElliott;
  config.loss = 0.9;
  config.burst_len = 2.0;  // needs burst_len >= 0.9 / 0.1 = 9
  FaultFlagPresence present = NoFlags();
  present.loss = true;
  present.loss_model = true;
  present.burst_len = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());

  config.burst_len = 10.0;  // comfortably above the 0.9 / 0.1 = 9 floor
  EXPECT_TRUE(ValidateFaultFlags(config, present).ok());
}

TEST(ValidateFaultFlagsTest, RangeErrorsAreRejected) {
  FaultConfig config;
  config.loss = 1.5;
  EXPECT_FALSE(ValidateFaultFlags(config, NoFlags()).ok());

  config = FaultConfig{};
  config.crash_nodes = -1;
  EXPECT_FALSE(ValidateFaultFlags(config, NoFlags()).ok());

  config = FaultConfig{};
  config.crash_nodes = 1;
  config.crash_len = -2;
  FaultFlagPresence present = NoFlags();
  present.crash_nodes = true;
  present.crash_len = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());
}

TEST(ValidateFaultFlagsTest, MaxRetxRequiresArq) {
  FaultConfig config;
  FaultFlagPresence present = NoFlags();
  present.max_retx = true;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());

  config.arq.enabled = true;
  present.arq = true;
  EXPECT_TRUE(ValidateFaultFlags(config, present).ok());

  config.arq.max_retx = -1;
  EXPECT_FALSE(ValidateFaultFlags(config, present).ok());
}

TEST(FaultPlanTest, RepairBumpsTheTreeEpochAndResetRestoresIt) {
  // Line network, crash an interior vertex: its child must re-attach (to a
  // detached state here, since a line has no alternative path — the epoch
  // bump is what matters) and ResetAccounting must restore epoch 0.
  Network net = MakeLineNetwork(6, 0);
  FaultConfig config;
  config.crash_nodes = 1;
  config.crash_round = 1;
  config.crash_len = 1;
  net.set_transport_policy(std::make_unique<FaultPlan>(
      config, /*seed=*/2, /*run=*/0, net.num_vertices(), net.root(),
      ParentSelection::kNearest, /*tree_salt=*/0));
  EXPECT_EQ(net.tree_epoch(), 0);
  net.BeginRound();  // round 0: everyone up
  EXPECT_EQ(net.tree_epoch(), 0);
  net.BeginRound();  // round 1: crash transition -> repair
  EXPECT_EQ(net.tree_epoch(), 1);
  net.BeginRound();  // round 2: recovery transition -> repair back
  EXPECT_EQ(net.tree_epoch(), 2);
  net.ResetAccounting();
  EXPECT_EQ(net.tree_epoch(), 0);
}

}  // namespace
}  // namespace wsnq
