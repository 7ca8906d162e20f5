#include "mc/runner.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/oracle.h"
#include "algo/protocol.h"
#include "fault/fault_key.h"
#include "fault/fault_plan.h"
#include "fault/scripted_oracle.h"
#include "net/network.h"
#include "util/check.h"

namespace wsnq {
namespace {

uint64_t FoldHash(uint64_t h, uint64_t v) { return FaultMix(h ^ v); }

int64_t RecoverRound(const McCrashSpec& crash) {
  return crash.crash_len <= 0 ? std::numeric_limits<int64_t>::max()
                              : crash.crash_round + crash.crash_len;
}

bool IsAlive(const McCrashSpec& crash, int v, int64_t round) {
  if (crash.none() || v != crash.victim) return true;
  return round < crash.crash_round || round >= RecoverRound(crash);
}

/// Routing-tree validity over the live subgraph (the tree-validity
/// invariant): the root is attached at depth 0; every dead vertex is
/// detached; every attached vertex is alive, hangs off a live attached
/// radio neighbor exactly one level up; children lists mirror the parent
/// array; traversal orders cover exactly the attached vertices. Returns an
/// empty string on success, else the first defect found.
std::string CheckTreeValidity(const Network& net,
                              const std::vector<char>& alive) {
  const SpanningTree& tree = net.tree();
  const RadioGraph& graph = net.graph();
  const int n = net.num_vertices();
  const int root = net.root();
  if (tree.parent[static_cast<size_t>(root)] != -1) {
    return "root has a parent";
  }
  if (tree.depth[static_cast<size_t>(root)] != 0) {
    return "root depth != 0";
  }
  int attached = 1;  // the root
  for (int v = 0; v < n; ++v) {
    if (v == root) continue;
    const int p = tree.parent[static_cast<size_t>(v)];
    if (alive[static_cast<size_t>(v)] == 0) {
      if (p != -1) {
        return "dead vertex " + std::to_string(v) + " still has parent " +
               std::to_string(p);
      }
      continue;
    }
    if (p < 0) continue;  // detached live vertex: legal when cut off
    ++attached;
    if (alive[static_cast<size_t>(p)] == 0) {
      return "vertex " + std::to_string(v) + " parented to dead " +
             std::to_string(p);
    }
    if (p != root && tree.parent[static_cast<size_t>(p)] < 0) {
      return "vertex " + std::to_string(v) + " parented to detached " +
             std::to_string(p);
    }
    if (tree.depth[static_cast<size_t>(v)] !=
        tree.depth[static_cast<size_t>(p)] + 1) {
      return "vertex " + std::to_string(v) + " depth " +
             std::to_string(tree.depth[static_cast<size_t>(v)]) +
             " != parent depth + 1";
    }
    bool adjacent = false;
    for (int u : graph.neighbors(v)) {
      if (u == p) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) {
      return "vertex " + std::to_string(v) + " parented to non-neighbor " +
             std::to_string(p);
    }
    bool listed = false;
    for (int child : tree.children[static_cast<size_t>(p)]) {
      if (child == v) {
        listed = true;
        break;
      }
    }
    if (!listed) {
      return "vertex " + std::to_string(v) + " missing from children of " +
             std::to_string(p);
    }
  }
  if (static_cast<int>(tree.pre_order.size()) != attached ||
      static_cast<int>(tree.post_order.size()) != attached) {
    return "traversal orders cover " +
           std::to_string(tree.pre_order.size()) + "/" +
           std::to_string(tree.post_order.size()) + " vertices, expected " +
           std::to_string(attached);
  }
  return "";
}

}  // namespace

SimulationConfig McSimulationConfig(const McOptions& options) {
  SimulationConfig config;
  WSNQ_CHECK_GE(options.nodes, 2);
  config.num_sensors = options.nodes - 1;  // vertices = sensors + root
  config.radio_range = options.radio_range;
  // config.rounds counts update rounds after round 0; the model checker's
  // options.rounds is the total executed per schedule.
  config.rounds = options.rounds - 1;
  config.phi = options.phi;
  config.seed = options.seed;
  config.synthetic.period_rounds = options.period_rounds;
  config.synthetic.noise_percent = options.noise_percent;
  config.threads = 1;
  // Fault injection stays off so BuildScenario installs no policy; the
  // runner installs the scripted plan itself, schedule by schedule.
  return config;
}

StatusOr<McContext> BuildMcContext(const McOptions& options) {
  McContext context;
  context.config = McSimulationConfig(options);
  StatusOr<Scenario> scenario = BuildScenario(context.config, /*run=*/0);
  if (!scenario.ok()) return scenario.status();
  context.scenario = std::move(scenario).value();
  context.scenario.MaterializeValues(options.rounds);
  return context;
}

ScheduleResult RunSchedule(McContext* context, const McOptions& options,
                           AlgorithmKind algo,
                           const FaultSchedule& schedule) {
  Network* net = context->scenario.network.get();
  // Restore the pristine tree (under the previous schedule's policy, if
  // any) BEFORE installing the new plan: set_transport_policy snapshots
  // the current tree as the pristine baseline.
  net->ResetAccounting();

  FaultConfig fault;
  fault.arq.enabled = options.arq;
  fault.arq.max_retx = options.max_retx;
  fault.repair = true;
  std::vector<int> victims;
  if (!schedule.crash.none()) {
    victims.push_back(schedule.crash.victim);
    fault.crash_nodes = 1;
    fault.crash_round = schedule.crash.crash_round;
    fault.crash_len = schedule.crash.crash_len;
  }
  auto scripted = std::make_unique<ScriptedFaultOracle>(schedule.drops);
  ScriptedFaultOracle* oracle = scripted.get();
  net->set_transport_policy(std::make_unique<FaultPlan>(
      fault, options.seed, /*run=*/0, net->num_vertices(), net->root(),
      context->config.tree_strategy, RoutingTreeSalt(context->config, 0),
      std::move(scripted), victims));

  const Scenario& scenario = context->scenario;
  auto protocol =
      MakeProtocol(algo, scenario.k, scenario.source->range_min(),
                   scenario.source->range_max(), context->config.wire);
  const int64_t num_sensors = net->num_sensors();

  ScheduleResult result;
  auto record_violation = [&](const std::string& invariant, int64_t round,
                              const std::string& detail) {
    if (result.violated) return;  // keep the first
    result.violated = true;
    result.violation.invariant = invariant;
    result.violation.algo = algo;
    result.violation.schedule = schedule;
    result.violation.round = round;
    result.violation.detail = detail;
  };

  std::vector<char> alive(static_cast<size_t>(net->num_vertices()), 1);
  int64_t expected_epoch = 0;
  uint64_t fingerprint = FoldHash(0x6d63u /* "mc" */, options.seed);

  for (int64_t round = 0; round < options.rounds; ++round) {
    net->BeginRound();  // transport hook: churn diff + tree repair

    for (int v = 0; v < net->num_vertices(); ++v) {
      alive[static_cast<size_t>(v)] =
          IsAlive(schedule.crash, v, round) ? 1 : 0;
    }
    // epoch-reinit: every liveness transition moves at least the victim's
    // parent (crash detaches it, recovery re-attaches it), so repair
    // adopts exactly one tree per transition — the epoch is the
    // transition count.
    if (!schedule.crash.none() && (round == schedule.crash.crash_round ||
                                   round == RecoverRound(schedule.crash))) {
      ++expected_epoch;
    }
    if (net->tree_epoch() != expected_epoch) {
      record_violation(
          "epoch-reinit", round,
          "tree epoch " + std::to_string(net->tree_epoch()) +
              " != transitions so far " + std::to_string(expected_epoch));
    }
    const std::string tree_defect = CheckTreeValidity(*net, alive);
    if (!tree_defect.empty()) {
      record_violation("tree-validity", round, tree_defect);
    }

    const std::vector<int64_t>& values = scenario.ValuesView(round);
    protocol->RunRound(net, values, round);

    // A sensor is missing from the root's view when it is crashed or
    // detached (no live path to the root); everything else delivers under
    // ARQ with a scripted (ack-loss-free) oracle.
    int64_t missing = 0;
    for (int v = 0; v < net->num_vertices(); ++v) {
      if (net->is_root(v)) continue;
      if (alive[static_cast<size_t>(v)] == 0 ||
          net->tree().parent[static_cast<size_t>(v)] < 0) {
        ++missing;
      }
    }

    const std::vector<int64_t> sensors = SensorValues(*net, values);
    const int64_t answer = protocol->quantile();
    const int64_t truth = OracleKth(sensors, scenario.k);
    const int64_t rank_error =
        OracleRankError(sensors, answer, scenario.k);
    const RootCounts counts = protocol->root_counts();
    const int64_t count_sum = counts.l + counts.e + counts.g;

    if (options.arq && missing == 0) {
      if (answer != truth || rank_error != 0) {
        record_violation(
            "arq-exactness", round,
            "answer " + std::to_string(answer) + " != oracle " +
                std::to_string(truth) + " (rank error " +
                std::to_string(rank_error) + ") with no sensor missing");
      }
      if (count_sum != num_sensors) {
        record_violation("count-conservation", round,
                         "l+e+g = " + std::to_string(count_sum) +
                             " != |N| = " + std::to_string(num_sensors) +
                             " with no sensor missing");
      }
    }
    if (options.arq && missing > 0 && missing < num_sensors &&
        rank_error > missing) {
      // The answer is exact over the visible multiset, and a value's rank
      // over visible-plus-missing shifts by at most |missing|.
      record_violation("rank-bound", round,
                       "rank error " + std::to_string(rank_error) + " > " +
                           std::to_string(missing) + " missing sensors");
    }
    if (counts.l < 0 || counts.e < 0 || counts.g < 0 ||
        count_sum > num_sensors) {
      record_violation("count-conservation", round,
                       "l/e/g = " + std::to_string(counts.l) + "/" +
                           std::to_string(counts.e) + "/" +
                           std::to_string(counts.g) + " outside [0, |N|]");
    }

    fingerprint = FoldHash(fingerprint, static_cast<uint64_t>(round));
    fingerprint = FoldHash(fingerprint, static_cast<uint64_t>(answer));
    fingerprint = FoldHash(fingerprint, static_cast<uint64_t>(rank_error));
    fingerprint =
        FoldHash(fingerprint, static_cast<uint64_t>(net->round_packets()));
    fingerprint =
        FoldHash(fingerprint, static_cast<uint64_t>(net->tree_epoch()));
    fingerprint = FoldHash(fingerprint, static_cast<uint64_t>(missing));
  }

  result.frames_sent = oracle->frames_sent();
  result.applied_drops = oracle->applied_drops();
  result.fingerprint = FoldHash(fingerprint, oracle->trace_hash());
  return result;
}

}  // namespace wsnq
