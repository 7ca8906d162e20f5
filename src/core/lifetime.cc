#include "core/lifetime.h"

#include <algorithm>
#include <memory>

#include "algo/oracle.h"
#include "core/scenario.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/check.h"

namespace wsnq {
namespace {

/// An epoch's network over the alive subgraph, plus the index mapping back
/// to the original deployment.
struct Epoch {
  std::unique_ptr<Network> network;
  /// original_of[v]: original vertex id of epoch vertex v.
  std::vector<int> original_of;
  int64_t k = 0;
};

/// Builds an epoch network over `alive` original vertices (root included).
/// Vertices not reachable from the root are removed from `alive` and
/// reported in `cut_off`. Fails when no sensor remains reachable.
StatusOr<Epoch> BuildEpoch(const Scenario& base, const SimulationConfig& config,
                           std::vector<char>* alive,
                           std::vector<int>* cut_off) {
  const RadioGraph& full = base.network->graph();
  const int root = base.network->root();
  WSNQ_CHECK((*alive)[static_cast<size_t>(root)]);

  const std::vector<int> depth = LiveHopDepths(full, root, alive);
  for (size_t v = 0; v < alive->size(); ++v) {
    if ((*alive)[v] && depth[v] < 0) {
      (*alive)[v] = 0;
      cut_off->push_back(static_cast<int>(v));
    }
  }

  Epoch epoch;
  std::vector<Point2D> points;
  int epoch_root = -1;
  for (size_t v = 0; v < alive->size(); ++v) {
    if (!(*alive)[v]) continue;
    if (static_cast<int>(v) == root) {
      epoch_root = static_cast<int>(points.size());
    }
    epoch.original_of.push_back(static_cast<int>(v));
    points.push_back(full.point(static_cast<int>(v)));
  }
  if (epoch.original_of.size() < 2) {
    return Status::FailedPrecondition("no reachable sensors remain");
  }
  RadioGraph graph(std::move(points), config.radio_range);
  StatusOr<SpanningTree> tree =
      BuildRoutingTree(graph, epoch_root, config.tree_strategy, config.seed);
  if (!tree.ok()) return tree.status();
  epoch.network = std::make_unique<Network>(
      std::move(graph), std::move(tree).value(), config.energy,
      config.packetizer);
  const int64_t sensors = epoch.network->num_sensors();
  epoch.k = std::clamp<int64_t>(
      static_cast<int64_t>(config.phi * static_cast<double>(sensors)), 1,
      sensors);
  return epoch;
}

}  // namespace

StatusOr<LifetimeResult> RunLifetimeSimulation(
    const SimulationConfig& config, AlgorithmKind kind, int run,
    const LifetimeOptions& options) {
  StatusOr<Scenario> base = BuildScenario(config, run);
  if (!base.ok()) return base.status();
  const int total_vertices = base.value().network->num_vertices();
  const int total_sensors = base.value().network->num_sensors();
  const int root = base.value().network->root();

  std::vector<char> alive(static_cast<size_t>(total_vertices), 1);
  std::vector<double> battery(static_cast<size_t>(total_vertices),
                              config.energy.initial_energy_mj);

  LifetimeResult result;
  int64_t round = 0;
  int gone = 0;
  const int stop_gone = static_cast<int>(
      (1.0 - options.stop_alive_fraction) * total_sensors);

  while (round < options.max_rounds && gone <= stop_gone) {
    std::vector<int> cut_off;
    StatusOr<Epoch> epoch_or =
        BuildEpoch(base.value(), config, &alive, &cut_off);
    for (int v : cut_off) {
      result.deaths.push_back({round, v, /*battery=*/false});
      ++gone;
    }
    if (!epoch_or.ok() || gone > stop_gone) break;
    Epoch& epoch = epoch_or.value();
    Network* net = epoch.network.get();

    auto protocol =
        MakeProtocol(kind, epoch.k, base.value().source->range_min(),
                     base.value().source->range_max(), config.wire);
    ++result.reinit_epochs;

    // Measurements of the epoch's vertices (by epoch index), refilled every
    // round. The sink carries no sensor and keeps its 0.
    std::vector<int64_t> values(epoch.original_of.size(), 0);
    // Run this epoch until somebody dies (round 0 of the protocol is its
    // re-initialization, charged like any other round).
    bool epoch_alive = true;
    for (int64_t epoch_round = 0; epoch_alive && round < options.max_rounds;
         ++epoch_round, ++round) {
      for (size_t v = 0; v < epoch.original_of.size(); ++v) {
        const int sensor = base.value().sensor_of_vertex[static_cast<size_t>(
            epoch.original_of[v])];
        if (sensor >= 0) values[v] = base.value().source->Value(sensor, round);
      }
      net->BeginRound();
      protocol->RunRound(net, values, epoch_round);
      ++result.total_rounds;
      if (OracleRankErrorOfRow(values, net->root(), protocol->quantile(),
                               epoch.k) == 0) {
        ++result.exact_rounds;
      }

      // Drain batteries; collect deaths.
      bool any_death = false;
      for (size_t v = 0; v < epoch.original_of.size(); ++v) {
        const int original = epoch.original_of[v];
        if (original == root) continue;  // the sink has wall power
        double& charge = battery[static_cast<size_t>(original)];
        charge -= net->round_energy(static_cast<int>(v));
        if (charge <= 0.0 && alive[static_cast<size_t>(original)]) {
          alive[static_cast<size_t>(original)] = 0;
          result.deaths.push_back({round, original, /*battery=*/true});
          ++gone;
          any_death = true;
        }
      }
      if (any_death) {
        if (result.first_death_round < 0) result.first_death_round = round;
        if (result.p10_death_round < 0 && gone * 10 >= total_sensors) {
          result.p10_death_round = round;
        }
        if (result.p25_death_round < 0 && gone * 4 >= total_sensors) {
          result.p25_death_round = round;
        }
        epoch_alive = false;  // rebuild over the survivors
      }
    }
  }
  result.end_round = round;
  return result;
}

}  // namespace wsnq
