#include "core/scenario.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/scenario_cache.h"
#include "data/pressure_trace.h"
#include "data/range_scaler.h"
#include "data/som.h"
#include "data/synthetic_trace.h"
#include "fault/fault_plan.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "net/wave.h"
#include "util/check.h"
#include "util/rng.h"

namespace wsnq {

void Scenario::FillRow(int64_t round, std::vector<int64_t>* row) const {
  row->assign(sensor_of_vertex.size(), 0);
  for (size_t v = 0; v < sensor_of_vertex.size(); ++v) {
    if (sensor_of_vertex[v] >= 0) {
      (*row)[v] = source->Value(sensor_of_vertex[v], round);
    }
  }
}

std::vector<int64_t> Scenario::ValuesByVertex(int64_t round) const {
  if (round >= 0 && round < materialized_rounds()) {
    return value_rows_[static_cast<size_t>(round)];
  }
  std::vector<int64_t> values;
  FillRow(round, &values);
  return values;
}

void Scenario::MaterializeValues(int64_t rounds) {
  value_rows_.resize(static_cast<size_t>(rounds));
  WaveExecutor* executor = network->wave_executor();
  if (executor == nullptr) {
    for (int64_t round = 0; round < rounds; ++round) {
      FillRow(round, &value_rows_[static_cast<size_t>(round)]);
    }
    return;
  }
  // Each row is independent integer work into its own slot.
  const Status status = executor->pool()->ParallelFor(rounds, [&](int64_t r) {
    FillRow(r, &value_rows_[static_cast<size_t>(r)]);
    return Status::Ok();
  });
  WSNQ_CHECK(status.ok());
}

void Scenario::MaterializeSortedSensors() {
  sorted_sensor_rows_.resize(value_rows_.size());
  for (size_t round = 0; round < value_rows_.size(); ++round) {
    const std::vector<int64_t>& row = value_rows_[round];
    std::vector<int64_t>& sorted = sorted_sensor_rows_[round];
    sorted.clear();
    sorted.reserve(sensor_of_vertex.size());
    for (size_t v = 0; v < sensor_of_vertex.size(); ++v) {
      // The root is the only vertex without a sensor, so this multiset is
      // exactly SensorValues(net, row).
      if (sensor_of_vertex[v] >= 0) sorted.push_back(row[v]);
    }
    std::sort(sorted.begin(), sorted.end());
  }
}

const std::vector<int64_t>* Scenario::SortedSensorsView(int64_t round) const {
  if (round >= 0 &&
      round < static_cast<int64_t>(sorted_sensor_rows_.size())) {
    return &sorted_sensor_rows_[static_cast<size_t>(round)];
  }
  return nullptr;
}

const std::vector<int64_t>& Scenario::ValuesView(int64_t round) const {
  if (round >= 0 && round < materialized_rounds()) {
    return value_rows_[static_cast<size_t>(round)];
  }
  FillRow(round, &scratch_row_);
  return scratch_row_;
}

namespace {

/// A shareable artifact, or the Status of its failed build.
template <typename T>
using Artifact = StatusOr<std::shared_ptr<const T>>;

/// The artifact under `key` from `cache`, which calls `build` on the key's
/// first use; without a cache, `build`'s own result. Both paths execute the
/// identical construction code, so cached and uncached scenarios are
/// bit-identical by construction.
template <typename T, typename Build>
Artifact<T> GetOrBuild(ScenarioCache* cache, const std::string& key,
                       const Build& build) {
  if (cache == nullptr) return build();
  StatusOr<std::shared_ptr<const void>> artifact = cache->GetOrBuild(
      key, [&]() -> StatusOr<std::shared_ptr<const void>> {
        Artifact<T> built = build();
        if (!built.ok()) return built.status();
        return std::shared_ptr<const void>(std::move(built).value());
      });
  if (!artifact.ok()) return artifact.status();
  return std::static_pointer_cast<const T>(std::move(artifact).value());
}

/// Run `run`'s routing-tree template rooted at `root` over the deployment
/// `graph`, laid out in post order and shared under a key that extends
/// `deploy_key`.
Artifact<PostOrderLayout> RoutingTemplate(ScenarioCache* cache,
                                          const std::string& deploy_key,
                                          const RadioGraph& graph, int root,
                                          const SimulationConfig& config,
                                          int run) {
  const uint64_t salt = RoutingTreeSalt(config, run);
  const std::string key =
      internal::RoutingTreeKey(deploy_key, root, config.tree_strategy, salt);
  return GetOrBuild<PostOrderLayout>(
      cache, key, [&]() -> Artifact<PostOrderLayout> {
        StatusOr<SpanningTree> routing =
            BuildRoutingTree(graph, root, config.tree_strategy, salt);
        if (!routing.ok()) return routing.status();
        return std::make_shared<const PostOrderLayout>(routing.value());
      });
}

/// sensor_of_vertex of `net`: `sensor_of_label(label(v))` for every sensor
/// vertex v, -1 for the root.
template <typename SensorOfLabel>
std::vector<int> SensorsByVertex(const Network& net,
                                 const SensorOfLabel& sensor_of_label) {
  std::vector<int> sensors(static_cast<size_t>(net.num_vertices()), -1);
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (!net.is_root(v)) {
      sensors[static_cast<size_t>(v)] = sensor_of_label(net.label(v));
    }
  }
  return sensors;
}

StatusOr<Scenario> BuildSynthetic(const SimulationConfig& config, int run,
                                  ScenarioCache* cache) {
  // Deployment (placement + expanded root + radio graph): one Rng stream
  // draws the placement and then the root, so they form one cache unit.
  const auto build_deploy = [&]() -> Artifact<internal::SyntheticDeployment> {
    Rng rng(config.seed * 7919 + static_cast<uint64_t>(run) * 104729 + 13);
    // |N| sensors plus the root vertex.
    StatusOr<std::vector<Point2D>> placement = ConnectedPlacement(
        config.num_sensors + 1, config.area_width, config.area_height,
        config.radio_range, &rng);
    if (!placement.ok()) return placement.status();

    const int root = static_cast<int>(rng.UniformInt(0, config.num_sensors));
    // Multi-value nodes (§2): replicate each sensor position so every extra
    // measurement lives on an "artificial child node" colocated with (and
    // therefore radio-adjacent to) its physical host.
    WSNQ_CHECK_GE(config.values_per_node, 1);
    std::vector<Point2D> points;
    points.reserve(placement.value().size() *
                   static_cast<size_t>(config.values_per_node));
    int expanded_root = -1;
    for (size_t v = 0; v < placement.value().size(); ++v) {
      const int copies =
          static_cast<int>(v) == root ? 1 : config.values_per_node;
      for (int c = 0; c < copies; ++c) {
        if (static_cast<int>(v) == root) {
          expanded_root = static_cast<int>(points.size());
        }
        points.push_back(placement.value()[v]);
      }
    }
    WSNQ_CHECK_GE(expanded_root, 0);

    auto built = std::make_shared<internal::SyntheticDeployment>();
    built->root = expanded_root;
    // Sensor positions (normalized) feed the spatial correlation.
    built->normalized.reserve(points.size() - 1);
    for (size_t v = 0; v < points.size(); ++v) {
      if (static_cast<int>(v) == expanded_root) continue;
      built->normalized.push_back({points[v].x / config.area_width,
                                   points[v].y / config.area_height});
    }
    built->graph =
        std::make_shared<const RadioGraph>(std::move(points),
                                           config.radio_range);
    return std::shared_ptr<const internal::SyntheticDeployment>(
        std::move(built));
  };
  const std::string deploy_key = internal::SyntheticDeploymentKey(config, run);
  Artifact<internal::SyntheticDeployment> deployed =
      GetOrBuild<internal::SyntheticDeployment>(cache, deploy_key,
                                                build_deploy);
  if (!deployed.ok()) return deployed.status();
  const std::shared_ptr<const internal::SyntheticDeployment> deploy =
      std::move(deployed).value();

  Artifact<PostOrderLayout> tree = RoutingTemplate(
      cache, deploy_key, *deploy->graph, deploy->root, config, run);
  if (!tree.ok()) return tree.status();

  const auto build_trace = [&]() -> Artifact<SyntheticTrace> {
    SyntheticTrace::Options options = config.synthetic;
    options.seed = config.seed * 31 + static_cast<uint64_t>(run) + 1;
    return std::make_shared<const SyntheticTrace>(deploy->normalized, options);
  };
  // The trace build cannot fail.
  const std::shared_ptr<const SyntheticTrace> trace =
      GetOrBuild<SyntheticTrace>(cache,
                                 internal::SyntheticSourceKey(config, run),
                                 build_trace)
          .value();

  // Per-run assembly: the Network aliases the immutable radio graph and the
  // laid-out tree template (fault repair swaps in a tree of its own).
  Scenario scenario;
  scenario.network = std::make_unique<Network>(Network::InPostOrder(
      deploy->graph, std::move(tree).value(), config.energy,
      config.packetizer));
  // Sensors are numbered in placement order, skipping the root.
  scenario.sensor_of_vertex = SensorsByVertex(
      *scenario.network, [&](int label) {
        return label < deploy->root ? label : label - 1;
      });
  scenario.shared_sources.push_back(trace);
  scenario.source = trace.get();

  const int64_t n = scenario.network->num_sensors();
  scenario.k = std::clamp<int64_t>(
      static_cast<int64_t>(config.phi * static_cast<double>(n)), 1, n);
  return scenario;
}

StatusOr<Scenario> BuildPressure(const SimulationConfig& config, int run,
                                 ScenarioCache* cache) {
  // The trace (and its affine rescaling, which views it) is fixed across
  // runs (§5.1) — one cache unit, built once per seed, not per run.
  const auto build_workload = [&]() -> Artifact<internal::PressureWorkload> {
    PressureTrace::Options options = config.pressure;
    options.seed = config.seed;  // the trace is fixed across runs (§5.1)
    // Size the sample grid to this simulation, not the standalone default:
    // the generator's cost is linear in samples, and a 60-round bench has
    // no use for a 260-round grid. (+2: protocols peek one round ahead and
    // the init drill reads round 0 before the query clock starts.)
    options.rounds = config.rounds + 2;
    // Canonical cache shape: fold skip into the coverage stride and store
    // the trace at skip 0, so every skip point the coverage serves shares
    // one artifact (and one SOM placement). The per-config stride is
    // applied by a StridedValueSource view at assembly time below — for a
    // lone skip point (max_skip = 0) the sample grid, and therefore every
    // value, is bit-identical to a trace built directly at that skip.
    options.max_skip = std::max(options.skip, options.max_skip);
    options.skip = 0;
    auto built = std::make_shared<internal::PressureWorkload>();
    built->trace = std::make_shared<const PressureTrace>(options);
    built->scaled = std::make_shared<const ScaledValueSource>(
        built->trace.get(), config.pressure_scale_bits);
    return std::shared_ptr<const internal::PressureWorkload>(
        std::move(built));
  };
  // The workload build cannot fail.
  const std::shared_ptr<const internal::PressureWorkload> workload =
      GetOrBuild<internal::PressureWorkload>(
          cache, internal::PressureWorkloadKey(config), build_workload)
          .value();

  // SOM placement from the first measurements (§5.1.3) — also fixed across
  // runs, so the radio graph is one shared artifact.
  const auto build_graph = [&]() -> Artifact<RadioGraph> {
    const std::vector<double> features =
        workload->trace->FirstMeasurements();
    SelfOrganizingMap::Options som_options;
    som_options.seed = config.seed * 131 + 7;
    SelfOrganizingMap som(features, som_options);
    const std::vector<Point2D> points =
        som.PlaceStations(features, config.area_width, config.area_height);
    auto built =
        std::make_shared<const RadioGraph>(points, config.radio_range);
    if (!built->IsConnected()) {
      return Status::FailedPrecondition(
          "SOM station placement is disconnected at this radio range");
    }
    return built;
  };
  const std::string deploy_key = internal::PressureDeploymentKey(config);
  Artifact<RadioGraph> placed =
      GetOrBuild<RadioGraph>(cache, deploy_key, build_graph);
  if (!placed.ok()) return placed.status();
  const std::shared_ptr<const RadioGraph> graph = std::move(placed).value();

  // Only the root changes between runs.
  Rng rng(config.seed * 524287 + static_cast<uint64_t>(run) * 8191 + 3);
  const int root = static_cast<int>(
      rng.UniformInt(0, static_cast<int64_t>(graph->size()) - 1));

  Artifact<PostOrderLayout> tree =
      RoutingTemplate(cache, deploy_key, *graph, root, config, run);
  if (!tree.ok()) return tree.status();

  Scenario scenario;
  scenario.network = std::make_unique<Network>(Network::InPostOrder(
      graph, std::move(tree).value(), config.energy, config.packetizer));
  // Station index = label.
  scenario.sensor_of_vertex =
      SensorsByVertex(*scenario.network, [](int label) { return label; });
  // The trace rides along so the scaler's raw back-pointer stays valid for
  // the scenario's whole lifetime, wherever the workload was built. The
  // cached trace is canonical (skip 0, see above); a strided view applies
  // this config's skip on top of the scaled source.
  scenario.shared_sources.push_back(workload->trace);
  scenario.shared_sources.push_back(workload->scaled);
  if (config.pressure.skip > 0) {
    auto strided = std::make_shared<const StridedValueSource>(
        workload->scaled.get(), config.pressure.skip);
    scenario.source = strided.get();
    scenario.shared_sources.push_back(std::move(strided));
  } else {
    scenario.source = workload->scaled.get();
  }

  const int64_t n = scenario.network->num_sensors();
  scenario.k = std::clamp<int64_t>(
      static_cast<int64_t>(config.phi * static_cast<double>(n)), 1, n);
  return scenario;
}

}  // namespace

uint64_t RoutingTreeSalt(const SimulationConfig& config, int run) {
  return config.seed * 53 + static_cast<uint64_t>(run);
}

StatusOr<Scenario> BuildScenario(const SimulationConfig& config, int run,
                                 ScenarioCache* cache) {
  WSNQ_CHECK_GE(config.num_sensors, 1);
  StatusOr<Scenario> scenario = Status::InvalidArgument("unknown dataset");
  switch (config.dataset) {
    case DatasetKind::kSynthetic:
      scenario = BuildSynthetic(config, run, cache);
      break;
    case DatasetKind::kPressure:
      scenario = BuildPressure(config, run, cache);
      break;
  }
  if (scenario.ok() && config.fault.enabled()) {
    // Counter-based fault injection: the plan derives every decision from
    // (config.seed, run, round/tick, src, dst), so no per-run reseeding
    // arithmetic is needed — and no shared stream can leak draw order
    // across runs (docs/hardening.md, "Concurrency & determinism").
    Network* network = scenario.value().network.get();
    network->set_transport_policy(std::make_unique<FaultPlan>(
        config.fault, config.seed, run, network->num_vertices(),
        network->label(network->root()), config.tree_strategy,
        RoutingTreeSalt(config, run)));
  }
  return scenario;
}

}  // namespace wsnq
