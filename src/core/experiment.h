// Multi-run experiments (§5.1.7: "Given a set of input variables, we
// performed 20 simulation runs with 250 rounds each"): each run draws a
// fresh topology (synthetic) or root (pressure); every compared algorithm
// replays the identical scenario; aggregates are means over runs.

#ifndef WSNQ_CORE_EXPERIMENT_H_
#define WSNQ_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/metrics_registry.h"
#include "util/stats.h"
#include "util/status.h"

namespace wsnq {

struct Scenario;
class ScenarioCache;

/// One run's body under ForEachRun: `run` indexes the run, and `scenario`
/// is that run's own (its Network included), so the task may mutate it.
/// Tasks of different runs execute concurrently: a task writes only to
/// slots indexed by `run` and leaves folding to the caller.
using RunTask = std::function<Status(int run, Scenario& scenario)>;

/// The run driver every multi-run experiment goes through (§5.1.7: N runs
/// per configuration, every compared protocol over the identical
/// scenario). For runs [0, runs) it builds run `run`'s scenario through
/// `cache` (nullable: built from scratch), installs the run's wave executor
/// under config.subtree_parallel and the run's trace buffer, and calls
/// `task(run, scenario)`.
///
/// Runs fan out over a deterministic thread pool (util/thread_pool.h) of
/// min(threads, runs) workers, where threads is ResolveThreads(
/// config.threads); each run's waves get the threads the run fan-out
/// leaves over. After every task has returned, the run trace buffers are
/// folded into trace::GlobalSink() in run order, so the serialized trace
/// is bit-identical for every thread count. Returns the smallest failing
/// run's Status (a failed scenario build or task), folding no trace then.
Status ForEachRun(const SimulationConfig& config, int runs,
                  ScenarioCache* cache, const RunTask& task);

/// Cross-run aggregate of one algorithm under one configuration.
struct AlgorithmAggregate {
  std::string label;
  RunningStat max_round_energy_mj;  ///< per-run means of the hotspot draw
  RunningStat lifetime_rounds;
  RunningStat packets;
  RunningStat values;
  RunningStat refinements;
  /// Per-run mean rank errors (non-zero only under message loss).
  RunningStat rank_error;
  int64_t max_rank_error = 0;
  int64_t errors = 0;
  int runs = 0;
  /// Folded per-run registries (config.collect_metrics; empty otherwise).
  MetricsRegistry metrics;
};

/// A labeled protocol constructor; lets ablation benches run protocols with
/// non-default options through the same experiment machinery.
struct ProtocolFactory {
  std::string label;
  std::function<std::unique_ptr<QuantileProtocol>(
      int64_t k, int64_t range_min, int64_t range_max, const WireFormat&)>
      make;
};

/// Registry-default factory for `kind`.
ProtocolFactory DefaultFactory(AlgorithmKind kind);

/// DefaultFactory of each of `algorithms`, in order.
std::vector<ProtocolFactory> DefaultFactories(
    const std::vector<AlgorithmKind>& algorithms);

/// Runs `runs` scenarios under `config`, replaying every factory's protocol
/// over each; returns one aggregate per factory (in input order). Fails
/// only if scenario construction fails.
///
/// The runs go through ForEachRun. Each run re-derives its random streams
/// from (config.seed, run) and its per-run results are folded into the
/// aggregates on the calling thread in run-index order, so the returned
/// aggregates are bit-identical to the serial path for every thread count
/// (tests/parallel_determinism_test.cc holds this to exact equality).
///
/// Scenarios build through a ScenarioCache, which builds every immutable
/// artifact (radio graphs, value sources, tree templates) once, on first
/// use, and shares it read-only across runs (core/scenario_cache.h);
/// results are bit-identical to building each run's scenario from
/// scratch.
StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<ProtocolFactory>& factories, int runs);

/// Convenience overload over registry algorithms.
StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<AlgorithmKind>& algorithms, int runs);

/// One sweep point: an x-axis value (report label) plus its configuration.
struct SweepPoint {
  std::string x_value;
  SimulationConfig config;
};

/// Aggregates of one sweep point, in factory order.
struct SweepPointResult {
  std::string x_value;
  std::vector<AlgorithmAggregate> aggregates;
};

/// Batched sweep: runs every point like RunExperiment would, but its runs
/// build through a single ScenarioCache kept across all points (evicted,
/// between points, of what no point ahead can hit), so immutable artifacts
/// are reused wherever the topology-determining config slice is invariant
/// (fig7 varies only the period and fig8 only the noise — every point
/// reuses the first point's deployments; fig10 rebuilds the trace per skip
/// value but shares it across that point's runs). Results are identical to
/// per-point RunExperiment calls — the cache only changes wall-clock.
/// Stops at the first failing point and returns its Status, prefixed with
/// the point's x-value.
StatusOr<std::vector<SweepPointResult>> RunSweep(
    const std::vector<SweepPoint>& points,
    const std::vector<ProtocolFactory>& factories, int runs);

/// Resolves a SimulationConfig::threads request to a concrete thread
/// count: positive values pass through; 0 becomes the WSNQ_THREADS env
/// override or hardware_concurrency.
int ResolveThreads(int requested);

/// Environment override helpers for benches: WSNQ_RUNS / WSNQ_ROUNDS
/// (util/env.h).
int RunsFromEnv(int fallback);
int RoundsFromEnv(int fallback);

}  // namespace wsnq

#endif  // WSNQ_CORE_EXPERIMENT_H_
