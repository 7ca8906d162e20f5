#include "core/experiment.h"

#include <algorithm>
#include <optional>
#include <span>

#include "net/wave.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "core/simulation.h"
#include "util/check.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace wsnq {

ProtocolFactory DefaultFactory(AlgorithmKind kind) {
  return ProtocolFactory{
      AlgorithmName(kind),
      [kind](int64_t k, int64_t range_min, int64_t range_max,
             const WireFormat& wire) {
        return MakeProtocol(kind, k, range_min, range_max, wire);
      }};
}

namespace {

/// Folds one run's simulation result into an aggregate. Must be called in
/// run-index order on a single thread: RunningStat accumulation is
/// order-sensitive in floating point, and the bit-identical guarantee of
/// the parallel path rests on this fold replaying the exact Add sequence
/// of the serial path. The metrics registry merge obeys the same rule
/// (its gauges are floating-point sums). The discipline is the FoldPhase()
/// capability: callers enter it with a ScopedSerialPhase, so a FoldRun
/// from inside a pool task is a -Wthread-safety compile error.
void FoldRun(const SimulationResult& result, AlgorithmAggregate* agg)
    WSNQ_REQUIRES(FoldPhase()) {
  agg->max_round_energy_mj.Add(result.mean_max_round_energy_mj);
  agg->lifetime_rounds.Add(result.lifetime_rounds);
  agg->packets.Add(result.mean_packets);
  agg->values.Add(result.mean_values);
  agg->refinements.Add(result.mean_refinements);
  agg->rank_error.Add(result.mean_rank_error);
  agg->max_rank_error = std::max(agg->max_rank_error, result.max_rank_error);
  agg->errors += result.errors;
  ++agg->runs;
  if (!result.metrics.empty()) agg->metrics.Merge(result.metrics);
}

/// Builds run `run`'s scenario and replays every factory's protocol over
/// it, writing one result per factory into `results` (pre-sized). The
/// factories of one run share the scenario's Network, so they execute
/// serially inside the run's task; parallelism is across runs only.
/// `buffer` (may be nullptr) collects the run's trace events; it is
/// installed for the whole run so every protocol replay traces into the
/// same per-run logical clock.
Status ExecuteRun(const SimulationConfig& config,
                  const std::vector<ProtocolFactory>& factories, int run,
                  std::vector<SimulationResult>* results,
                  trace::TraceBuffer* buffer, ScenarioCache* cache,
                  int wave_threads) {
  trace::RunScope trace_scope(buffer);
  // Declared before the scenario so the Network never outlives the
  // executor it borrows (it is installed below, not owned).
  std::optional<WaveExecutor> wave_executor;
  StatusOr<Scenario> scenario = [&] {
    // The cache is prepared, so this is assembly only (all artifact
    // lookups hit); the construction cost shows up under
    // experiment/prepare_cache instead.
    prof::ScopedTimer timer("experiment/build_scenario");
    return BuildScenario(config, run, cache);
  }();
  if (!scenario.ok()) return scenario.status();
  if (config.subtree_parallel) {
    // Each run gets its own wave pool so in-run subtree tasks never nest
    // into the run-level pool (which would deadlock its ParallelFor).
    // Oversplitting by 4x keeps the parts load-balanced; the partition
    // never changes a bit of output, only wall-clock.
    wave_executor.emplace(std::max(1, wave_threads),
                          /*target_parts=*/4 * std::max(1, wave_threads));
    scenario.value().network->set_wave_executor(&*wave_executor);
  }
  // Materialize the rounds × vertices value matrix once per run: every
  // factory's replay reads the identical rows instead of re-deriving them
  // per protocol (the values are integers, so this is bit-identical to the
  // lazy path).
  {
    prof::ScopedTimer timer("experiment/materialize_values");
    scenario.value().MaterializeValues(config.rounds + 1);
  }
  prof::ScopedTimer timer("experiment/run_protocols");
  for (size_t i = 0; i < factories.size(); ++i) {
    std::unique_ptr<QuantileProtocol> protocol = factories[i].make(
        scenario.value().k, scenario.value().source->range_min(),
        scenario.value().source->range_max(), config.wire);
    (*results)[i] = RunSimulation(scenario.value(), protocol.get(),
                                  config.rounds, /*keep_trail=*/false,
                                  config.collect_metrics);
  }
  return Status::Ok();
}

/// RunExperiment body: prepares `cache` for this point and runs it, so
/// RunSweep can share one cache across sweep points.
StatusOr<std::vector<AlgorithmAggregate>> RunExperimentImpl(
    const SimulationConfig& config,
    const std::vector<ProtocolFactory>& factories, int runs,
    ScenarioCache* cache) {
  WSNQ_CHECK_GE(runs, 1);
  std::vector<AlgorithmAggregate> aggregates(factories.size());
  for (size_t i = 0; i < factories.size(); ++i) {
    aggregates[i].label = factories[i].label;
  }

  // One trace buffer per run when a --trace sink is installed; buffers are
  // folded into the sink on this thread in run-index order (rebasing their
  // logical ticks), so the serialized trace is bit-identical for every
  // thread count — the same discipline as the aggregate fold below.
  trace::TraceSink* sink = trace::GlobalSink();
  std::vector<trace::TraceBuffer> buffers;
  if (sink != nullptr) {
    buffers.reserve(static_cast<size_t>(runs));
    for (int run = 0; run < runs; ++run) buffers.emplace_back(run);
  }
  const auto buffer_for = [&](int run) {
    return sink != nullptr ? &buffers[static_cast<size_t>(run)] : nullptr;
  };

  const int resolved = ResolveThreads(config.threads);
  const int threads = std::min<int>(resolved, runs);
  // Threads left over after the run-level fan-out go to in-run subtree
  // parallelism (e.g. 8 threads x 4 runs -> 2 wave threads per run). The
  // wave engine's ordered fold makes the split invisible in every
  // output bit, so this only reshapes where the wall-clock goes.
  const int wave_threads = std::max(1, resolved / std::max(1, threads));
  ThreadPool pool(threads);
  {
    // The cache builds this point's artifacts on the same pool, then seals;
    // after this every lookup is read-only. A failure is exactly the Status
    // the storeless BuildScenario(config, run) reports for the first
    // failing run.
    prof::ScopedTimer timer("experiment/prepare_cache");
    Status prepared = cache->Prepare(config, runs, &pool);
    if (!prepared.ok()) return prepared;
  }
  // Independent runs fan out over the deterministic pool (each run
  // re-derives its seeds from (config.seed, run), so no state is shared
  // between tasks — the cached artifacts they alias are sealed and const);
  // results land in index-addressed slots and are folded on this thread in
  // run order, hence bit-identical aggregates for any thread count. A
  // size-1 pool runs the tasks inline in index order. On failure
  // ParallelFor reports the smallest failing run index.
  std::vector<std::vector<SimulationResult>> results(
      static_cast<size_t>(runs),
      std::vector<SimulationResult>(factories.size()));
  Status status = pool.ParallelFor(runs, [&](int64_t run) {
    return ExecuteRun(config, factories, static_cast<int>(run),
                      &results[static_cast<size_t>(run)],
                      buffer_for(static_cast<int>(run)), cache, wave_threads);
  });
  if (!status.ok()) return status;
  prof::ScopedTimer timer("experiment/sweep_fold");
  // ParallelFor has returned: every run task is done (happens-before via
  // the pool's join), so this thread may enter the fold phase.
  ScopedSerialPhase fold_phase(FoldPhase());
  for (int run = 0; run < runs; ++run) {
    for (size_t i = 0; i < factories.size(); ++i) {
      FoldRun(results[static_cast<size_t>(run)][i], &aggregates[i]);
    }
    if (sink != nullptr) sink->Fold(buffers[static_cast<size_t>(run)]);
  }
  return aggregates;
}

}  // namespace

StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<ProtocolFactory>& factories, int runs) {
  ScenarioCache cache;
  return RunExperimentImpl(config, factories, runs, &cache);
}

StatusOr<std::vector<SweepPointResult>> RunSweep(
    const std::vector<SweepPoint>& points,
    const std::vector<ProtocolFactory>& factories, int runs) {
  ScenarioCache cache;  // one cache spanning every sweep point
  std::vector<SimulationConfig> configs;
  configs.reserve(points.size());
  for (const SweepPoint& point : points) configs.push_back(point.config);
  std::vector<SweepPointResult> results;
  results.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    // Earlier points' deployments that no point from here on can hit go,
    // so the sweep holds only what is still ahead of it.
    cache.Evict(std::span<const SimulationConfig>(configs).subspan(i), runs);
    StatusOr<std::vector<AlgorithmAggregate>> aggregates =
        RunExperimentImpl(point.config, factories, runs, &cache);
    if (!aggregates.ok()) {
      return Status(aggregates.status().code(),
                    "sweep point x=" + point.x_value + ": " +
                        aggregates.status().message());
    }
    results.push_back(
        SweepPointResult{point.x_value, std::move(aggregates).value()});
  }
  return results;
}

StatusOr<std::vector<AlgorithmAggregate>> RunExperiment(
    const SimulationConfig& config,
    const std::vector<AlgorithmKind>& algorithms, int runs) {
  std::vector<ProtocolFactory> factories;
  factories.reserve(algorithms.size());
  for (AlgorithmKind kind : algorithms) {
    factories.push_back(DefaultFactory(kind));
  }
  return RunExperiment(config, factories, runs);
}

int ResolveThreads(int requested) {
  return requested > 0 ? requested : ThreadPool::DefaultThreadCount();
}

int RunsFromEnv(int fallback) {
  return PositiveIntFromEnv("WSNQ_RUNS", fallback);
}
int RoundsFromEnv(int fallback) {
  return PositiveIntFromEnv("WSNQ_ROUNDS", fallback);
}

}  // namespace wsnq
