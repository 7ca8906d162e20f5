// Scenario construction cache: shares the immutable artifacts of scenario
// construction — radio graphs, value sources, spanning-tree templates —
// across runs and sweep points, instead of rebuilding the world for every
// run (the pressure trace + SOM placement are fixed across runs per §5.1,
// yet used to be regenerated per run; fig7/fig8-style sweeps vary only the
// workload, so every sweep point re-derived the identical deployment).
//
// Every artifact is addressed by a *content key*: a string spelling out the
// exact slice of SimulationConfig (plus run index where applicable) that
// determines the artifact, with doubles rendered as hexfloats so the key
// equality is bit-exact. The key grammar:
//
//   syn-deploy|seed|run|n|vpn|w|h|rho          expanded placement + root +
//                                              radio graph (one Rng stream
//                                              draws placement AND root, so
//                                              they are cached together)
//   <syn-deploy>|src|rmin|rmax|per|noise|amp   synthetic trace
//   pt|seed|st|rounds|skip|range|<physical…>   pressure trace key (shared
//                                              prefix of the two below)
//   <pt>|sb                                    pressure trace + scaler
//   <pt>|deploy|w|h|rho                        SOM placement radio graph
//   <deploy>|tree|root|strat|salt              routing-tree template, laid
//                                              out in post order
//
// Concurrency contract (docs/hardening.md, "Concurrency & determinism"):
// every artifact is a pure function of its key, so the cache builds each
// key once, on first use, from whichever thread asks first. One mutex
// guards the key -> entry table; the first caller of a key marks it in
// flight, builds outside the lock and stores the artifact (or the failing
// Status), and later callers of that key wait for it or read it. Run tasks
// therefore build their own scenarios inside the experiment's fan-out, and
// hits(), misses() and size() come out as a serial pass leaves them at any
// thread count. Everything stored is shared_ptr<const T> — runs alias the
// artifacts but cannot write through them; the wsnq-lint `const-cast`
// rule keeps that guarantee from eroding.
//
// Determinism: BuildScenario runs the identical construction code with and
// without a cache (core/scenario.h), so cached and uncached
// scenarios — and therefore aggregates, traces, and goldens — are
// bit-identical (tests/scenario_cache_test.cc).

#ifndef WSNQ_CORE_SCENARIO_CACHE_H_
#define WSNQ_CORE_SCENARIO_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/scenario.h"
#include "data/pressure_trace.h"
#include "data/range_scaler.h"
#include "net/geometry.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace wsnq {
namespace internal {

// --- Cached artifact types (built and consumed by core/scenario.cc) -------

/// The fixed-across-runs pressure workload: the trace plus its affine
/// rescaling. Cached as one unit because the scaler holds a raw pointer
/// into the trace — a Scenario that shares the scaler must keep *this*
/// trace alive, never a bit-identical rebuild.
struct PressureWorkload {
  std::shared_ptr<const PressureTrace> trace;
  std::shared_ptr<const ScaledValueSource> scaled;
};

/// A synthetic deployment: the multi-value-expanded radio graph, the
/// expanded root vertex (drawn from the same Rng stream as the placement,
/// hence cached with it), and the normalized sensor positions that seed
/// the trace's spatial correlation.
struct SyntheticDeployment {
  int root = 0;
  std::shared_ptr<const RadioGraph> graph;
  std::vector<Point2D> normalized;
};

// --- Content keys ---------------------------------------------------------

std::string SyntheticDeploymentKey(const SimulationConfig& config, int run);
std::string SyntheticSourceKey(const SimulationConfig& config, int run);
std::string PressureTraceKey(const SimulationConfig& config);
std::string PressureWorkloadKey(const SimulationConfig& config);
std::string PressureDeploymentKey(const SimulationConfig& config);
std::string RoutingTreeKey(const std::string& deployment_key, int root,
                           ParentSelection strategy, uint64_t salt);

}  // namespace internal

/// Immutable-artifact cache for scenario construction. Typical lifecycle:
///
///   ScenarioCache cache;
///   ForEachRun(config, runs, &cache, task);  // core/experiment.h
///   ... each run's scenario aliases the shared-immutable artifacts and
///       owns its Network.
///
/// One cache may serve many experiments (RunSweep keeps one across its
/// points), so cache hits span sweep points whose topology slice is
/// invariant. Between points, Evict frees what no point still ahead can
/// hit.
class ScenarioCache {
 public:
  /// Builds one artifact, or returns why it cannot be built.
  using Builder = std::function<StatusOr<std::shared_ptr<const void>>()>;

  ScenarioCache() = default;
  ScenarioCache(const ScenarioCache&) = delete;
  ScenarioCache& operator=(const ScenarioCache&) = delete;

  /// Builds runs [0, runs) in run-index order on the calling thread and
  /// returns the first failing run's Status — the one the uncached
  /// BuildScenario(config, run) reports for that run. Only the benchmark
  /// replay and tests still pre-build a point this way; RunExperiment
  /// builds inside its run tasks. Deleted once that replay calls RunSweep
  /// itself (ROADMAP.md, "Per-phase wall time from the real run loop").
  Status Prepare(const SimulationConfig& config, int runs);

  /// Frees every artifact that no run [0, runs) of a config in `ahead` can
  /// look up. Each artifact key extends a run's SyntheticDeploymentKey or a
  /// config's PressureTraceKey at a '|' boundary, so a kept key is one
  /// that extends such a root. hits() and misses() do not change, and nor
  /// do those of later Build calls for configs in `ahead`. Called between
  /// experiments, never while a Build is running.
  void Evict(std::span<const SimulationConfig> ahead, int runs);

  /// BuildScenario(config, run, this): assembles run `run`'s scenario from
  /// cached artifacts (plus a fresh per-run Network / fault plan), building
  /// the artifacts no caller has built yet. Safe to call concurrently.
  StatusOr<Scenario> Build(const SimulationConfig& config, int run);

  /// The artifact under `key`, calling `build` when no caller has built it
  /// yet. A failed build's Status is the key's result too. `build` must not
  /// look up `key` itself. BuildScenario hands each shareable artifact's
  /// key and builder here.
  StatusOr<std::shared_ptr<const void>> GetOrBuild(const std::string& key,
                                                   const Builder& build)
      WSNQ_EXCLUDES(mu_);

  /// Keys looked up so far, failed builds included.
  int64_t size() const WSNQ_EXCLUDES(mu_);
  /// Lookups of a key some earlier lookup already claimed.
  int64_t hits() const WSNQ_EXCLUDES(mu_);
  /// First lookups of a key, i.e. builds: one per distinct key.
  int64_t misses() const WSNQ_EXCLUDES(mu_);

 private:
  /// One key's artifact. `done` turns true once the first caller's build
  /// has finished; then exactly one of `status` (a failed build) and
  /// `value` says how. Read and written only under mu_ (the analysis
  /// cannot see that through the map's references).
  struct Entry {
    bool done = false;
    Status status;
    std::shared_ptr<const void> value;
  };

  mutable Mutex mu_;
  /// Wakes the callers waiting for an in-flight entry.
  CondVar built_;
  // Node-based: an Entry& stays valid while other keys are inserted, so
  // the building caller can fill its entry in after the unlocked build.
  std::unordered_map<std::string, Entry> entries_ WSNQ_GUARDED_BY(mu_);
  int64_t hits_ WSNQ_GUARDED_BY(mu_) = 0;
  int64_t misses_ WSNQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsnq

#endif  // WSNQ_CORE_SCENARIO_CACHE_H_
