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
//   <deploy>|tree|root|strat|salt              routing-tree template
//
// Concurrency contract (docs/hardening.md, "Concurrency & determinism"):
// the cache is populated by a serial, deterministic Prepare() pass in
// run-index order, then *sealed*. After sealing, Get() is const and
// thread-safe; Put() drops the offered artifact (the caller keeps its
// freshly built copy), so the read-only parallel phase can never mutate
// the map. Everything stored is shared_ptr<const T> — runs alias the
// artifacts but cannot write through them; the wsnq-lint `const-cast`
// rule keeps that guarantee from eroding.
//
// Determinism: BuildScenario runs the identical construction code with and
// without a store (core/scenario.h, ArtifactStore), so cached and uncached
// scenarios — and therefore aggregates, traces, and goldens — are
// bit-identical (tests/scenario_cache_test.cc).

#ifndef WSNQ_CORE_SCENARIO_CACHE_H_
#define WSNQ_CORE_SCENARIO_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
///   cache.Prepare(config, runs);          // serial, deterministic, seals
///   ... ThreadPool fans runs out; each task calls cache.Build(config, run)
///       and gets aliased shared-immutable artifacts plus its own Network.
///
/// Prepare may be called again (RunSweep does, once per sweep point): the
/// cache unseals, builds whatever the new point misses, and reseals, so
/// cache hits span sweep points whose topology slice is invariant.
class ScenarioCache final : public internal::ArtifactStore {
 public:
  ScenarioCache() = default;
  ScenarioCache(const ScenarioCache&) = delete;
  ScenarioCache& operator=(const ScenarioCache&) = delete;

  /// Builds every shareable artifact of runs [0, runs) in run-index order
  /// on the calling thread, then seals the cache. Returns the first
  /// failing run's Status — the same Status the storeless
  /// BuildScenario(config, run) reports for that run.
  Status Prepare(const SimulationConfig& config, int runs);

  /// BuildScenario(config, run, this): assembles run `run`'s scenario from
  /// cached artifacts (plus a fresh per-run Network / fault plan). Safe to
  /// call concurrently once the cache is sealed.
  StatusOr<Scenario> Build(const SimulationConfig& config, int run);

  // internal::ArtifactStore:
  std::shared_ptr<const void> Get(const std::string& key) const override;
  void Put(const std::string& key, std::shared_ptr<const void> value) override;

  bool sealed() const { return sealed_; }
  int64_t size() const {
    AssertReadPhase();
    return static_cast<int64_t>(entries_.size());
  }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Artifacts offered after sealing and dropped (miss-path rebuilds).
  int64_t sealed_drops() const {
    return sealed_drops_.load(std::memory_order_relaxed);
  }

 private:
  /// The prepare-then-seal discipline as a phantom capability: mutating the
  /// artifact map requires the *prepare phase* — the serial, run-index-order
  /// Prepare() pass that runs before the ThreadPool fan-out. Pool-time code
  /// cannot name (let alone assert) the phase, so under clang's
  /// -Wthread-safety a new mutation path of `entries_` that does not route
  /// through AssertPreparePhase() — which dynamically re-checks !sealed_ —
  /// is a compile error, not a latent race.
  class WSNQ_CAPABILITY("scenario_cache/prepare") PreparePhase {};

  /// Dynamically checks the unsealed (serial Prepare) phase, then grants
  /// the capability to the analysis. Defined in the .cc (needs check.h).
  void AssertPreparePhase() WSNQ_ASSERT_CAPABILITY(prepare_phase_);
  /// Reads are phase-agnostic: the map is exclusively owned while
  /// preparing and immutable once sealed, so a shared grant is always
  /// sound. Purely an analysis-level claim — no runtime effect.
  void AssertReadPhase() const
      WSNQ_ASSERT_SHARED_CAPABILITY(prepare_phase_) {}

  PreparePhase prepare_phase_;
  std::unordered_map<std::string, std::shared_ptr<const void>> entries_
      WSNQ_GUARDED_BY(prepare_phase_);
  // Written only by the serial Prepare() pass; read by pool-time Get/Put
  // after the happens-before edge of the ThreadPool fan-out, so it stays
  // outside the phase capability (guarding it would be circular: the
  // asserts themselves read it).
  bool sealed_ = false;
  // Stat counters only — mutable atomics so the sealed, logically-const
  // Get() can count from concurrent run tasks without a data race.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> sealed_drops_{0};
};

}  // namespace wsnq

#endif  // WSNQ_CORE_SCENARIO_CACHE_H_
