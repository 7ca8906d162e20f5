// Scenario construction: turns a SimulationConfig plus a run index into a
// concrete (network, value source, vertex->sensor mapping) triple, exactly
// the way §5.1 describes:
//
//  * synthetic runs re-draw node positions and the measurement field per
//    run; the root is one of the placed vertices;
//  * pressure runs keep the (SOM-derived) station positions fixed and only
//    re-select the root vertex per run ("on real world data sets the
//    topology was only changed by selecting another root node").
//
// A Scenario splits into two halves with different sharing rules:
//
//  * shared-immutable — radio graph, value sources, spanning-tree template:
//    deterministic functions of (config, run) that never mutate after
//    construction. They are held via shared_ptr<const T> and may be aliased
//    across runs and sweep points through a ScenarioCache
//    (core/scenario_cache.h), which makes sharing sound under --threads.
//  * per-run mutable — the Network (accounting, fault plan, tree repairs)
//    and the materialized value rows: owned exclusively by one run's task.

#ifndef WSNQ_CORE_SCENARIO_H_
#define WSNQ_CORE_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/value_source.h"
#include "net/network.h"
#include "util/status.h"

namespace wsnq {

class ScenarioCache;

/// A fully instantiated simulation scenario for one run.
struct Scenario {
  std::unique_ptr<Network> network;
  /// Keeps the measurement generator chain alive (base source + optional
  /// scaler). The sources are immutable after construction and may be
  /// aliased by other runs' scenarios when built through a ScenarioCache.
  std::vector<std::shared_ptr<const ValueSource>> shared_sources;
  /// The source protocols read from (last element of the chain).
  const ValueSource* source = nullptr;
  /// sensor_of_vertex[v]: index into the source; -1 for the root. By
  /// vertex id: the network is laid out in its routing tree's post order
  /// (Network::InPostOrder), and the value rows follow it.
  std::vector<int> sensor_of_vertex;
  /// Rank queried: max(1, floor(phi * |N|)).
  int64_t k = 0;

  /// Measurements of round `round`, indexed by network vertex (the root's
  /// entry is 0 and unused).
  std::vector<int64_t> ValuesByVertex(int64_t round) const;

  /// Precomputes the value rows of rounds [0, rounds) so every protocol
  /// replay reads the identical materialized row through ValuesView
  /// instead of re-deriving it per factory (values are integers, so the
  /// rows are bit-identical to the lazy path by definition). Reads the
  /// current `source`; call after any source override. The rows are filled
  /// on the network's wave executor pool when one is installed.
  void MaterializeValues(int64_t rounds);
  int64_t materialized_rounds() const {
    return static_cast<int64_t>(value_rows_.size());
  }

  /// Vertex-indexed values of `round` by reference: materialized rows are
  /// returned directly, other rounds are computed into a per-scenario
  /// scratch row. Not safe for concurrent calls on one Scenario — each
  /// run's task owns its scenario exclusively (docs/hardening.md).
  const std::vector<int64_t>& ValuesView(int64_t round) const;

  /// Precomputes, per materialized round, the ascending-sorted sensor
  /// snapshot (root excluded). Call after MaterializeValues. Kept for the
  /// benchmark's hand-written replay only (benchmark/sim_replay.cc): the
  /// run loop's oracle check counts over the value row instead, so no
  /// library path calls this. Deleted once that replay calls RunSweep
  /// itself (ROADMAP.md, "Per-phase wall time from the real run loop").
  void MaterializeSortedSensors();

  /// Ascending-sorted sensor snapshot of `round`, or nullptr when not
  /// materialized. Benchmark replay only, like MaterializeSortedSensors.
  const std::vector<int64_t>* SortedSensorsView(int64_t round) const;

 private:
  void FillRow(int64_t round, std::vector<int64_t>* row) const;

  /// value_rows_[round][vertex] for the materialized prefix of rounds.
  std::vector<std::vector<int64_t>> value_rows_;
  /// sorted_sensor_rows_[round]: ascending sensor multiset of the round.
  std::vector<std::vector<int64_t>> sorted_sensor_rows_;
  mutable std::vector<int64_t> scratch_row_;
};

/// The salt of run `run`'s routing tree (BuildRoutingTree's `seed`; only
/// ParentSelection::kRandom reads it). Churn repair rebuilds with it too.
uint64_t RoutingTreeSalt(const SimulationConfig& config, int run);

/// Builds the scenario of run `run` under `config`, sharing its immutable
/// artifacts through `cache` when one is given. Both paths run the
/// identical construction code, so a cached scenario is bit-identical to
/// the uncached reference (cache == nullptr).
StatusOr<Scenario> BuildScenario(const SimulationConfig& config, int run,
                                 ScenarioCache* cache = nullptr);

}  // namespace wsnq

#endif  // WSNQ_CORE_SCENARIO_H_
