// Lifetime simulation beyond the first death. The paper measures lifetime
// as "rounds until the first node runs out of energy" (§5.1.5); this
// module actually plays the battery game out: batteries drain per round,
// dead nodes drop off, the routing tree is rebuilt over the survivors
// reachable from the sink, the query re-initializes with the new
// population (a fresh rank k), and the clock keeps running — until the
// network thins below a survivor threshold or the sink is isolated. This
// turns "lifetime" from an extrapolated scalar into a measured curve
// (bench/ext_lifetime) and exercises re-initialization, which the
// continuous protocols otherwise only do once.

#ifndef WSNQ_CORE_LIFETIME_H_
#define WSNQ_CORE_LIFETIME_H_

#include <cstdint>
#include <vector>

#include "algo/registry.h"
#include "core/config.h"

namespace wsnq {

struct Scenario;

/// Extra knobs of the battery-drain simulation.
struct LifetimeOptions {
  /// Safety cap on simulated rounds.
  int64_t max_rounds = 50000;
  /// Stop once fewer than this fraction of the original sensors still
  /// participate (dead or unreachable both count as gone).
  double stop_alive_fraction = 0.5;
};

/// One node leaving the network.
struct DeathEvent {
  int64_t round = 0;
  /// Vertex id in the *original* deployment.
  int vertex = 0;
  /// True if the battery emptied; false if the node was cut off when the
  /// topology fell apart.
  bool battery = true;
};

/// Outcome of one battery-drain run.
struct LifetimeResult {
  int64_t first_death_round = -1;   ///< -1: nobody died within max_rounds
  int64_t p10_death_round = -1;     ///< 10% of sensors gone
  int64_t p25_death_round = -1;     ///< 25% gone
  int64_t end_round = 0;            ///< last completed round
  int reinit_epochs = 0;            ///< query re-initializations (incl. first)
  int64_t exact_rounds = 0;         ///< rounds whose answer matched the oracle
  int64_t total_rounds = 0;
  std::vector<DeathEvent> deaths;
};

/// Plays `kind` over `base`, the scenario of one run under `config`
/// (ForEachRun, core/experiment.h, hands it over), until the survivor
/// threshold or the round cap. The query always targets
/// k = max(1, floor(phi * |alive|)) of the currently reachable sensors.
/// Reads `base` only: each epoch runs on a network of its own.
LifetimeResult RunLifetimeSimulation(const SimulationConfig& config,
                                     const Scenario& base, AlgorithmKind kind,
                                     const LifetimeOptions& options);

}  // namespace wsnq

#endif  // WSNQ_CORE_LIFETIME_H_
