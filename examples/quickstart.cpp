// Quickstart: build a 128-node sensor network, run the paper's IQ protocol
// as a continuous median query for 50 rounds, and print what it costs.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "algo/iq.h"
#include "algo/oracle.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"

int main() {
  using namespace wsnq;

  // 1. Describe the deployment and workload (defaults follow §5.1).
  SimulationConfig config;
  config.num_sensors = 128;
  config.radio_range = 45.0;
  config.rounds = 50;
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;

  // 2. Instantiate the scenario: placement, routing tree, measurements.
  StatusOr<Scenario> scenario = BuildScenario(config, /*run=*/0);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("network: %d sensors, k = %lld (median)\n",
              scenario.value().network->num_sensors(),
              static_cast<long long>(scenario.value().k));

  // 3. Run IQ round by round and watch the quantile move.
  IqProtocol protocol(scenario.value().k,
                      scenario.value().source->range_min(),
                      scenario.value().source->range_max(), config.wire,
                      IqProtocol::Options{});
  const SimulationResult result = RunSimulation(
      scenario.value(), &protocol, config.rounds, /*keep_trail=*/true);

  for (const RoundRecord& record : result.trail) {
    if (record.round % 10 != 0) continue;
    std::printf(
        "round %3lld: median=%5lld  hotspot=%.4f mJ  packets=%4lld  "
        "refinements=%lld %s\n",
        static_cast<long long>(record.round),
        static_cast<long long>(record.quantile), record.max_round_energy_mj,
        static_cast<long long>(record.packets),
        static_cast<long long>(record.refinements),
        record.correct ? "" : "WRONG");
  }
  std::printf(
      "\nsummary: mean hotspot %.4f mJ/round, projected lifetime %.0f "
      "rounds, oracle errors %lld\n",
      result.mean_max_round_energy_mj, result.lifetime_rounds,
      static_cast<long long>(result.errors));
  return result.errors == 0 ? 0 : 1;
}
