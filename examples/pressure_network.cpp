// Pressure-sensing network (§5.1.3 / §5.2.5): 1022 stations laid out with a
// self-organizing map from their first measurements, tracking the median
// barometric pressure continuously. Shows the effect of the sampling rate
// (temporal correlation) and of the optimistic vs pessimistic universe.
//
//   ./build/examples/pressure_network

#include <cstdio>
#include <memory>

#include "algo/hbc.h"
#include "algo/iq.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"

int main() {
  using namespace wsnq;

  std::printf("%-12s %-6s %-6s %16s %16s %12s\n", "setting", "skip", "algo",
              "hotspot_mJ/rnd", "lifetime_rounds", "refinements");
  for (const bool pessimistic : {false, true}) {
    for (const int skip : {0, 7}) {
      SimulationConfig config;
      config.dataset = DatasetKind::kPressure;
      config.pressure.num_stations = 1022;
      config.pressure.skip = skip;
      config.pressure.range_setting =
          pessimistic ? PressureTrace::RangeSetting::kPessimistic
                      : PressureTrace::RangeSetting::kOptimistic;
      config.radio_range = 35.0;
      config.rounds = 60;

      StatusOr<Scenario> scenario = BuildScenario(config, 0);
      if (!scenario.ok()) {
        std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
        return 1;
      }

      IqProtocol iq(scenario.value().k, scenario.value().source->range_min(),
                    scenario.value().source->range_max(), config.wire, {});
      HbcProtocol hbc(scenario.value().k,
                      scenario.value().source->range_min(),
                      scenario.value().source->range_max(), config.wire, {});
      for (QuantileProtocol* protocol :
           {static_cast<QuantileProtocol*>(&iq),
            static_cast<QuantileProtocol*>(&hbc)}) {
        const SimulationResult result =
            RunSimulation(scenario.value(), protocol, config.rounds);
        if (result.errors != 0) {
          std::fprintf(stderr, "%s wrong!\n", protocol->name());
          return 1;
        }
        std::printf("%-12s %-6d %-6s %16.4f %16.0f %12.2f\n",
                    pessimistic ? "pessimistic" : "optimistic", skip,
                    protocol->name(), result.mean_max_round_energy_mj,
                    result.lifetime_rounds, result.mean_refinements);
      }
    }
  }
  std::printf(
      "\nSkipping samples weakens the temporal correlation IQ exploits; the "
      "universe scaling barely moves either protocol (cf. Fig. 10).\n");
  return 0;
}
