// Figure 4: the development of IQ's interval Xi (dark grey area in the
// paper) and the quantile v_k over 125 rounds of an air-pressure trace.
// Prints one row per round: the quantile, the window bounds, the min/max
// measurement in the network (the paper's light grey background), and
// whether the round needed a refinement (the paper's white gaps).

#include <algorithm>
#include <cstdio>

#include "algo/iq.h"
#include "algo/oracle.h"
#include "bench/bench_common.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 1022;
  config.pressure.skip = 3;  // visible quantile movement over 125 rounds
  config.radio_range = 35.0;
  config.rounds = 125;
  // Single-scenario trace: --threads is accepted for CLI uniformity but
  // there is no multi-run fan-out here, and no aggregate for --metrics.
  if (!bench::ParseCommonFlags(argc, argv, &config,
                               bench::Outputs{.metrics = false})) {
    return 2;
  }

  int errors = 0;
  // One run through the run driver, which gives it run 0's trace buffer.
  const Status status = ForEachRun(
      config, /*runs=*/1, /*cache=*/nullptr, [&](int, Scenario& scenario) {
        IqProtocol iq(scenario.k, scenario.source->range_min(),
                      scenario.source->range_max(), config.wire,
                      IqProtocol::Options{});
        Network* net = scenario.network.get();
        WSNQ_TRACE_SET_PROTO("IQ");
        std::printf("%-6s %-8s %-10s %-10s %-8s %-8s %-12s %s\n", "round",
                    "v_k", "window_lo", "window_hi", "net_min", "net_max",
                    "refinements", "correct");
        for (int64_t round = 0; round <= config.rounds; ++round) {
          WSNQ_TRACE_SET_ROUND(round);
          net->BeginRound();
          const auto values = scenario.ValuesByVertex(round);
          iq.RunRound(net, values, round);
          const auto sensors = SensorValues(*net, values);
          const bool correct = iq.quantile() == OracleKth(sensors, scenario.k);
          errors += !correct;
          const auto [lo_it, hi_it] =
              std::minmax_element(sensors.begin(), sensors.end());
          std::printf(
              "%-6lld %-8lld %-10lld %-10lld %-8lld %-8lld %-12lld %s\n",
              static_cast<long long>(round),
              static_cast<long long>(iq.quantile()),
              static_cast<long long>(iq.quantile() + iq.xi_l()),
              static_cast<long long>(iq.quantile() + iq.xi_r()),
              static_cast<long long>(*lo_it), static_cast<long long>(*hi_it),
              static_cast<long long>(iq.refinements_last_round()),
              correct ? "yes" : "NO");
        }
        return Status::Ok();
      });
  if (!status.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n", status.ToString().c_str());
    return bench::FinishObservability(1);
  }
  return bench::FinishObservability(errors == 0 ? 0 : 1);
}
