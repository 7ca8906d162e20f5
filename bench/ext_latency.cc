// Extension bench: per-round channel occupancy (latency) under a TDMA MAC.
// §5.1.4 assumes a scheduling MAC exists; this experiment builds it
// (two-hop-interference-free slot coloring, net/schedule.h) and converts
// each protocol's exchanges — convergecast waves and floods — into slots.
// Refinement-heavy protocols pay serial round trips: an energy-cheap round
// can still be slow, which matters when the sampling period is short.

#include <cstdio>
#include <memory>
#include <vector>

#include "algo/registry.h"
#include "bench/bench_common.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "core/experiment.h"
#include "net/schedule.h"
#include "util/stats.h"

namespace {

// One run's per-algorithm measurements; folded into the RunningStats on
// the main thread in run order (see ForEachRun, core/experiment.h).
struct RunRow {
  double floods = 0.0;
  double ccs = 0.0;
  double slots = 0.0;
  double energy = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig config;
  config.num_sensors = 256;
  config.radio_range = 35.0;
  config.rounds = RoundsFromEnv(250);
  config.synthetic.period_rounds = 63;  // some movement every round
  config.synthetic.noise_percent = 5;
  if (!bench::ParseCommonFlags(argc, argv, &config, bench::kProfileOnly)) {
    return 2;
  }
  const int runs = RunsFromEnv(20);

  std::printf("%-10s %-9s %12s %12s %14s %14s\n", "figure", "algo",
              "floods/rnd", "cc/rnd", "slots/rnd", "max_energy_mJ");
  struct Row {
    RunningStat floods, ccs, slots, energy;
  };
  const auto algorithms = PaperAlgorithms();
  std::vector<Row> rows(algorithms.size());

  std::vector<std::vector<RunRow>> per_run(
      static_cast<size_t>(runs), std::vector<RunRow>(algorithms.size()));
  const auto run_task = [&](int run, Scenario& scenario) -> Status {
    Network* net = scenario.network.get();
    // The schedule colors the radio graph, so it takes the tree by label.
    const SpanningTree tree = RelabelTree(net->tree(), net->labels());
    const TdmaSchedule schedule(net->graph(), tree);
    const double cc_slots =
        static_cast<double>(schedule.ConvergecastSlots());
    const double flood_slots = static_cast<double>(schedule.FloodSlots());

    for (size_t i = 0; i < algorithms.size(); ++i) {
      auto protocol = MakeProtocol(algorithms[i], scenario.k,
                                   scenario.source->range_min(),
                                   scenario.source->range_max(), config.wire);
      const SimulationResult result =
          RunSimulation(scenario, protocol.get(), config.rounds);
      if (result.errors != 0) {
        return Status::Internal("exactness violated!");
      }
      const double rounds = static_cast<double>(config.rounds + 1);
      RunRow& row = per_run[static_cast<size_t>(run)][i];
      row.floods = static_cast<double>(net->total_floods()) / rounds;
      row.ccs = static_cast<double>(net->total_convergecasts()) / rounds;
      row.slots = row.floods * flood_slots + row.ccs * cc_slots;
      row.energy = result.mean_max_round_energy_mj;
    }
    return Status::Ok();
  };
  const Status status =
      ForEachRun(config, runs, /*cache=*/nullptr, run_task);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return bench::FinishObservability(1);
  }
  for (int run = 0; run < runs; ++run) {
    for (size_t i = 0; i < algorithms.size(); ++i) {
      const RunRow& row = per_run[static_cast<size_t>(run)][i];
      rows[i].floods.Add(row.floods);
      rows[i].ccs.Add(row.ccs);
      rows[i].slots.Add(row.slots);
      rows[i].energy.Add(row.energy);
    }
  }
  for (size_t i = 0; i < algorithms.size(); ++i) {
    std::printf("%-10s %-9s %12.2f %12.2f %14.1f %14.6f\n", "ext-lat",
                AlgorithmName(algorithms[i]), rows[i].floods.mean(),
                rows[i].ccs.mean(), rows[i].slots.mean(),
                rows[i].energy.mean());
  }
  return bench::FinishObservability(0);
}
