// Extension bench: per-round channel occupancy (latency) under a TDMA MAC.
// §5.1.4 assumes a scheduling MAC exists; this experiment builds it
// (two-hop-interference-free slot coloring, net/schedule.h) and converts
// each protocol's exchanges — convergecast waves and floods — into slots.
// Refinement-heavy protocols pay serial round trips: an energy-cheap round
// can still be slow, which matters when the sampling period is short.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "algo/registry.h"
#include "bench/bench_common.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "core/experiment.h"
#include "net/schedule.h"
#include "net/wave.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

// One run's per-algorithm measurements; folded into the RunningStats on
// the main thread in run order (see util/thread_pool.h).
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
  // Threads left over after the run-level fan-out drive in-run subtree
  // parallelism, exactly like core/experiment.cc's ExecuteRun; the wave
  // engine's ordered fold keeps stdout byte-identical either way.
  const int resolved = ResolveThreads(config.threads);
  const int pool_threads = std::min<int>(resolved, runs);
  const int wave_threads = std::max(1, resolved / std::max(1, pool_threads));
  ThreadPool pool(pool_threads);
  const Status status = pool.ParallelFor(runs, [&](int64_t run) -> Status {
    // Declared before the scenario so the Network never outlives the
    // executor it borrows.
    std::optional<WaveExecutor> wave_executor;
    auto scenario = BuildScenario(config, static_cast<int>(run));
    if (!scenario.ok()) return scenario.status();
    Network* net = scenario.value().network.get();
    if (config.subtree_parallel) {
      wave_executor.emplace(wave_threads, /*target_parts=*/4 * wave_threads);
      net->set_wave_executor(&*wave_executor);
    }
    // The schedule colors the radio graph, so it takes the tree by label.
    const SpanningTree tree = RelabelTree(net->tree(), net->labels());
    const TdmaSchedule schedule(net->graph(), tree);
    const double cc_slots =
        static_cast<double>(schedule.ConvergecastSlots());
    const double flood_slots = static_cast<double>(schedule.FloodSlots());

    for (size_t i = 0; i < algorithms.size(); ++i) {
      auto protocol = MakeProtocol(algorithms[i], scenario.value().k,
                                   scenario.value().source->range_min(),
                                   scenario.value().source->range_max(),
                                   config.wire);
      const SimulationResult result =
          RunSimulation(scenario.value(), protocol.get(), config.rounds);
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
  });
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
