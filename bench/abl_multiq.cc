// Extension bench: tracking the quartiles (phi = 0.25, 0.5, 0.75)
// continuously — three independent IQ queries vs the shared-convergecast
// MultiIqProtocol. Headers dominate small packets, so sharing one packet
// per node per round across ranks is where the saving lives.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "algo/iq.h"
#include "algo/multi_quantile.h"
#include "core/config.h"
#include "core/scenario.h"
#include "bench/bench_common.h"
#include "core/experiment.h"
#include "net/wave.h"
#include "util/stats.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig config;
  config.num_sensors = 256;
  config.radio_range = 35.0;
  config.rounds = RoundsFromEnv(250);
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  if (!bench::ParseCommonFlags(argc, argv, &config, bench::kProfileOnly)) {
    return 2;
  }
  const int runs = RunsFromEnv(20);

  // Per-run measurements, filled by the pool and folded in run order so
  // the output matches the serial path bit-for-bit.
  struct RunRow {
    double shared_energy = 0.0, shared_packets = 0.0;
    double indep_energy = 0.0, indep_packets = 0.0;
  };
  std::vector<RunRow> per_run(static_cast<size_t>(runs));
  // Threads left over after the run-level fan-out drive in-run subtree
  // parallelism, exactly like core/experiment.cc's ExecuteRun; the wave
  // engine's ordered fold keeps stdout byte-identical either way.
  const int resolved = ResolveThreads(config.threads);
  const int pool_threads = std::min<int>(resolved, runs);
  const int wave_threads = std::max(1, resolved / std::max(1, pool_threads));
  ThreadPool pool(pool_threads);
  const Status status = pool.ParallelFor(runs, [&](int64_t run_index) -> Status {
    const int run = static_cast<int>(run_index);
    RunRow& out = per_run[static_cast<size_t>(run)];
    // Declared before the scenario so the Network never outlives the
    // executor it borrows.
    std::optional<WaveExecutor> wave_executor;
    auto scenario = BuildScenario(config, run);
    if (!scenario.ok()) return scenario.status();
    Network* net = scenario.value().network.get();
    if (config.subtree_parallel) {
      wave_executor.emplace(wave_threads, /*target_parts=*/4 * wave_threads);
      net->set_wave_executor(&*wave_executor);
    }
    const int64_t n = net->num_sensors();
    const std::vector<int64_t> ks = {n / 4, n / 2, 3 * n / 4};

    // Shared multi-quantile query.
    net->ResetAccounting();
    MultiIqProtocol multi(ks, scenario.value().source->range_min(),
                          scenario.value().source->range_max(), config.wire);
    double max_round_sum = 0.0;
    for (int64_t t = 0; t <= config.rounds; ++t) {
      net->BeginRound();
      multi.RunRound(net, scenario.value().ValuesByVertex(t), t);
      max_round_sum += net->MaxRoundEnergyOverSensors();
    }
    out.shared_energy = max_round_sum / (config.rounds + 1);
    out.shared_packets =
        static_cast<double>(net->total_packets()) / (config.rounds + 1);

    // Three independent IQ queries; energies add up at every node, so the
    // hotspot draw is the per-round max of the summed consumption.
    std::vector<double> per_round_energy(
        static_cast<size_t>(config.rounds + 1) *
            static_cast<size_t>(net->num_vertices()),
        0.0);
    int64_t total_packets = 0;
    for (int64_t k : ks) {
      net->ResetAccounting();
      IqProtocol iq(k, scenario.value().source->range_min(),
                    scenario.value().source->range_max(), config.wire, {});
      for (int64_t t = 0; t <= config.rounds; ++t) {
        net->BeginRound();
        iq.RunRound(net, scenario.value().ValuesByVertex(t), t);
        for (int v = 0; v < net->num_vertices(); ++v) {
          per_round_energy[static_cast<size_t>(t) *
                               static_cast<size_t>(net->num_vertices()) +
                           static_cast<size_t>(v)] += net->round_energy(v);
        }
      }
      total_packets += net->total_packets();
    }
    double indep_sum = 0.0;
    for (int64_t t = 0; t <= config.rounds; ++t) {
      double round_max = 0.0;
      for (int v = 0; v < net->num_vertices(); ++v) {
        if (net->is_root(v)) continue;
        round_max = std::max(
            round_max,
            per_round_energy[static_cast<size_t>(t) *
                                 static_cast<size_t>(net->num_vertices()) +
                             static_cast<size_t>(v)]);
      }
      indep_sum += round_max;
    }
    out.indep_energy = indep_sum / (config.rounds + 1);
    out.indep_packets =
        static_cast<double>(total_packets) / (config.rounds + 1);
    return Status::Ok();
  });
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return bench::FinishObservability(1);
  }

  RunningStat shared_energy, shared_packets;
  RunningStat indep_energy, indep_packets;
  for (const RunRow& row : per_run) {
    shared_energy.Add(row.shared_energy);
    shared_packets.Add(row.shared_packets);
    indep_energy.Add(row.indep_energy);
    indep_packets.Add(row.indep_packets);
  }

  std::printf("%-10s %-14s %14s %10s\n", "figure", "variant",
              "max_energy_mJ", "packets");
  std::printf("%-10s %-14s %14.6f %10.1f\n", "abl-multiq", "IQx3-shared",
              shared_energy.mean(), shared_packets.mean());
  std::printf("%-10s %-14s %14.6f %10.1f\n", "abl-multiq",
              "IQx3-independent", indep_energy.mean(), indep_packets.mean());
  return bench::FinishObservability(0);
}
