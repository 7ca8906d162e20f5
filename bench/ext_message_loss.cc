// Extension experiment (§6, the paper's future work): "If messages get
// lost, a rank error is introduced and it would be interesting to analyze
// the behaviour of different approaches under loss in order to restrict the
// rank error as much as possible."
//
// We drop each uplink (convergecast) unicast independently with probability
// p and measure the mean and max rank error of every protocol's reported
// median, alongside the usual energy metrics. Senders still pay for lost
// packets; receivers do not. Floods stay reliable.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig base;
  base.num_sensors = 256;
  base.radio_range = 35.0;
  base.rounds = RoundsFromEnv(250);
  base.synthetic.period_rounds = 125;
  base.synthetic.noise_percent = 5;
  if (!bench::ParseCommonFlags(argc, argv, &base)) return 2;
  const int runs = RunsFromEnv(20);
  MetricsCsv metrics;
  if (!metrics.Open(bench::Options().metrics_path)) {
    return bench::FinishObservability(1);
  }

  std::printf("%-10s %-9s %-9s %14s %14s %14s %10s\n", "figure",
              "loss_pct", "algo", "mean_rank_err", "max_rank_err",
              "max_energy_mJ", "packets");
  for (const char* loss : {"0", "0.1", "1", "5", "10", "20"}) {
    SimulationConfig config = base;
    config.fault.loss = std::atof(loss) / 100.0;
    auto aggregates = RunExperiment(config, PaperAlgorithms(), runs);
    if (!aggregates.ok()) {
      std::fprintf(stderr, "failed: %s\n",
                   aggregates.status().ToString().c_str());
      return bench::FinishObservability(1);
    }
    for (const AlgorithmAggregate& agg : aggregates.value()) {
      std::printf("%-10s %-9s %-9s %14.3f %14lld %14.6f %10.1f\n",
                  "ext-loss", loss, agg.label.c_str(),
                  agg.rank_error.mean(),
                  static_cast<long long>(agg.max_rank_error),
                  agg.max_round_energy_mj.mean(), agg.packets.mean());
      metrics.AddRows("ext-loss", "synthetic", "loss_pct", loss, agg);
      // With reliable links every protocol must still be exact.
      if (config.fault.loss == 0.0 && agg.errors != 0) {
        std::fprintf(stderr, "exactness violated at zero loss!\n");
        return bench::FinishObservability(1);
      }
    }
  }
  return bench::FinishObservability(0);
}
