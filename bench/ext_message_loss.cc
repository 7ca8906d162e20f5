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
  // The points differ only in their fault config, which no deployment key
  // holds, so every point replays the first point's deployments.
  std::vector<SweepPoint> points;
  for (const char* loss : {"0", "0.1", "1", "5", "10", "20"}) {
    SweepPoint point{loss, base};
    point.config.fault.loss = std::atof(loss) / 100.0;
    points.push_back(std::move(point));
  }
  auto sweep = RunSweep(points, DefaultFactories(PaperAlgorithms()), runs);
  if (!sweep.ok()) {
    std::fprintf(stderr, "failed: %s\n", sweep.status().ToString().c_str());
    return bench::FinishObservability(1);
  }
  for (size_t p = 0; p < points.size(); ++p) {
    const std::string& loss = points[p].x_value;
    for (const AlgorithmAggregate& agg : sweep.value()[p].aggregates) {
      std::printf("%-10s %-9s %-9s %14.3f %14lld %14.6f %10.1f\n",
                  "ext-loss", loss.c_str(), agg.label.c_str(),
                  agg.rank_error.mean(),
                  static_cast<long long>(agg.max_rank_error),
                  agg.max_round_energy_mj.mean(), agg.packets.mean());
      metrics.AddRows("ext-loss", "synthetic", "loss_pct", loss, agg);
      // With reliable links every protocol must still be exact.
      if (points[p].config.fault.loss == 0.0 && agg.errors != 0) {
        std::fprintf(stderr, "exactness violated at zero loss!\n");
        return bench::FinishObservability(1);
      }
    }
  }
  return bench::FinishObservability(0);
}
