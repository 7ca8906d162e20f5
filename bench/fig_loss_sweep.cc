// Reliability extension figure: energy and accuracy versus frame loss for
// the three headline protocols (IQ, HBC, POS), with and without
// stop-and-wait ARQ. The fire-and-forget rows show the graceful
// degradation (rank error grows with loss, energy stays near the lossless
// baseline); the ARQ rows show the reliability trade (rank error pinned at
// zero — enforced below — with the retransmission/ack energy premium
// growing with loss). Hand-rolled rather than RunSweep because the
// ARQ-off half *legitimately* reports oracle errors under loss.
//
// Row format:
//   figure  loss_pct  arq  algo  mean_rank_err  max_rank_err  max_energy_mJ
//   packets

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig base = bench::DefaultSyntheticConfig();
  if (!bench::ParseCommonFlags(argc, argv, &base)) return 2;
  const int runs = RunsFromEnv(20);
  const auto start = std::chrono::steady_clock::now();

  const std::vector<AlgorithmKind> algorithms = {
      AlgorithmKind::kIq, AlgorithmKind::kHbc, AlgorithmKind::kPos};

  MetricsCsv metrics;
  if (!metrics.Open(bench::Options().metrics_path)) {
    return bench::FinishObservability(1);
  }
  std::printf("%-14s %-9s %-5s %-9s %14s %14s %14s %10s\n", "figure",
              "loss_pct", "arq", "algo", "mean_rank_err", "max_rank_err",
              "max_energy_mJ", "packets");
  for (const char* loss_pct : {"0", "5", "10", "20", "30"}) {
    for (const bool arq : {false, true}) {
      SimulationConfig config = base;
      config.fault.loss = std::atof(loss_pct) / 100.0;
      config.fault.arq.enabled = arq;
      auto aggregates = RunExperiment(config, algorithms, runs);
      if (!aggregates.ok()) {
        std::fprintf(stderr, "failed at loss=%s arq=%d: %s\n", loss_pct, arq,
                     aggregates.status().ToString().c_str());
        return bench::FinishObservability(1);
      }
      const std::string x_value =
          std::string(loss_pct) + (arq ? "/on" : "/off");
      for (const AlgorithmAggregate& agg : aggregates.value()) {
        std::printf("%-14s %-9s %-5s %-9s %14.3f %14lld %14.6f %10.1f\n",
                    "fig-loss-sweep", loss_pct, arq ? "on" : "off",
                    agg.label.c_str(), agg.rank_error.mean(),
                    static_cast<long long>(agg.max_rank_error),
                    agg.max_round_energy_mj.mean(), agg.packets.mean());
        metrics.AddRows("fig-loss-sweep", "synthetic", "loss_pct/arq",
                        x_value, agg);
        // The reliability claim this figure exists to demonstrate: with
        // ARQ (or at zero loss) every protocol must stay exact.
        if ((arq || config.fault.loss == 0.0) && agg.errors != 0) {
          std::fprintf(stderr,
                       "exactness violated: loss=%s arq=%d algo=%s "
                       "errors=%lld\n",
                       loss_pct, arq, agg.label.c_str(),
                       static_cast<long long>(agg.errors));
          return bench::FinishObservability(1);
        }
      }
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintTimingFooter("fig-loss-sweep", ResolveThreads(base.threads), runs,
                    wall_seconds);
  return bench::FinishObservability(0);
}
