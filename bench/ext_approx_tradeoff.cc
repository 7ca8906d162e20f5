// Extension bench: the accuracy/energy trade-off across the paper's §3.1
// taxonomy — exact (IQ, HBC, TAG), approximate (q-digest, GK), and
// probabilistic (sampling) — on the default synthetic workload. Exact
// protocols sit at rank error 0; the question is what the other tiers save
// and what they give up.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/approximate.h"
#include "bench/bench_common.h"
#include "core/experiment.h"

namespace {

using namespace wsnq;

ProtocolFactory Qdigest(const std::string& label, int64_t compression) {
  return {label,
          [compression](int64_t k, int64_t lo, int64_t hi,
                        const WireFormat& wire) {
            QdigestProtocol::Options options;
            options.compression = compression;
            return std::make_unique<QdigestProtocol>(k, lo, hi, wire,
                                                     options);
          }};
}

ProtocolFactory Gk(const std::string& label, double epsilon) {
  return {label,
          [epsilon](int64_t k, int64_t lo, int64_t hi,
                    const WireFormat& wire) {
            GkProtocol::Options options;
            options.epsilon = epsilon;
            return std::make_unique<GkProtocol>(k, lo, hi, wire, options);
          }};
}

ProtocolFactory Sample(const std::string& label, double p) {
  return {label,
          [p](int64_t k, int64_t lo, int64_t hi, const WireFormat& wire) {
            SamplingProtocol::Options options;
            options.probability = p;
            return std::make_unique<SamplingProtocol>(k, lo, hi, wire,
                                                      options);
          }};
}

}  // namespace

int main(int argc, char** argv) {
  SimulationConfig config;
  config.num_sensors = 256;
  config.radio_range = 35.0;
  config.rounds = RoundsFromEnv(250);
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  if (!bench::ParseCommonFlags(argc, argv, &config)) return 2;
  const int runs = RunsFromEnv(20);
  MetricsCsv metrics;
  if (!metrics.Open(bench::Options().metrics_path)) {
    return bench::FinishObservability(1);
  }

  const std::vector<ProtocolFactory> factories = {
      DefaultFactory(AlgorithmKind::kTag),
      DefaultFactory(AlgorithmKind::kHbc),
      DefaultFactory(AlgorithmKind::kIq),
      Qdigest("QD-k8", 8),
      Qdigest("QD-k32", 32),
      Qdigest("QD-k128", 128),
      Gk("GK-e10", 0.10),
      Gk("GK-e05", 0.05),
      Gk("GK-e01", 0.01),
      Sample("SMP-5", 0.05),
      Sample("SMP-25", 0.25),
      Sample("SMP-75", 0.75),
  };
  auto aggregates = RunExperiment(config, factories, runs);
  if (!aggregates.ok()) {
    std::fprintf(stderr, "failed: %s\n",
                 aggregates.status().ToString().c_str());
    return bench::FinishObservability(1);
  }
  std::printf("%-10s %-9s %14s %14s %14s %16s %10s\n", "figure", "algo",
              "mean_rank_err", "max_rank_err", "max_energy_mJ",
              "lifetime_rounds", "packets");
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    std::printf("%-10s %-9s %14.3f %14lld %14.6f %16.1f %10.1f\n",
                "ext-apx", agg.label.c_str(), agg.rank_error.mean(),
                static_cast<long long>(agg.max_rank_error),
                agg.max_round_energy_mj.mean(), agg.lifetime_rounds.mean(),
                agg.packets.mean());
    metrics.AddRows("ext-apx", "synthetic", "-", "-", agg);
  }
  return bench::FinishObservability(0);
}
