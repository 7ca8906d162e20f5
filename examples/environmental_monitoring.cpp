// Environmental monitoring (the paper's motivating scenario, §1): a field
// of temperature-like sensors with a slow daily trend plus sensor noise and
// a few defective outlier nodes. Demonstrates why the *median* is the right
// aggregate (robust to outliers, unlike the average) and compares what each
// protocol pays to track it continuously.
//
//   ./build/examples/environmental_monitoring

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/simulation.h"

namespace {

// A measurement feed that corrupts a few sensors with stuck-high readings,
// as a defective node would produce (§1's outlier example).
class OutlierInjector : public wsnq::ValueSource {
 public:
  OutlierInjector(const wsnq::ValueSource* inner, int every)
      : inner_(inner), every_(every) {}

  int64_t Value(int sensor, int64_t round) const override {
    if (sensor % every_ == 0) return inner_->range_max();  // stuck sensor
    return inner_->Value(sensor, round);
  }
  int num_sensors() const override { return inner_->num_sensors(); }
  int64_t range_min() const override { return inner_->range_min(); }
  int64_t range_max() const override { return inner_->range_max(); }

 private:
  const wsnq::ValueSource* inner_;
  int every_;
};

}  // namespace

int main() {
  using namespace wsnq;

  SimulationConfig config;
  config.num_sensors = 200;
  config.radio_range = 40.0;
  config.rounds = 100;
  config.synthetic.period_rounds = 100;  // one "day"
  config.synthetic.noise_percent = 10;

  StatusOr<Scenario> scenario = BuildScenario(config, 0);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  // Wrap the feed: every 20th sensor is defective and reads full scale.
  OutlierInjector corrupted(scenario.value().source, 20);
  scenario.value().source = &corrupted;

  // Median vs mean under outliers, on the first round.
  {
    const auto snapshot = corrupted.Snapshot(0);
    double mean = 0.0;
    for (int64_t v : snapshot) mean += static_cast<double>(v);
    mean /= static_cast<double>(snapshot.size());
    std::vector<int64_t> sorted = snapshot;
    std::sort(sorted.begin(), sorted.end());
    std::printf(
        "round 0 with %d%% stuck-high sensors: mean = %.0f, median = %lld "
        "(the median shrugs the outliers off)\n\n",
        100 / 20, mean,
        static_cast<long long>(sorted[sorted.size() / 2]));
  }

  std::printf("%-8s %16s %18s %10s %13s\n", "algo", "hotspot_mJ/round",
              "lifetime_rounds", "packets", "refinements");
  for (AlgorithmKind kind : PaperAlgorithms()) {
    auto protocol =
        MakeProtocol(kind, scenario.value().k, corrupted.range_min(),
                     corrupted.range_max(), config.wire);
    const SimulationResult result =
        RunSimulation(scenario.value(), protocol.get(), config.rounds);
    if (result.errors != 0) {
      std::fprintf(stderr, "%s returned a wrong quantile!\n",
                   protocol->name());
      return 1;
    }
    std::printf("%-8s %16.4f %18.0f %10.1f %13.2f\n", protocol->name(),
                result.mean_max_round_energy_mj, result.lifetime_rounds,
                result.mean_packets, result.mean_refinements);
  }
  std::printf(
      "\nAll protocols returned the exact median every round; they differ "
      "only in what the hotspot node pays.\n");
  return 0;
}
