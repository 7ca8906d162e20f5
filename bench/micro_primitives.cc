// Micro-benchmarks (google-benchmark) of the library's hot primitives:
// topology construction, oracle selection, histogram aggregation, the
// Lambert-W evaluator, value-noise sampling, and a full simulated protocol
// round. These guard against performance regressions in the simulator
// itself rather than reproducing any paper figure.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "algo/hist_codec.h"
#include "algo/oracle.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "data/noise_image.h"
#include "net/placement.h"
#include "net/spanning_tree.h"
#include "util/lambert_w.h"
#include "util/rng.h"

namespace wsnq {
namespace {

void BM_RadioGraphBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const auto points = UniformPlacement(n, 200.0, 200.0, &rng);
  for (auto _ : state) {
    RadioGraph graph(points, 35.0);
    benchmark::DoNotOptimize(graph.size());
  }
}
BENCHMARK(BM_RadioGraphBuild)->Arg(256)->Arg(1024);

void BM_SpanningTreeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  auto points = ConnectedPlacement(n, 200.0, 200.0, 35.0, &rng);
  RadioGraph graph(points.value(), 35.0);
  for (auto _ : state) {
    auto tree = BuildShortestPathTree(graph, 0);
    benchmark::DoNotOptimize(tree.ok());
  }
}
BENCHMARK(BM_SpanningTreeBuild)->Arg(256)->Arg(1024);

void BM_OracleKth(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<int64_t> values;
  for (int i = 0; i < n; ++i) values.push_back(rng.UniformInt(0, 1023));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OracleKth(values, n / 2));
  }
}
BENCHMARK(BM_OracleKth)->Arg(1024)->Arg(65536);

void BM_HistogramEncode(benchmark::State& state) {
  SparseHistogram hist(64);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    hist.Add(static_cast<int>(rng.UniformInt(0, 63)));
  }
  const WireFormat wire;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.EncodedBits(wire));
  }
}
BENCHMARK(BM_HistogramEncode);

void BM_LambertW(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LambertW0(x));
    x = x < 1e6 ? x * 1.01 : 0.1;
  }
}
BENCHMARK(BM_LambertW);

void BM_NoiseImageSample(benchmark::State& state) {
  NoiseImage image(5);
  double u = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(image.Sample(u, 1.0 - u));
    u += 0.001;
    if (u >= 1.0) u = 0.0;
  }
}
BENCHMARK(BM_NoiseImageSample);

// Scenario construction, uncached: every iteration rebuilds placement,
// routing tree, and value sources from scratch — the per-run cost that
// core/scenario_cache.h exists to amortize.
void BM_BuildScenarioSynthetic(benchmark::State& state) {
  SimulationConfig config;
  config.num_sensors = static_cast<int>(state.range(0));
  int run = 0;
  for (auto _ : state) {
    auto scenario = BuildScenario(config, run % 8);
    benchmark::DoNotOptimize(scenario.ok());
    ++run;
  }
}
BENCHMARK(BM_BuildScenarioSynthetic)->Arg(64)->Arg(256);

void BM_BuildScenarioPressure(benchmark::State& state) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = static_cast<int>(state.range(0));
  config.radio_range = 70.0;
  config.pressure_scale_bits = 12;
  config.rounds = 60;
  int run = 0;
  for (auto _ : state) {
    auto scenario = BuildScenario(config, run % 8);
    benchmark::DoNotOptimize(scenario.ok());
    ++run;
  }
}
BENCHMARK(BM_BuildScenarioPressure)->Arg(40)->Arg(120);

// Same constructions through a pre-populated sealed cache: measures the
// assembly-only cost left after trace/placement/tree artifacts are shared.
void BM_BuildScenarioPressureCached(benchmark::State& state) {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = static_cast<int>(state.range(0));
  config.radio_range = 70.0;
  config.pressure_scale_bits = 12;
  config.rounds = 60;
  constexpr int kRuns = 8;
  ScenarioCache cache;
  if (Status status = cache.Prepare(config, kRuns); !status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  int run = 0;
  for (auto _ : state) {
    auto scenario = cache.Build(config, run % kRuns);
    benchmark::DoNotOptimize(scenario.ok());
    ++run;
  }
}
BENCHMARK(BM_BuildScenarioPressureCached)->Arg(40)->Arg(120);

// Per-round value access: the lazy ValuesByVertex copy versus a view into
// rows materialized once per run (Scenario::MaterializeValues).
void BM_ValuesByVertex(benchmark::State& state) {
  SimulationConfig config;
  config.num_sensors = 256;
  auto scenario = BuildScenario(config, 0);
  int64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario.value().ValuesByVertex(round % 200).size());
    ++round;
  }
}
BENCHMARK(BM_ValuesByVertex);

void BM_ValuesViewMaterialized(benchmark::State& state) {
  SimulationConfig config;
  config.num_sensors = 256;
  auto scenario = BuildScenario(config, 0);
  scenario.value().MaterializeValues(200);
  int64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario.value().ValuesView(round % 200).size());
    ++round;
  }
}
BENCHMARK(BM_ValuesViewMaterialized);

void BM_FullProtocolRound(benchmark::State& state) {
  SimulationConfig config;
  config.num_sensors = 256;
  config.check_oracle = false;
  auto scenario = BuildScenario(config, 0);
  auto protocol =
      MakeProtocol(AlgorithmKind::kIq, scenario.value().k,
                   scenario.value().source->range_min(),
                   scenario.value().source->range_max(), config.wire);
  Network* net = scenario.value().network.get();
  int64_t round = 0;
  net->BeginRound();
  protocol->RunRound(net, scenario.value().ValuesByVertex(0), round++);
  for (auto _ : state) {
    net->BeginRound();
    protocol->RunRound(net, scenario.value().ValuesByVertex(round % 200),
                       round);
    ++round;
  }
}
BENCHMARK(BM_FullProtocolRound);

// The experiment hot loop (core/experiment.cc's run_protocols stage): one
// update round of every paper protocol over a shared synthetic scenario
// with materialized value rows. Per-protocol per-round cost is the
// items/s counter (items = protocol-rounds).
void BM_RunProtocols(benchmark::State& state) {
  SimulationConfig config;
  config.num_sensors = static_cast<int>(state.range(0));
  config.check_oracle = false;
  auto scenario = BuildScenario(config, 0);
  if (!scenario.ok()) {
    state.SkipWithError(scenario.status().ToString().c_str());
    return;
  }
  constexpr int64_t kCycleRounds = 64;
  scenario.value().MaterializeValues(kCycleRounds + 1);
  Network* net = scenario.value().network.get();
  std::vector<std::unique_ptr<QuantileProtocol>> protocols;
  for (AlgorithmKind kind : PaperAlgorithms()) {
    protocols.push_back(MakeProtocol(kind, scenario.value().k,
                                     scenario.value().source->range_min(),
                                     scenario.value().source->range_max(),
                                     config.wire));
  }
  // Initialization rounds (round 0) stay outside the timed loop: the
  // steady-state update round is what run_protocols spends its time in.
  for (auto& protocol : protocols) {
    net->BeginRound();
    protocol->RunRound(net, scenario.value().ValuesView(0), 0);
  }
  int64_t round = 1;
  for (auto _ : state) {
    const std::vector<int64_t>& values =
        scenario.value().ValuesView(1 + (round - 1) % kCycleRounds);
    for (auto& protocol : protocols) {
      net->BeginRound();
      protocol->RunRound(net, values, round);
    }
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(protocols.size()));
}
BENCHMARK(BM_RunProtocols)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wsnq

BENCHMARK_MAIN();
