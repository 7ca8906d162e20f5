// Scenario-cache coverage (core/scenario_cache.h): content-key derivation,
// hit/miss accounting, each key built once however many threads ask for it
// first, aliasing of the shared-immutable artifacts across runs and sweep
// points (including under the ThreadPool), and — the load-bearing property
// — cached scenarios bit-identical to uncached ones, and aggregates
// identical at any thread count. Runs under the tsan CI job so concurrent
// first use of the cache is race-checked.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_cache.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace {

SimulationConfig SmallSynthetic() {
  SimulationConfig config;
  config.num_sensors = 24;
  config.radio_range = 70.0;
  config.rounds = 10;
  return config;
}

SimulationConfig SmallPressure() {
  SimulationConfig config;
  config.dataset = DatasetKind::kPressure;
  config.pressure.num_stations = 40;
  config.radio_range = 70.0;
  config.pressure_scale_bits = 12;
  config.rounds = 8;
  return config;
}

void ExpectScenariosIdentical(const Scenario& a, const Scenario& b,
                              int rounds, const std::string& context) {
  ASSERT_NE(a.network, nullptr) << context;
  ASSERT_NE(b.network, nullptr) << context;
  EXPECT_EQ(a.k, b.k) << context;
  EXPECT_EQ(a.sensor_of_vertex, b.sensor_of_vertex) << context;
  EXPECT_EQ(a.network->root(), b.network->root()) << context;
  EXPECT_EQ(a.network->tree().parent, b.network->tree().parent) << context;
  EXPECT_EQ(a.network->tree().post_order, b.network->tree().post_order)
      << context;
  EXPECT_EQ(a.source->range_min(), b.source->range_min()) << context;
  EXPECT_EQ(a.source->range_max(), b.source->range_max()) << context;
  for (int64_t round = 0; round <= rounds; ++round) {
    EXPECT_EQ(a.ValuesByVertex(round), b.ValuesByVertex(round))
        << context << " round=" << round;
  }
}

// --- Content keys ---------------------------------------------------------

TEST(ScenarioCacheKeys, SyntheticDeploymentIgnoresWorkloadKnobs) {
  const SimulationConfig base = SmallSynthetic();
  SimulationConfig workload = base;
  workload.synthetic.noise_percent = 42.0;
  workload.synthetic.period_rounds = 9.0;
  workload.phi = 0.9;
  workload.rounds = 99;
  // Same deployment: fig7/fig8-style sweeps share the placement.
  EXPECT_EQ(internal::SyntheticDeploymentKey(base, 0),
            internal::SyntheticDeploymentKey(workload, 0));
  // But not the same measurement field.
  EXPECT_NE(internal::SyntheticSourceKey(base, 0),
            internal::SyntheticSourceKey(workload, 0));
}

TEST(ScenarioCacheKeys, SyntheticDeploymentCoversTopologySlice) {
  const SimulationConfig base = SmallSynthetic();
  const std::string key = internal::SyntheticDeploymentKey(base, 0);
  EXPECT_NE(key, internal::SyntheticDeploymentKey(base, 1));  // per-run draw

  SimulationConfig changed = base;
  changed.seed = 99;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.num_sensors = 25;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.values_per_node = 2;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.radio_range = 70.0000001;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
  changed = base;
  changed.area_width = 150.0;
  EXPECT_NE(key, internal::SyntheticDeploymentKey(changed, 0));
}

TEST(ScenarioCacheKeys, PressureTraceKeyTracksEffectiveRounds) {
  const SimulationConfig base = SmallPressure();
  const std::string key = internal::PressureTraceKey(base);
  // The generator draws the whole regional series up front, so the trace —
  // including sample 0 — depends on the effective round count and skip.
  SimulationConfig changed = base;
  // The trace is sized to exactly rounds + 2 samples per stride, so any
  // round-count change reshapes the grid and must change the key.
  changed.rounds = 100;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  changed.rounds = 300;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  changed.rounds = base.rounds;
  EXPECT_EQ(key, internal::PressureTraceKey(changed));
  changed = base;
  changed.pressure.skip = 3;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  // Under a covering max_skip the grid is fixed by the coverage stride, so
  // skip points share one key (and one trace); a skip beyond the cover
  // widens the grid and must split.
  SimulationConfig covered = base;
  covered.pressure.max_skip = 15;
  const std::string covered_key = internal::PressureTraceKey(covered);
  changed = covered;
  changed.pressure.skip = 3;
  EXPECT_EQ(covered_key, internal::PressureTraceKey(changed));
  changed.pressure.skip = 15;
  EXPECT_EQ(covered_key, internal::PressureTraceKey(changed));
  changed.pressure.skip = 16;
  EXPECT_NE(covered_key, internal::PressureTraceKey(changed));
  changed = base;
  changed.pressure.range_setting =
      PressureTrace::RangeSetting::kPessimistic;
  EXPECT_NE(key, internal::PressureTraceKey(changed));
  // The trace is run-invariant: no run index in the key at all, and the
  // workload/deployment keys refine it.
  const std::string workload = internal::PressureWorkloadKey(base);
  const std::string deploy = internal::PressureDeploymentKey(base);
  EXPECT_EQ(workload.compare(0, key.size(), key), 0);
  EXPECT_EQ(deploy.compare(0, key.size(), key), 0);
  changed = base;
  changed.pressure_scale_bits = 14;
  EXPECT_NE(workload, internal::PressureWorkloadKey(changed));
  EXPECT_EQ(deploy, internal::PressureDeploymentKey(changed));
}

TEST(ScenarioCacheKeys, RoutingTreeKeyCoversRootStrategySalt) {
  const std::string deploy = "deploy";
  const std::string key =
      internal::RoutingTreeKey(deploy, 3, ParentSelection::kNearest, 17);
  EXPECT_NE(key,
            internal::RoutingTreeKey(deploy, 4, ParentSelection::kNearest,
                                     17));
  EXPECT_NE(key, internal::RoutingTreeKey(deploy, 3,
                                          ParentSelection::kRandom, 17));
  EXPECT_NE(key,
            internal::RoutingTreeKey(deploy, 3, ParentSelection::kNearest,
                                     18));
  EXPECT_NE(key, internal::RoutingTreeKey("other", 3,
                                          ParentSelection::kNearest, 17));
}

// --- Hit/miss accounting --------------------------------------------------

TEST(ScenarioCacheTest, PrepareThenBuildHitsEverything) {
  const SimulationConfig config = SmallSynthetic();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 3).ok());
  // Per run: deployment + tree + source, each built once.
  EXPECT_EQ(cache.size(), 9);
  EXPECT_EQ(cache.misses(), 9);
  for (int run = 0; run < 3; ++run) {
    auto scenario = cache.Build(config, run);
    ASSERT_TRUE(scenario.ok());
  }
  EXPECT_EQ(cache.misses(), 9);  // all lookups hit
  EXPECT_EQ(cache.hits(), 9);
}

TEST(ScenarioCacheTest, PressureWorkloadBuiltOncePerSeedNotPerRun) {
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 4).ok());
  // One workload + one deployment shared by all runs; only the per-run
  // trees multiply (and even those can collide when two runs draw the
  // same root — the salt differs, so they do not here).
  EXPECT_LE(cache.size(), 2 + 4);
  EXPECT_GE(cache.size(), 2 + 1);
}

/// The two failing configs: run `first_failing` is the first whose
/// placement never connects.
std::vector<std::pair<SimulationConfig, int>> FailingConfigs() {
  SimulationConfig never = SmallSynthetic();
  never.radio_range = 0.001;  // never connectable: run 0 already fails
  // Near the connectivity threshold only some runs find a connected
  // placement: here run 2 is the first to fail, and runs 4 and 5 succeed
  // after it, so a pass that ran past run 2 would grow the map.
  SimulationConfig sometimes = SmallSynthetic();
  sometimes.num_sensors = 8;
  sometimes.radio_range = 55.0;
  return {{never, 0}, {sometimes, 2}};
}

TEST(ScenarioCacheTest, PrepareReportsFirstFailingRunStatus) {
  constexpr int kRuns = 8;
  for (const auto& [config, first_failing] : FailingConfigs()) {
    const std::string context =
        "first failing run " + std::to_string(first_failing);
    for (int run = 0; run < first_failing; ++run) {
      ASSERT_TRUE(BuildScenario(config, run).ok()) << run;
    }
    const auto uncached = BuildScenario(config, first_failing);
    ASSERT_FALSE(uncached.ok());
    ScenarioCache serial;
    ASSERT_FALSE(serial.Prepare(config, kRuns).ok());
    ScenarioCache cache;
    const Status prepared = cache.Prepare(config, kRuns);
    ASSERT_FALSE(prepared.ok()) << context;
    EXPECT_EQ(prepared.code(), uncached.status().code()) << context;
    EXPECT_EQ(prepared.message(), uncached.status().message()) << context;
    EXPECT_EQ(cache.size(), serial.size()) << context;
    EXPECT_EQ(cache.misses(), serial.misses()) << context;
    EXPECT_EQ(cache.hits(), serial.hits()) << context;
  }
}

TEST(ScenarioCacheTest, RunExperimentReportsFirstFailingRunStatus) {
  constexpr int kRuns = 8;
  for (const auto& [failing, first_failing] : FailingConfigs()) {
    const auto uncached = BuildScenario(failing, first_failing);
    ASSERT_FALSE(uncached.ok());
    for (int threads : {1, 4}) {
      const std::string context = "first failing run " +
                                  std::to_string(first_failing) +
                                  " threads=" + std::to_string(threads);
      SimulationConfig config = failing;
      config.threads = threads;
      const auto result = RunExperiment(
          config, std::vector<AlgorithmKind>{PaperAlgorithms()[0]}, kRuns);
      ASSERT_FALSE(result.ok()) << context;
      EXPECT_EQ(result.status().code(), uncached.status().code()) << context;
      EXPECT_EQ(result.status().message(), uncached.status().message())
          << context;
    }
  }
}

// --- Concurrent first use -------------------------------------------------

TEST(ScenarioCacheTest, ConcurrentFirstUseBuildsEachKeyOnce) {
  // Every requester arrives while the first one's build is still open, so
  // a cache that checked, built and then inserted — with no in-flight
  // marker — would build the key once per requester.
  constexpr int kThreads = 4;
  for (bool fail : {false, true}) {
    const std::string context = fail ? "failing build" : "build";
    ScenarioCache cache;
    ThreadPool pool(kThreads);
    std::atomic<int> arrived{0};
    std::atomic<int> builds{0};
    const internal::ArtifactStore::Builder build =
        [&]() -> StatusOr<std::shared_ptr<const void>> {
      ++builds;
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Give the last arrival time to reach its lookup too.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (fail) return Status::FailedPrecondition("no artifact");
      return std::shared_ptr<const void>(std::make_shared<const int>(7));
    };
    std::vector<StatusOr<std::shared_ptr<const void>>> got(
        kThreads, Status::Internal("unset"));
    const Status status = pool.ParallelFor(kThreads, [&](int64_t i) {
      ++arrived;
      got[static_cast<size_t>(i)] = cache.GetOrBuild("one-key", build);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << context;
    EXPECT_EQ(builds.load(), 1) << context;
    EXPECT_EQ(cache.misses(), 1) << context;
    EXPECT_EQ(cache.hits(), kThreads - 1) << context;
    EXPECT_EQ(cache.size(), 1) << context;
    for (const auto& result : got) {
      EXPECT_EQ(result.ok(), !fail) << context;
      if (fail) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << context;
        EXPECT_EQ(result.status().message(), "no artifact") << context;
      } else if (result.ok()) {
        EXPECT_EQ(result.value(), got[0].value()) << context;
      }
    }
  }
}

TEST(ScenarioCacheTest, ParallelBuildsMatchSerialBuilds) {
  SimulationConfig multivalue = SmallSynthetic();
  multivalue.values_per_node = 2;
  SimulationConfig lossy = SmallPressure();
  lossy.fault.loss = 0.2;
  const std::vector<std::pair<std::string, SimulationConfig>> configs = {
      {"synthetic", SmallSynthetic()},
      {"synthetic+multivalue", multivalue},
      {"pressure", SmallPressure()},
      {"pressure+loss", lossy}};
  constexpr int kRuns = 6;
  for (const auto& [name, config] : configs) {
    ScenarioCache serial;
    std::vector<Scenario> expected;
    for (int run = 0; run < kRuns; ++run) {
      auto scenario = serial.Build(config, run);
      ASSERT_TRUE(scenario.ok()) << name;
      expected.push_back(std::move(scenario).value());
    }
    for (int threads : {1, 2, 4, 8}) {
      const std::string context = name + " threads=" + std::to_string(threads);
      ThreadPool pool(threads);
      ScenarioCache parallel;
      std::vector<StatusOr<Scenario>> built;
      for (int run = 0; run < kRuns; ++run) {
        built.emplace_back(Status::Internal("unset"));
      }
      const Status status = pool.ParallelFor(kRuns, [&](int64_t run) {
        built[static_cast<size_t>(run)] =
            parallel.Build(config, static_cast<int>(run));
        return Status::Ok();
      });
      ASSERT_TRUE(status.ok()) << context;
      EXPECT_EQ(parallel.size(), serial.size()) << context;
      EXPECT_EQ(parallel.misses(), serial.misses()) << context;
      EXPECT_EQ(parallel.hits(), serial.hits()) << context;
      for (int run = 0; run < kRuns; ++run) {
        ASSERT_TRUE(built[static_cast<size_t>(run)].ok()) << context;
        ExpectScenariosIdentical(built[static_cast<size_t>(run)].value(),
                                 expected[static_cast<size_t>(run)],
                                 config.rounds,
                                 context + " run=" + std::to_string(run));
      }
    }
  }
}

// --- Sharing --------------------------------------------------------------

TEST(ScenarioCacheTest, PressureRunsAliasGraphAndSources) {
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(config, 3).ok());
  auto first = cache.Build(config, 0);
  ASSERT_TRUE(first.ok());
  for (int run = 1; run < 3; ++run) {
    auto scenario = cache.Build(config, run);
    ASSERT_TRUE(scenario.ok());
    // Shared immutable half: same graph object, same source chain.
    EXPECT_EQ(&scenario.value().network->graph(),
              &first.value().network->graph());
    EXPECT_EQ(scenario.value().source, first.value().source);
    // Per-run mutable half: every run owns its Network.
    EXPECT_NE(scenario.value().network.get(), first.value().network.get());
  }
}

TEST(ScenarioCacheTest, SyntheticDeploymentSharedAcrossWorkloadSweep) {
  // fig8-style: only the noise changes between sweep points, so the second
  // point's runs reuse the first point's deployments and trees.
  SimulationConfig quiet = SmallSynthetic();
  SimulationConfig noisy = SmallSynthetic();
  noisy.synthetic.noise_percent = 40.0;
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(quiet, 2).ok());
  const int64_t size_after_first = cache.size();
  ASSERT_TRUE(cache.Prepare(noisy, 2).ok());
  // Only the sources are new; deployments and trees hit.
  EXPECT_EQ(cache.size(), size_after_first + 2);

  auto a = cache.Build(quiet, 1);
  auto b = cache.Build(noisy, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(&a.value().network->graph(), &b.value().network->graph());
  EXPECT_NE(a.value().source, b.value().source);
}

/// Drives `cache` over `configs` the way RunSweep does: per point, evict
/// (when `evict` is set), then build every run.
void BuildSweep(const std::vector<SimulationConfig>& configs, int runs,
                bool evict, ScenarioCache* cache) {
  for (size_t i = 0; i < configs.size(); ++i) {
    if (evict) {
      cache->Evict(std::span<const SimulationConfig>(configs).subspan(i),
                   runs);
    }
    for (int run = 0; run < runs; ++run) {
      ASSERT_TRUE(cache->Build(configs[i], run).ok());
    }
  }
}

TEST(ScenarioCacheTest, EvictionFreesDeploymentsNoPointAheadUses) {
  // fig6-style: every point has its own deployments, so once a point is
  // done nothing ahead can hit them.
  std::vector<SimulationConfig> configs;
  for (int n : {16, 24, 32}) {
    configs.push_back(SmallSynthetic());
    configs.back().num_sensors = n;
  }
  constexpr int kRuns = 3;
  ScenarioCache kept;
  BuildSweep(configs, kRuns, /*evict=*/false, &kept);
  ScenarioCache evicted;
  BuildSweep(configs, kRuns, /*evict=*/true, &evicted);
  ScenarioCache last_only;
  ASSERT_TRUE(last_only.Prepare(configs.back(), kRuns).ok());
  EXPECT_EQ(evicted.size(), last_only.size());
  EXPECT_EQ(kept.size(), 3 * last_only.size());
  EXPECT_EQ(evicted.hits(), kept.hits());
  EXPECT_EQ(evicted.misses(), kept.misses());
}

TEST(ScenarioCacheTest, EvictionKeepsWhatSharedDeploymentSweepsHit) {
  // fig7 (period), fig8 (noise) and fig10 (pressure skip) points share
  // their deployments: eviction must cost no hit and free nothing a later
  // point builds on, and every distinct key is built once per figure —
  // fig7/fig8: 2 deployments + 2 trees + 3 x 2 sources; fig10: one
  // workload + one SOM graph + 2 trees.
  const int64_t distinct_keys[] = {10, 10, 4};
  std::vector<std::vector<SimulationConfig>> sweeps(3);
  for (double period : {8.0, 125.0, 500.0}) {
    sweeps[0].push_back(SmallSynthetic());
    sweeps[0].back().synthetic.period_rounds = period;
  }
  for (double noise : {0.0, 5.0, 40.0}) {
    sweeps[1].push_back(SmallSynthetic());
    sweeps[1].back().synthetic.noise_percent = noise;
  }
  for (int skip : {0, 1, 3}) {
    sweeps[2].push_back(SmallPressure());
    sweeps[2].back().pressure.max_skip = 3;
    sweeps[2].back().pressure.skip = skip;
  }
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const std::string context = "sweep " + std::to_string(i);
    ScenarioCache kept;
    BuildSweep(sweeps[i], 2, /*evict=*/false, &kept);
    ScenarioCache evicted;
    BuildSweep(sweeps[i], 2, /*evict=*/true, &evicted);
    EXPECT_EQ(evicted.hits(), kept.hits()) << context;
    EXPECT_EQ(evicted.misses(), kept.misses()) << context;
    EXPECT_EQ(evicted.size(), kept.size()) << context;
    EXPECT_EQ(kept.size(), distinct_keys[i]) << context;
    EXPECT_EQ(evicted.misses(), distinct_keys[i]) << context;
  }
}

TEST(ScenarioCacheTest, EvictionMatchesKeysOnlyAtFieldBoundaries) {
  // 35 m renders as rho=0x1.18p+5, a string prefix of 35 * 2^45 m's
  // rho=0x1.18p+50: the far-reaching deployment must still go.
  SimulationConfig near = SmallSynthetic();
  near.radio_range = 35.0;
  SimulationConfig far = SmallSynthetic();
  far.radio_range = 35.0 * 0x1p45;
  ScenarioCache cache;
  ASSERT_TRUE(cache.Prepare(far, 1).ok());
  ASSERT_GT(cache.size(), 0);
  const std::vector<SimulationConfig> ahead = {near};
  cache.Evict(ahead, 1);
  EXPECT_EQ(cache.size(), 0);
}

TEST(ScenarioCacheTest, ConcurrentBuildsAreRaceFreeAndIdentical) {
  // Run tasks build through one cache concurrently, the first of them on
  // an empty cache; under tsan this pins the build-once contract.
  const SimulationConfig config = SmallPressure();
  ScenarioCache cache;
  auto reference = BuildScenario(config, 2);
  ASSERT_TRUE(reference.ok());

  constexpr int kTasks = 8;
  std::vector<StatusOr<Scenario>> built;
  built.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    built.emplace_back(Status::Internal("unset"));
  }
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(kTasks, [&](int64_t i) {
    built[static_cast<size_t>(i)] = cache.Build(config, 2);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(cache.misses(), 3);  // workload, SOM graph, run 2's tree
  ASSERT_TRUE(built[0].ok());
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(built[static_cast<size_t>(i)].ok()) << i;
    const Scenario& scenario = built[static_cast<size_t>(i)].value();
    EXPECT_EQ(&scenario.network->graph(), &built[0].value().network->graph());
    ExpectScenariosIdentical(scenario, reference.value(), config.rounds,
                             "task " + std::to_string(i));
  }
}

// --- Bit-identical with and without the cache -----------------------------

TEST(ScenarioCacheTest, CachedScenarioIdenticalToUncached) {
  for (const SimulationConfig& config :
       {SmallSynthetic(), SmallPressure()}) {
    ScenarioCache cache;
    ASSERT_TRUE(cache.Prepare(config, 2).ok());
    for (int run = 0; run < 2; ++run) {
      auto cached = cache.Build(config, run);
      auto uncached = BuildScenario(config, run);
      ASSERT_TRUE(cached.ok());
      ASSERT_TRUE(uncached.ok());
      ExpectScenariosIdentical(cached.value(), uncached.value(),
                               config.rounds,
                               "run " + std::to_string(run));
    }
  }
}

TEST(ScenarioCacheTest, MaterializedValuesMatchLazyRows) {
  auto scenario = BuildScenario(SmallSynthetic(), 0);
  ASSERT_TRUE(scenario.ok());
  Scenario& s = scenario.value();
  EXPECT_EQ(s.materialized_rounds(), 0);
  s.MaterializeValues(8);
  EXPECT_EQ(s.materialized_rounds(), 8);
  for (int64_t round = 0; round < 11; ++round) {
    // Rounds past the materialized prefix exercise the scratch-row path.
    EXPECT_EQ(s.ValuesView(round), s.ValuesByVertex(round))
        << "round " << round;
  }
}

void ExpectAggregateListsIdentical(
    const std::vector<AlgorithmAggregate>& a,
    const std::vector<AlgorithmAggregate>& b, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string ctx = context + " algo=" + a[i].label;
    EXPECT_EQ(a[i].label, b[i].label) << ctx;
    EXPECT_EQ(a[i].runs, b[i].runs) << ctx;
    EXPECT_EQ(a[i].errors, b[i].errors) << ctx;
    EXPECT_EQ(a[i].max_rank_error, b[i].max_rank_error) << ctx;
    EXPECT_EQ(a[i].max_round_energy_mj.mean(),
              b[i].max_round_energy_mj.mean())
        << ctx;
    EXPECT_EQ(a[i].max_round_energy_mj.variance(),
              b[i].max_round_energy_mj.variance())
        << ctx;
    EXPECT_EQ(a[i].lifetime_rounds.mean(), b[i].lifetime_rounds.mean())
        << ctx;
    EXPECT_EQ(a[i].packets.mean(), b[i].packets.mean()) << ctx;
    EXPECT_EQ(a[i].values.mean(), b[i].values.mean()) << ctx;
    EXPECT_EQ(a[i].refinements.mean(), b[i].refinements.mean()) << ctx;
    EXPECT_EQ(a[i].rank_error.mean(), b[i].rank_error.mean()) << ctx;
  }
}

TEST(ScenarioCacheDeterminism, RunSweepMatchesPerPointRunExperiment) {
  const std::vector<double> noise = {0.0, 5.0, 40.0};
  std::vector<SweepPoint> points;
  for (double n : noise) {
    SweepPoint point{std::to_string(n), SmallSynthetic()};
    point.config.synthetic.noise_percent = n;
    point.config.threads = 1;
    points.push_back(std::move(point));
  }
  const auto factories = PaperAlgorithms();
  auto sweep = RunSweep(points, {DefaultFactory(factories[0]),
                                 DefaultFactory(factories[1])},
                        3);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep.value().size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    auto single =
        RunExperiment(points[i].config,
                      std::vector<AlgorithmKind>{factories[0], factories[1]},
                      3);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(sweep.value()[i].x_value, points[i].x_value);
    ExpectAggregateListsIdentical(single.value(),
                                  sweep.value()[i].aggregates,
                                  "point " + points[i].x_value);
  }
}

TEST(ScenarioCacheDeterminism, RunSweepReportsFailingPoint) {
  std::vector<SweepPoint> points;
  SweepPoint good{"64", SmallSynthetic()};
  SweepPoint bad{"zero-range", SmallSynthetic()};
  bad.config.radio_range = 0.001;
  points.push_back(good);
  points.push_back(bad);
  auto sweep = RunSweep(points, {DefaultFactory(PaperAlgorithms()[0])}, 2);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("x=zero-range"), std::string::npos)
      << sweep.status().ToString();
}

}  // namespace
}  // namespace wsnq
