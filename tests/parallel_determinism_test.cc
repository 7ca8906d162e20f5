// Differential determinism test of the parallel experiment engine: for a
// grid of configurations (synthetic and pressure, with and without uplink
// message loss), RunExperiment with --threads=1 and with threads in
// {2, 3, 8} must produce identical aggregates — not approximately equal,
// bit-for-bit equal in every field. This is the contract that lets every
// bench default to the pool without invalidating a single committed
// number (see util/thread_pool.h and the fold in core/experiment.cc).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "util/stats.h"

namespace wsnq {
namespace {

// Exact comparison — EXPECT_EQ on doubles, no tolerance. RunningStat is
// compared through its full observable state (count, mean, variance, min,
// max); mean/variance cover the accumulator's internal mean_/m2_ exactly.
void ExpectStatIdentical(const RunningStat& serial,
                         const RunningStat& parallel, const char* field,
                         const std::string& context) {
  EXPECT_EQ(serial.count(), parallel.count()) << context << " " << field;
  EXPECT_EQ(serial.mean(), parallel.mean()) << context << " " << field;
  EXPECT_EQ(serial.variance(), parallel.variance())
      << context << " " << field;
  EXPECT_EQ(serial.min(), parallel.min()) << context << " " << field;
  EXPECT_EQ(serial.max(), parallel.max()) << context << " " << field;
}

void ExpectAggregatesIdentical(
    const std::vector<AlgorithmAggregate>& serial,
    const std::vector<AlgorithmAggregate>& parallel,
    const std::string& context) {
  ASSERT_EQ(serial.size(), parallel.size()) << context;
  for (size_t i = 0; i < serial.size(); ++i) {
    const AlgorithmAggregate& s = serial[i];
    const AlgorithmAggregate& p = parallel[i];
    const std::string ctx = context + " algo=" + s.label;
    EXPECT_EQ(s.label, p.label) << ctx;
    EXPECT_EQ(s.runs, p.runs) << ctx;
    EXPECT_EQ(s.errors, p.errors) << ctx;
    EXPECT_EQ(s.max_rank_error, p.max_rank_error) << ctx;
    ExpectStatIdentical(s.max_round_energy_mj, p.max_round_energy_mj,
                        "max_round_energy_mj", ctx);
    ExpectStatIdentical(s.lifetime_rounds, p.lifetime_rounds,
                        "lifetime_rounds", ctx);
    ExpectStatIdentical(s.packets, p.packets, "packets", ctx);
    ExpectStatIdentical(s.values, p.values, "values", ctx);
    ExpectStatIdentical(s.refinements, p.refinements, "refinements", ctx);
    ExpectStatIdentical(s.rank_error, p.rank_error, "rank_error", ctx);
  }
}

struct GridCase {
  const char* name;
  SimulationConfig config;
};

std::vector<GridCase> ConfigGrid() {
  std::vector<GridCase> grid;

  {
    GridCase c{"synthetic", {}};
    c.config.num_sensors = 24;
    c.config.radio_range = 70.0;
    c.config.rounds = 12;
    grid.push_back(c);
  }
  {
    // Message loss makes rank_error / max_rank_error nontrivial and
    // exercises the per-protocol deterministic loss replay.
    GridCase c{"synthetic+loss", {}};
    c.config.num_sensors = 24;
    c.config.radio_range = 70.0;
    c.config.rounds = 12;
    c.config.fault.loss = 0.08;
    grid.push_back(c);
  }
  {
    // Bursty loss + ARQ: the Gilbert–Elliott chains and the stop-and-wait
    // retransmission clock must be counter-keyed, never stream-drawn, for
    // this to hold across thread counts.
    GridCase c{"synthetic+ge+arq", {}};
    c.config.num_sensors = 24;
    c.config.radio_range = 70.0;
    c.config.rounds = 12;
    c.config.fault.loss = 0.15;
    c.config.fault.loss_model = LossModel::kGilbertElliott;
    c.config.fault.burst_len = 3.0;
    c.config.fault.arq.enabled = true;
    grid.push_back(c);
  }
  {
    // Node churn with tree repair: crash/recovery transitions and the
    // repaired trees must also be schedule-independent.
    GridCase c{"synthetic+churn", {}};
    c.config.num_sensors = 24;
    c.config.radio_range = 70.0;
    c.config.rounds = 12;
    c.config.fault.loss = 0.1;
    c.config.fault.crash_nodes = 3;
    c.config.fault.crash_round = 3;
    c.config.fault.crash_len = 4;
    c.config.fault.arq.enabled = true;
    grid.push_back(c);
  }
  {
    // Multi-value nodes change the population shape.
    GridCase c{"synthetic+multivalue", {}};
    c.config.num_sensors = 16;
    c.config.radio_range = 70.0;
    c.config.rounds = 10;
    c.config.values_per_node = 2;
    c.config.seed = 7;
    grid.push_back(c);
  }
  {
    GridCase c{"pressure", {}};
    c.config.dataset = DatasetKind::kPressure;
    c.config.pressure.num_stations = 40;
    c.config.radio_range = 70.0;
    c.config.pressure_scale_bits = 12;
    c.config.rounds = 10;
    grid.push_back(c);
  }
  {
    GridCase c{"pressure+loss", {}};
    c.config.dataset = DatasetKind::kPressure;
    c.config.pressure.num_stations = 40;
    c.config.radio_range = 70.0;
    c.config.pressure_scale_bits = 12;
    c.config.rounds = 10;
    c.config.fault.loss = 0.1;
    c.config.seed = 3;
    grid.push_back(c);
  }
  return grid;
}

TEST(ParallelDeterminism, ThreadCountNeverChangesAggregates) {
  constexpr int kRuns = 6;
  for (GridCase& grid_case : ConfigGrid()) {
    grid_case.config.threads = 1;
    auto serial = RunExperiment(grid_case.config, PaperAlgorithms(), kRuns);
    ASSERT_TRUE(serial.ok())
        << grid_case.name << ": " << serial.status().ToString();
    for (int threads : {2, 3, 8}) {
      grid_case.config.threads = threads;
      auto parallel =
          RunExperiment(grid_case.config, PaperAlgorithms(), kRuns);
      ASSERT_TRUE(parallel.ok())
          << grid_case.name << ": " << parallel.status().ToString();
      ExpectAggregatesIdentical(
          serial.value(), parallel.value(),
          std::string(grid_case.name) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, ScenarioCacheNeverChangesAggregates) {
  // Every RunExperiment call prepares a fresh scenario cache
  // (core/scenario_cache.h) and shares its artifacts read-only across runs
  // and threads. Repeated calls at threads {1, 2, 8} must agree bit-for-bit
  // with a first serial call on every grid case: the cache may only change
  // wall-clock, never a single output bit. (Cached scenarios equal uncached
  // ones field by field in scenario_cache_test.cc.)
  constexpr int kRuns = 5;
  for (GridCase& grid_case : ConfigGrid()) {
    grid_case.config.threads = 1;
    auto baseline = RunExperiment(grid_case.config, PaperAlgorithms(), kRuns);
    ASSERT_TRUE(baseline.ok())
        << grid_case.name << ": " << baseline.status().ToString();
    for (int threads : {1, 2, 8}) {
      grid_case.config.threads = threads;
      auto result = RunExperiment(grid_case.config, PaperAlgorithms(), kRuns);
      ASSERT_TRUE(result.ok())
          << grid_case.name << ": " << result.status().ToString();
      ExpectAggregatesIdentical(
          baseline.value(), result.value(),
          std::string(grid_case.name) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, SubtreeParallelNeverChangesAggregates) {
  // In-run subtree parallelism (net/wave.h): every grid case — reliable,
  // lossy, bursty+ARQ, churn — must agree field-exactly with the classic
  // serial wave loop for every thread count and every registered protocol
  // (the paper's six plus the ablations, the adaptive switch, and the
  // approximate tier). On the reliable medium the engine records sends per
  // part and replays them serially; with a transport policy it falls back
  // to the serial loop. The split must be invisible in every aggregate bit.
  constexpr int kRuns = 4;
  std::vector<AlgorithmKind> algorithms = PaperAlgorithms();
  for (AlgorithmKind kind :
       {AlgorithmKind::kPosSr, AlgorithmKind::kHbcNtb,
        AlgorithmKind::kSnapshot, AlgorithmKind::kSwitching,
        AlgorithmKind::kQdigest, AlgorithmKind::kGk,
        AlgorithmKind::kSampling}) {
    algorithms.push_back(kind);
  }
  for (GridCase& grid_case : ConfigGrid()) {
    grid_case.config.threads = 1;
    grid_case.config.subtree_parallel = false;
    auto serial = RunExperiment(grid_case.config, algorithms, kRuns);
    ASSERT_TRUE(serial.ok())
        << grid_case.name << ": " << serial.status().ToString();
    grid_case.config.subtree_parallel = true;
    for (int threads : {1, 2, 8}) {
      grid_case.config.threads = threads;
      auto subtree = RunExperiment(grid_case.config, algorithms, kRuns);
      ASSERT_TRUE(subtree.ok())
          << grid_case.name << ": " << subtree.status().ToString();
      ExpectAggregatesIdentical(
          serial.value(), subtree.value(),
          std::string(grid_case.name) +
              " subtree-parallel threads=" + std::to_string(threads));
    }
    grid_case.config.subtree_parallel = false;
  }
}

TEST(ParallelDeterminism, ParallelRepeatsAreSelfConsistent) {
  // Scheduling noise between two identical parallel invocations must not
  // leak into the results either.
  SimulationConfig config;
  config.num_sensors = 24;
  config.radio_range = 70.0;
  config.rounds = 12;
  config.fault.loss = 0.05;
  config.threads = 8;
  auto first = RunExperiment(config, PaperAlgorithms(), 6);
  auto second = RunExperiment(config, PaperAlgorithms(), 6);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectAggregatesIdentical(first.value(), second.value(), "repeat");
}

TEST(ParallelDeterminism, ScenarioFailureReportsSmallestRunDeterministically) {
  // An impossible deployment fails scenario construction in every run; the
  // parallel path must report the same (smallest-run) failure the serial
  // path does, regardless of scheduling.
  SimulationConfig config;
  config.num_sensors = 40;
  config.radio_range = 0.001;  // never connectable
  config.rounds = 3;
  config.threads = 1;
  auto serial = RunExperiment(config, PaperAlgorithms(), 4);
  ASSERT_FALSE(serial.ok());
  for (int threads : {2, 8}) {
    config.threads = threads;
    auto parallel = RunExperiment(config, PaperAlgorithms(), 4);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().code(), serial.status().code());
    EXPECT_EQ(parallel.status().message(), serial.status().message());
  }
}

}  // namespace
}  // namespace wsnq
