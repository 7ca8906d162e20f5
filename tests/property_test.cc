// Exhaustive / parameterized property sweeps over the substrate primitives:
// packetizer arithmetic, bucket-layout partitioning, energy accounting
// conservation, collection-helper invariants under randomized inputs, and a
// many-seed end-to-end exactness sweep driven through the thread pool.

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algo/common.h"
#include "algo/hist_codec.h"
#include "algo/oracle.h"
#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "net/packetizer.h"
#include "tests/test_scenario.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace {

using testing_support::MakeRandomNetwork;

class PacketizerSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(PacketizerSweep, ArithmeticHolds) {
  const int64_t payload = GetParam();
  Packetizer p;
  const PacketizedMessage msg = p.Packetize(payload);
  if (payload <= 0) {
    EXPECT_EQ(msg.packets, 1);
    EXPECT_EQ(msg.total_bits, p.header_bits);
    return;
  }
  // Fragment count is the ceiling; headers paid per fragment.
  EXPECT_EQ(msg.packets,
            (payload + p.max_payload_bits - 1) / p.max_payload_bits);
  EXPECT_EQ(msg.total_bits, payload + msg.packets * p.header_bits);
  // No fragment is wasted: one fewer packet could not carry the payload.
  EXPECT_GT(payload, (msg.packets - 1) * p.max_payload_bits);
}

INSTANTIATE_TEST_SUITE_P(Payloads, PacketizerSweep,
                         ::testing::Values(0, 1, 8, 1023, 1024, 1025, 2047,
                                           2048, 2049, 10000, 123456));

TEST(PacketizerProperty, MonotoneInPayload) {
  Packetizer p;
  int64_t prev_bits = -1;
  for (int64_t payload = 0; payload <= 4096; payload += 7) {
    const auto msg = p.Packetize(payload);
    EXPECT_GE(msg.total_bits, prev_bits);
    prev_bits = msg.total_bits;
  }
}

class BucketLayoutSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int>> {};

TEST_P(BucketLayoutSweep, PartitionsTheInterval) {
  const auto [lb, ub, buckets] = GetParam();
  const BucketLayout layout(lb, ub, buckets);
  EXPECT_LE(layout.num_buckets(), buckets);
  // Every integer in [lb, ub) falls in exactly one bucket whose bounds
  // contain it; buckets tile the interval in order.
  int previous_bucket = -1;
  for (int64_t v = lb; v < ub; ++v) {
    const int b = layout.BucketOf(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, layout.num_buckets());
    ASSERT_GE(v, layout.BucketLb(b));
    ASSERT_LT(v, layout.BucketUb(b));
    ASSERT_GE(b, previous_bucket);
    previous_bucket = b;
  }
  // Bucket bounds are contiguous.
  for (int b = 0; b + 1 < layout.num_buckets(); ++b) {
    ASSERT_EQ(layout.BucketUb(b), layout.BucketLb(b + 1));
  }
  EXPECT_EQ(layout.BucketLb(0), lb);
  EXPECT_EQ(layout.BucketUb(layout.num_buckets() - 1), ub);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketLayoutSweep,
    ::testing::Values(std::tuple(0L, 100L, 10), std::tuple(0L, 101L, 10),
                      std::tuple(5L, 12L, 4), std::tuple(-50L, 50L, 7),
                      std::tuple(0L, 2L, 16), std::tuple(0L, 1024L, 64),
                      std::tuple(1000L, 1001L, 8),
                      std::tuple(-3L, 61L, 3)));

TEST(EnergyConservation, RoundEnergySumsToTotals) {
  Network net = MakeRandomNetwork(40, 91);
  Rng rng(5);
  std::vector<double> accumulated(static_cast<size_t>(net.num_vertices()),
                                  0.0);
  for (int round = 0; round < 20; ++round) {
    net.BeginRound();
    for (int i = 0; i < 30; ++i) {
      const int v = static_cast<int>(
          rng.UniformInt(0, net.num_vertices() - 1));
      if (rng.Bernoulli(0.5)) {
        net.SendToParent(v, rng.UniformInt(1, 3000));
      } else {
        net.BroadcastToChildren(v, rng.UniformInt(1, 500));
      }
    }
    for (int v = 0; v < net.num_vertices(); ++v) {
      accumulated[static_cast<size_t>(v)] += net.round_energy(v);
    }
  }
  for (int v = 0; v < net.num_vertices(); ++v) {
    EXPECT_NEAR(accumulated[static_cast<size_t>(v)], net.total_energy(v),
                1e-9)
        << "vertex " << v;
  }
}

TEST(EnergyConservation, SendersPayMoreThanReceiversPerBit) {
  // With the default model the distance term makes every transmitted bit
  // at least as expensive as a received one — so the network-wide energy
  // of any convergecast is at most 2x the senders' share.
  Network net = MakeRandomNetwork(30, 93);
  net.BeginRound();
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  Rng rng(7);
  for (auto& v : values) v = rng.UniformInt(0, 1023);
  WaveWorkspace ws;
  RangeValuesConvergecast(&net, values, 0, 1023, WireFormat{}, &ws);
  double total = 0.0, max_node = 0.0;
  for (int v = 0; v < net.num_vertices(); ++v) {
    total += net.round_energy(v);
    max_node = std::max(max_node, net.round_energy(v));
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LT(max_node, total);  // no node pays everything
}

TEST(CollectionProperty, KSmallestIsPrefixOfSortedPopulation) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Network net = MakeRandomNetwork(35, 100 + seed);
    Rng rng(seed);
    std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 40);  // many ties
    }
    const auto sensors = SensorValues(net, values);
    std::vector<int64_t> sorted = sensors;
    std::sort(sorted.begin(), sorted.end());
    WaveWorkspace ws;
    for (int64_t k : {int64_t{1}, int64_t{10}, int64_t{35}}) {
      net.BeginRound();
      const auto& collected =
          CollectKSmallest(&net, values, k, WireFormat{}, &ws);
      // Prefix property:
      ASSERT_GE(static_cast<int64_t>(collected.size()), k);
      for (size_t i = 0; i < collected.size(); ++i) {
        ASSERT_EQ(collected[i], sorted[i]) << "k=" << k << " i=" << i;
      }
      // Tie-completeness: every duplicate of the k-th smallest arrived.
      const int64_t kth = sorted[static_cast<size_t>(k - 1)];
      ASSERT_EQ(std::count(collected.begin(), collected.end(), kth),
                std::count(sensors.begin(), sensors.end(), kth));
    }
  }
}

TEST(CollectionProperty, TopFMatchesBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Network net = MakeRandomNetwork(25, 200 + trial);
    std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 30);
    }
    const int64_t lo = rng.UniformInt(0, 15);
    const int64_t hi = lo + rng.UniformInt(0, 15);
    const int64_t f = rng.UniformInt(1, 5);
    const bool largest = rng.Bernoulli(0.5);
    net.BeginRound();
    WaveWorkspace ws;
    const auto& got = TopFConvergecast(&net, values, lo, hi, f, largest,
                                       WireFormat{}, &ws);
    // Brute force: all in-range values, sorted; take f extremes + ties.
    std::vector<int64_t> in_range;
    for (int v = 1; v < net.num_vertices(); ++v) {
      const int64_t x = values[static_cast<size_t>(v)];
      if (x >= lo && x <= hi) in_range.push_back(x);
    }
    std::sort(in_range.begin(), in_range.end());
    if (largest) std::reverse(in_range.begin(), in_range.end());
    std::vector<int64_t> expected;
    if (!in_range.empty()) {
      const size_t limit = std::min<size_t>(static_cast<size_t>(f),
                                            in_range.size());
      const int64_t cutoff = in_range[limit - 1];
      for (int64_t x : in_range) {
        if (static_cast<int64_t>(expected.size()) < f || x == cutoff) {
          if ((largest && x >= cutoff) || (!largest && x <= cutoff)) {
            expected.push_back(x);
          }
        }
      }
      std::sort(expected.begin(), expected.end());
    }
    ASSERT_EQ(got, expected) << "trial " << trial;
  }
}

// Checks one seed's experiment end to end; returns a non-OK Status naming
// the seed and protocol on any exactness violation, so the pool surfaces
// the smallest failing seed deterministically.
Status CheckSeedIsExact(const SimulationConfig& base, uint64_t seed) {
  SimulationConfig config = base;
  config.seed = seed;
  config.threads = 1;  // the sweep itself is the parallel dimension
  auto aggregates = RunExperiment(config, PaperAlgorithms(), 1);
  if (!aggregates.ok()) return aggregates.status();
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    if (agg.errors != 0 || agg.max_rank_error != 0) {
      return Status::Internal(
          "seed " + std::to_string(seed) + " algo " + agg.label +
          ": errors=" + std::to_string(agg.errors) +
          " max_rank_error=" + std::to_string(agg.max_rank_error));
    }
  }
  return Status::Ok();
}

TEST(SeedSweep, SyntheticExactForManySeedsThroughThePool) {
  // 64 fresh topologies + traces, fanned out over the pool: every protocol
  // must answer every round exactly (the paper's correctness claim), and a
  // violation reports its smallest seed regardless of scheduling.
  SimulationConfig base;
  base.num_sensors = 24;
  base.radio_range = 70.0;
  base.rounds = 8;
  constexpr int64_t kSeeds = 64;
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(kSeeds, [&](int64_t i) {
    return CheckSeedIsExact(base, static_cast<uint64_t>(i + 1));
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SeedSweep, PressureExactForManySeedsThroughThePool) {
  SimulationConfig base;
  base.dataset = DatasetKind::kPressure;
  base.pressure.num_stations = 30;
  // SOM station layouts are sparser than uniform placements; a generous
  // range keeps all 16 seeds connectable.
  base.radio_range = 110.0;
  base.pressure_scale_bits = 12;
  base.rounds = 6;
  constexpr int64_t kSeeds = 16;
  ThreadPool pool(4);
  const Status status = pool.ParallelFor(kSeeds, [&](int64_t i) {
    return CheckSeedIsExact(base, static_cast<uint64_t>(i + 1));
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(OracleProperty, CountsConsistentWithKth) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> values;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < n; ++i) values.push_back(rng.UniformInt(0, 20));
    for (int64_t k = 1; k <= n; ++k) {
      const int64_t kth = OracleKth(values, k);
      const RootCounts counts = OracleCounts(values, kth);
      // The k-th value's rank band covers k.
      EXPECT_TRUE(CountsValid(counts, k)) << "n=" << n << " k=" << k;
      EXPECT_EQ(OracleRankError(values, kth, k), 0);
    }
  }
}

}  // namespace
}  // namespace wsnq
