#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "algo/common.h"
#include "algo/cost_model.h"
#include "algo/hist_codec.h"
#include "algo/oracle.h"
#include "net/network.h"
#include "net/placement.h"
#include "util/rng.h"

namespace wsnq {
namespace {

Network MakeLineNetwork(int n, int root = 0) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * 10.0, 0.0});
  auto net = Network::Create(RadioGraph(points, 10.5), root, EnergyModel{},
                             Packetizer{});
  return std::move(net).value();
}

TEST(OracleTest, KthMatchesSort) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> values;
    for (int i = 0; i < 101; ++i) values.push_back(rng.UniformInt(0, 50));
    std::vector<int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (int64_t k : {int64_t{1}, int64_t{50}, int64_t{101}}) {
      EXPECT_EQ(OracleKth(values, k), sorted[static_cast<size_t>(k - 1)]);
    }
  }
}

TEST(OracleTest, CountsPartitionPopulation) {
  Rng rng(2);
  std::vector<int64_t> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.UniformInt(0, 30));
  const RootCounts counts = OracleCounts(values, 15);
  EXPECT_EQ(counts.l + counts.e + counts.g, 200);
  EXPECT_EQ(counts.l, std::count_if(values.begin(), values.end(),
                                    [](int64_t v) { return v < 15; }));
  EXPECT_EQ(counts.e, std::count(values.begin(), values.end(), 15));
}

TEST(RegionTest, Classify) {
  EXPECT_EQ(ClassifyThreshold(4, 5), Region::kLt);
  EXPECT_EQ(ClassifyThreshold(5, 5), Region::kEq);
  EXPECT_EQ(ClassifyThreshold(6, 5), Region::kGt);
}

TEST(ValidationAggTest, TransitionsAndHints) {
  ValidationAgg agg;
  EXPECT_TRUE(agg.empty());
  agg.AddTransition(Region::kLt, Region::kLt, 3);  // no-op
  EXPECT_TRUE(agg.empty());
  agg.AddTransition(Region::kLt, Region::kGt, 9);
  EXPECT_EQ(agg.outof_lt, 1);
  EXPECT_EQ(agg.into_gt, 1);
  EXPECT_TRUE(agg.has_hint);
  EXPECT_EQ(agg.min_changed, 9);
  agg.AddTransition(Region::kGt, Region::kEq, 2);
  EXPECT_EQ(agg.outof_gt, 1);
  EXPECT_EQ(agg.min_changed, 2);
  EXPECT_EQ(agg.max_changed, 9);

  ValidationAgg other;
  other.AddTransition(Region::kEq, Region::kLt, 11);
  agg.Merge(other);
  EXPECT_EQ(agg.into_lt, 1);
  EXPECT_EQ(agg.max_changed, 11);
}

TEST(ValidationAggTest, ApplyCountersRederivesE) {
  RootCounts counts{10, 5, 15};  // population 30
  ValidationAgg agg;
  agg.into_lt = 3;
  agg.outof_lt = 1;
  agg.into_gt = 2;
  agg.outof_gt = 4;
  ApplyCounters(agg, 30, &counts);
  EXPECT_EQ(counts.l, 12);
  EXPECT_EQ(counts.g, 13);
  EXPECT_EQ(counts.e, 5);
  EXPECT_TRUE(CountsValid(counts, 13));
  EXPECT_FALSE(CountsValid(counts, 12));
  EXPECT_FALSE(CountsValid(counts, 18));
}

TEST(CollectKSmallestTest, GathersKWithTies) {
  Network net = MakeLineNetwork(8, 0);
  // Vertices 1..7 measure; duplicates of the k-th smallest must survive.
  std::vector<int64_t> values = {0, 9, 3, 7, 3, 5, 3, 1};
  const auto collected = CollectKSmallest(&net, values, 3, WireFormat{});
  // Sorted sensor values: 1 3 3 3 5 7 9 -> k=3 smallest plus ties of 3.
  const std::vector<int64_t> expected = {1, 3, 3, 3};
  EXPECT_EQ(collected, expected);
  const RootCounts counts = CountsFromCollection(collected, 3, 7);
  EXPECT_EQ(counts.l, 1);
  EXPECT_EQ(counts.e, 3);
  EXPECT_EQ(counts.g, 3);
}

TEST(CollectKSmallestTest, SmallPopulationReturnsAll) {
  Network net = MakeLineNetwork(4, 0);
  std::vector<int64_t> values = {0, 5, 2, 8};
  const auto collected = CollectKSmallest(&net, values, 10, WireFormat{});
  const std::vector<int64_t> expected = {2, 5, 8};
  EXPECT_EQ(collected, expected);
}

TEST(RangeValuesConvergecastTest, CollectsExactlyInRange) {
  Network net = MakeLineNetwork(10, 0);
  std::vector<int64_t> values = {0, 1, 5, 9, 4, 7, 5, 2, 8, 6};
  const auto collected =
      RangeValuesConvergecast(&net, values, 4, 7, WireFormat{});
  const std::vector<int64_t> expected = {4, 5, 5, 6, 7};
  EXPECT_EQ(collected, expected);
}

TEST(TopFConvergecastTest, LargestWithTies) {
  Network net = MakeLineNetwork(9, 0);
  std::vector<int64_t> values = {0, 3, 8, 8, 5, 9, 1, 8, 2};
  // Request the 2 largest in [0, 9]; 8 is the cutoff and has 3 copies.
  const auto r =
      TopFConvergecast(&net, values, 0, 9, 2, /*largest=*/true, WireFormat{});
  const std::vector<int64_t> expected = {8, 8, 8, 9};
  EXPECT_EQ(r, expected);
}

TEST(TopFConvergecastTest, SmallestRespectsInterval) {
  Network net = MakeLineNetwork(9, 0);
  std::vector<int64_t> values = {0, 3, 8, 8, 5, 9, 1, 8, 2};
  const auto r = TopFConvergecast(&net, values, 2, 9, 3, /*largest=*/false,
                                  WireFormat{});
  const std::vector<int64_t> expected = {2, 3, 5};
  EXPECT_EQ(r, expected);
}

// The merge helpers behind every list-carrying wave, against an
// independent reference: concatenate + std::sort, then keep exactly the
// elements with fewer than `limit` elements strictly ahead of them (the
// first `limit` plus every tie of the limit-th).
template <typename Cmp>
std::vector<int64_t> ReferenceMerge(std::vector<int64_t> mine,
                                    const std::vector<int64_t>& child,
                                    int64_t limit, Cmp cmp) {
  mine.insert(mine.end(), child.begin(), child.end());
  std::sort(mine.begin(), mine.end(), cmp);
  std::vector<int64_t> kept;
  for (const int64_t x : mine) {
    const auto ahead = std::count_if(mine.begin(), mine.end(),
                                     [&](int64_t y) { return cmp(y, x); });
    if (ahead < limit) kept.push_back(x);
  }
  return kept;
}

/// A tie-heavy sorted run of `size` values in [0, 12].
template <typename Cmp>
std::vector<int64_t> SortedRun(Rng* rng, int64_t size, Cmp cmp) {
  std::vector<int64_t> run;
  for (int64_t i = 0; i < size; ++i) run.push_back(rng->UniformInt(0, 12));
  std::sort(run.begin(), run.end(), cmp);
  return run;
}

template <typename Cmp>
void CheckMergeHelpers(uint64_t seed, Cmp cmp) {
  Rng rng(seed);
  constexpr int64_t kNoLimit = 1 << 20;
  std::vector<int64_t> scratch;  // reused across trials, like a lane's
  scratch.reserve(64);
  int empty_mine = 0;
  int tiny_child = 0;
  int general = 0;
  for (int trial = 0; trial < 600; ++trial) {
    // Sizes cover the empty-`mine` path, the <= 8-element binary-insert
    // path and the general std::merge path, each with an empty child too.
    const int64_t mine_size =
        rng.UniformInt(0, 3) == 0 ? 0 : rng.UniformInt(1, 30);
    const int64_t child_size = rng.UniformInt(0, 1) == 0
                                   ? rng.UniformInt(0, 8)
                                   : rng.UniformInt(9, 40);
    if (child_size > 0) {
      if (mine_size == 0) {
        ++empty_mine;
      } else if (child_size <= 8) {
        ++tiny_child;
      } else {
        ++general;
      }
    }
    const std::vector<int64_t> mine0 = SortedRun(&rng, mine_size, cmp);
    const std::vector<int64_t> child0 = SortedRun(&rng, child_size, cmp);
    const int64_t limit = rng.UniformInt(1, 45);

    std::vector<int64_t> mine = mine0;
    std::vector<int64_t> child = child0;
    mine.reserve(mine.size() + 1);  // every row owns a buffer, as when warm
    child.reserve(child.size() + 1);
    const int64_t* child_buffer = child.data();
    const int64_t* scratch_buffer = scratch.data();
    MergeSortedInto(&mine, &child, &scratch, cmp);
    EXPECT_EQ(mine, ReferenceMerge(mine0, child0, kNoLimit, cmp))
        << "trial " << trial;
    EXPECT_TRUE(child.empty());
    // Ownership: the result lives in `mine`'s own buffer; `child` keeps
    // its buffer and `mine` never takes `child`'s or `scratch`'s.
    EXPECT_EQ(child.data(), child_buffer) << "trial " << trial;
    if (!mine.empty()) {
      EXPECT_NE(mine.data(), child_buffer) << "trial " << trial;
      EXPECT_NE(mine.data(), scratch_buffer) << "trial " << trial;
    }

    std::vector<int64_t> truncated = mine0;
    child = child0;
    child_buffer = child.data();
    scratch_buffer = scratch.data();
    MergeTruncatedInto(&truncated, &child, &scratch, limit, cmp);
    EXPECT_EQ(truncated, ReferenceMerge(mine0, child0, limit, cmp))
        << "trial " << trial << " limit " << limit;
    EXPECT_TRUE(child.empty());
    if (!truncated.empty() && child_buffer != nullptr) {
      EXPECT_NE(truncated.data(), child_buffer) << "trial " << trial;
    }
    if (!truncated.empty() && scratch_buffer != nullptr) {
      EXPECT_NE(truncated.data(), scratch_buffer) << "trial " << trial;
    }

    std::vector<int64_t> alone = mine0;
    TruncateWithTies(&alone, limit);
    EXPECT_EQ(alone, ReferenceMerge(mine0, {}, limit, cmp))
        << "trial " << trial << " limit " << limit;
  }
  EXPECT_GT(empty_mine, 50);
  EXPECT_GT(tiny_child, 50);
  EXPECT_GT(general, 50);
}

TEST(MergeHelpersTest, AscendingMatchesSortAndKeepsBuffers) {
  CheckMergeHelpers(11, std::less<int64_t>());
}

TEST(MergeHelpersTest, DescendingMatchesSortAndKeepsBuffers) {
  CheckMergeHelpers(12, std::greater<int64_t>());
}

TEST(TransitionConvergecastTest, CountsMovements) {
  Network net = MakeLineNetwork(6, 0);
  std::vector<int64_t> prev = {0, 2, 9, 5, 5, 7};
  std::vector<int64_t> cur = {0, 8, 1, 5, 6, 7};
  const int64_t filter = 5;
  net.BeginRound();
  const ValidationAgg agg = TransitionConvergecast(
      &net, cur, WireFormat{}, 2, [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyThreshold(prev[i], filter),
                         ClassifyThreshold(cur[i], filter));
      });
  // Vertex1: lt->gt, vertex2: gt->lt, vertex3: eq->eq, vertex4: eq->gt,
  // vertex5: gt->gt.
  EXPECT_EQ(agg.into_lt, 1);
  EXPECT_EQ(agg.outof_lt, 1);
  EXPECT_EQ(agg.into_gt, 2);
  EXPECT_EQ(agg.outof_gt, 1);
  EXPECT_TRUE(agg.has_hint);
  EXPECT_EQ(agg.min_changed, 1);
  EXPECT_EQ(agg.max_changed, 8);
  // Quiet subtrees stay silent: only vertices on the path of a changed node
  // transmit. Vertex 3 changed nothing but must forward 4's and 5's report.
  EXPECT_GT(net.round_packets(), 0);
}

TEST(TransitionConvergecastTest, SilentWhenNothingChanges) {
  Network net = MakeLineNetwork(6, 0);
  std::vector<int64_t> values = {0, 2, 9, 5, 5, 7};
  net.BeginRound();
  const ValidationAgg agg = TransitionConvergecast(
      &net, values, WireFormat{}, 2, [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyThreshold(values[i], 5),
                         ClassifyThreshold(values[i], 5));
      });
  EXPECT_TRUE(agg.empty());
  EXPECT_EQ(net.round_packets(), 0);
  EXPECT_EQ(net.MaxRoundEnergyOverSensors(), 0.0);
}

TEST(BucketLayoutTest, EvenSplit) {
  BucketLayout layout(0, 100, 10);
  EXPECT_EQ(layout.width(), 10);
  EXPECT_EQ(layout.num_buckets(), 10);
  EXPECT_EQ(layout.BucketOf(0), 0);
  EXPECT_EQ(layout.BucketOf(9), 0);
  EXPECT_EQ(layout.BucketOf(10), 1);
  EXPECT_EQ(layout.BucketOf(99), 9);
  EXPECT_EQ(layout.BucketLb(3), 30);
  EXPECT_EQ(layout.BucketUb(3), 40);
}

TEST(BucketLayoutTest, RaggedSplit) {
  BucketLayout layout(5, 12, 4);  // span 7, width 2 -> 4 buckets, last short
  EXPECT_EQ(layout.width(), 2);
  EXPECT_EQ(layout.num_buckets(), 4);
  EXPECT_EQ(layout.BucketUb(3), 12);
  EXPECT_TRUE(layout.Contains(11));
  EXPECT_FALSE(layout.Contains(12));
  EXPECT_FALSE(layout.Contains(4));
}

TEST(BucketLayoutTest, MoreBucketsThanValues) {
  BucketLayout layout(0, 3, 10);
  EXPECT_EQ(layout.width(), 1);
  EXPECT_EQ(layout.num_buckets(), 3);
}

TEST(SparseHistogramTest, MergeAndEncoding) {
  SparseHistogram a(8), b(8);
  a.Add(1);
  a.Add(1);
  a.Add(5);
  b.Add(5);
  b.Add(7);
  a.Merge(b);
  EXPECT_EQ(a.count(1), 2);
  EXPECT_EQ(a.count(5), 2);
  EXPECT_EQ(a.count(7), 1);
  EXPECT_EQ(a.Total(), 5);
  EXPECT_EQ(a.NonEmpty(), 3);
  WireFormat wire;
  // Sparse: 3 * (8 + 16) = 72 < dense 8 * 16 = 128.
  EXPECT_EQ(a.EncodedBits(wire), 72);
  // A full histogram prefers the dense encoding.
  SparseHistogram full(4);
  for (int i = 0; i < 4; ++i) full.Add(i);
  EXPECT_EQ(full.EncodedBits(wire), 4 * 16);
}

TEST(CostModelTest, ClosedFormSolvesStationarity) {
  // b_exact satisfies b (ln b - 1) = (2 s_h + s_r) / s_b.
  CostModelParams params;
  const double b = BExact(params);
  const double k = (2.0 * params.header_bits + params.refinement_bits) /
                   params.bucket_bits;
  EXPECT_NEAR(b * (std::log(b) - 1.0), k, 1e-6 * k);
}

TEST(CostModelTest, DefaultGeometryGivesReasonableB) {
  CostModelParams params;  // 16-byte header, 2x16-bit bounds, 16-bit buckets
  const double b = BExact(params);
  EXPECT_GT(b, 4.0);
  EXPECT_LT(b, 64.0);
  EXPECT_GE(RoundedBExact(params), 2);
}

TEST(CostModelTest, ApproximationNearOptimal) {
  // The closed form's cost must be within a few percent of the true
  // discrete optimum across universes — the claim of [21] §4.1.
  CostModelParams params;
  for (int64_t universe : {256LL, 1024LL, 65536LL, 1LL << 24}) {
    const int opt = OptimalBuckets(params, universe);
    const int approx = RoundedBExact(params);
    const double c_opt = BArySearchCostBits(params, opt, universe);
    const double c_approx = BArySearchCostBits(params, approx, universe);
    EXPECT_LE(c_approx, 1.35 * c_opt) << "universe=" << universe;
  }
}

TEST(CostModelTest, BinarySearchCostlierThanOptimal) {
  // POS's b = 2 is strictly worse than the cost-model choice for big
  // universes — the paper's core argument for HBC over POS.
  CostModelParams params;
  const int opt = OptimalBuckets(params, 65536);
  EXPECT_GT(BArySearchCostBits(params, 2, 65536),
            BArySearchCostBits(params, opt, 65536));
}

TEST(CostModelTest, LargerHeadersWantMoreBuckets) {
  CostModelParams small;
  small.header_bits = 32;
  CostModelParams big;
  big.header_bits = 1024;
  EXPECT_GT(BExact(big), BExact(small));
}

}  // namespace
}  // namespace wsnq
