// IQ protocol behaviour (§4.2): zero-refinement tracking when the quantile
// drifts inside Xi, the at-most-one-refinement guarantee, window adaptation
// (Eq. 1-2), the in-A rank arithmetic with duplicates, and the f1/f2
// bounded refinement responses. The root-side steps IQ shares with MultiIQ
// (ResolveIqRank, CompleteIqRefinement) are pinned directly, including the
// best-effort fallbacks only message loss reaches.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "algo/iq.h"
#include "algo/oracle.h"
#include "tests/test_scenario.h"
#include "util/rng.h"

namespace wsnq {
namespace {

using testing_support::MakeLineNetwork;
using testing_support::MakeRandomNetwork;

IqProtocol MakeIq(int64_t k, int64_t lo, int64_t hi,
                  IqProtocol::Options options = {}) {
  return IqProtocol(k, lo, hi, WireFormat{}, options);
}

TEST(IqTest, InitializationSetsWindowAroundQuantile) {
  Network net = MakeLineNetwork(8, 0);
  IqProtocol iq = MakeIq(4, 0, 1023);
  net.BeginRound();
  iq.RunRound(&net, {0, 10, 20, 30, 40, 50, 60, 70}, 0);
  EXPECT_EQ(iq.quantile(), 40);
  EXPECT_LT(iq.xi_l(), 0);
  EXPECT_GT(iq.xi_r(), 0);
}

TEST(IqTest, AtMostOneRefinementEver) {
  Network net = MakeRandomNetwork(50, 3);
  IqProtocol iq = MakeIq(25, 0, 4095);
  Rng rng(17);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 40; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 4095);  // chaotic
    }
    net.BeginRound();
    iq.RunRound(&net, values, round);
    ASSERT_LE(iq.refinements_last_round(), 1) << "round " << round;
    ASSERT_EQ(iq.quantile(), OracleKth(SensorValues(net, values), 25));
  }
}

TEST(IqTest, SlowDriftNeedsNoRefinements) {
  // The headline property: when consecutive quantiles move within the
  // adapted window, validation alone answers the query.
  Network net = MakeRandomNetwork(60, 5);
  IqProtocol iq = MakeIq(30, 0, 4095);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  Rng rng(9);
  for (int v = 1; v < net.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = rng.UniformInt(2000, 2200);
  }
  int refinements_after_warmup = 0;
  for (int64_t round = 0; round <= 30; ++round) {
    net.BeginRound();
    iq.RunRound(&net, values, round);
    ASSERT_EQ(iq.quantile(),
              OracleKth(SensorValues(net, values), 30));
    if (round > 5) refinements_after_warmup += iq.refinements_last_round();
    // Steady upward drift of +2 per node per round.
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] += 2;
    }
  }
  EXPECT_EQ(refinements_after_warmup, 0);
}

TEST(IqTest, WindowAdaptsToTrendDirection) {
  // Eq. 1-2: an upward trend collapses xi_l to 0 and opens xi_r; the
  // reverse trend flips the window.
  Network net = MakeRandomNetwork(40, 6);
  IqProtocol::Options options;
  options.m = 4;
  IqProtocol iq = MakeIq(20, 0, 65535, options);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int v = 1; v < net.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = 30000 + v;
  }
  net.BeginRound();
  iq.RunRound(&net, values, 0);
  int64_t round = 1;
  for (; round <= 8; ++round) {  // upward regime
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] += 25;
    }
    net.BeginRound();
    iq.RunRound(&net, values, round);
  }
  EXPECT_EQ(iq.xi_l(), 0);
  EXPECT_GT(iq.xi_r(), 0);
  for (const int64_t end = round + 8; round < end; ++round) {  // downward
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] -= 25;
    }
    net.BeginRound();
    iq.RunRound(&net, values, round);
  }
  EXPECT_LT(iq.xi_l(), 0);
  EXPECT_EQ(iq.xi_r(), 0);
}

TEST(IqTest, StableQuantileShrinksWindowToPoint) {
  Network net = MakeRandomNetwork(30, 8);
  IqProtocol::Options options;
  options.m = 3;
  IqProtocol iq = MakeIq(15, 0, 1023, options);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int v = 1; v < net.num_vertices(); ++v) {
    values[static_cast<size_t>(v)] = 100 + 3 * v;
  }
  for (int64_t round = 0; round <= 10; ++round) {
    net.BeginRound();
    iq.RunRound(&net, values, round);  // nothing ever moves
  }
  EXPECT_EQ(iq.xi_l(), 0);
  EXPECT_EQ(iq.xi_r(), 0);
  // And such rounds are completely silent.
  net.BeginRound();
  iq.RunRound(&net, values, 11);
  EXPECT_EQ(net.round_packets(), 0);
}

TEST(IqTest, DuplicateHeavyWorkloadStaysExact) {
  Network net = MakeRandomNetwork(60, 12);
  IqProtocol iq = MakeIq(30, 0, 15);  // tiny universe -> masses of ties
  Rng rng(21);
  std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
  for (int64_t round = 0; round <= 40; ++round) {
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = rng.UniformInt(0, 15);
    }
    net.BeginRound();
    iq.RunRound(&net, values, round);
    const auto sensors = SensorValues(net, values);
    ASSERT_EQ(iq.quantile(), OracleKth(sensors, 30)) << "round " << round;
    const RootCounts oracle = OracleCounts(sensors, iq.quantile());
    ASSERT_EQ(iq.root_counts().l, oracle.l) << "round " << round;
    ASSERT_EQ(iq.root_counts().e, oracle.e) << "round " << round;
  }
}

TEST(IqTest, LongerHistoryWidensWindow) {
  auto terminal_width = [](int m) {
    Network net = MakeRandomNetwork(40, 14);
    IqProtocol::Options options;
    options.m = m;
    IqProtocol iq = MakeIq(20, 0, 65535, options);
    std::vector<int64_t> values(static_cast<size_t>(net.num_vertices()), 0);
    for (int v = 1; v < net.num_vertices(); ++v) {
      values[static_cast<size_t>(v)] = 30000 + 10 * v;
    }
    Rng rng(2);
    for (int64_t round = 0; round <= 20; ++round) {
      net.BeginRound();
      iq.RunRound(&net, values, round);
      const int64_t shift = rng.UniformInt(-80, 80);
      for (int v = 1; v < net.num_vertices(); ++v) {
        values[static_cast<size_t>(v)] += shift;
      }
    }
    return iq.xi_r() - iq.xi_l();
  };
  EXPECT_GE(terminal_width(12), terminal_width(2));
}

TEST(IqTest, MedianGapInitIsRobustToOutliers) {
  // One absurd outlier among the k smallest values blows up the mean-gap
  // xi but not the median-gap xi.
  std::vector<int64_t> values = {0, 1, 2, 3, 4, 5, 6, 10000};
  auto initial_half_width = [&](IqProtocol::InitStrategy strategy) {
    Network net = MakeLineNetwork(8, 0);
    IqProtocol::Options options;
    options.init_strategy = strategy;
    IqProtocol iq = MakeIq(7, 0, 20000, options);
    net.BeginRound();
    iq.RunRound(&net, values, 0);
    return iq.xi_r();
  };
  EXPECT_GT(initial_half_width(IqProtocol::InitStrategy::kMeanGap),
            10 * initial_half_width(IqProtocol::InitStrategy::kMedianGap));
}

TEST(IqTest, RefinementChargesOnlyRequestedValues) {
  // When the quantile escapes the window, the refinement response carries
  // f1/f2 values, not the whole population: packets stay far below TAG's.
  Network net = MakeLineNetwork(30, 0);
  IqProtocol iq = MakeIq(15, 0, 65535);
  std::vector<int64_t> values(30, 0);
  for (int v = 1; v < 30; ++v) values[static_cast<size_t>(v)] = 100 * v;
  net.BeginRound();
  iq.RunRound(&net, values, 0);
  // Jump the whole field up by a lot: quantile escapes Xi upward.
  for (int v = 1; v < 30; ++v) values[static_cast<size_t>(v)] += 5000;
  net.BeginRound();
  iq.RunRound(&net, values, 1);
  EXPECT_EQ(iq.quantile(), OracleKth(SensorValues(net, values), 15));
  EXPECT_EQ(iq.refinements_last_round(), 1);
}

// --- Shared root-side steps -------------------------------------------------

constexpr int64_t kPopulation = 10;

/// Rank 5 of 10 sensors, filter 50, window [40, 60], root counts (l, e, g)
/// as ApplyCounters left them this round.
IqRankState MakeRank5(int64_t l, int64_t e) {
  IqRankState state;
  state.k = 5;
  state.filter = 50;
  state.xi_l = -10;
  state.xi_r = 10;
  state.counts = {l, e, kPopulation - l - e};
  return state;
}

ValidationAgg Hint(int64_t min_changed, int64_t max_changed) {
  ValidationAgg agg;
  agg.has_hint = true;
  agg.min_changed = min_changed;
  agg.max_changed = max_changed;
  return agg;
}

void ExpectCounts(const IqRankState& state, int64_t l, int64_t e) {
  EXPECT_EQ(state.counts.l, l);
  EXPECT_EQ(state.counts.e, e);
  EXPECT_EQ(state.counts.g, kPopulation - l - e);
}

TEST(IqResolveTest, ValidCountsKeepTheFilter) {
  IqRankState state = MakeRank5(/*l=*/4, /*e=*/1);
  const IqResolution r =
      ResolveIqRank({45, 55}, ValidationAgg{}, kPopulation, 0, 1023, true,
                    &state);
  EXPECT_FALSE(r.refine);
  EXPECT_EQ(r.quantile, 50);
  ExpectCounts(state, 4, 1);
}

TEST(IqResolveTest, AnswerReadFromWindowBelowFilter) {
  // Three sensors lie under the window and 42, 45, 45 inside it below the
  // filter, so the 5th smallest is 45.
  IqRankState state = MakeRank5(/*l=*/6, /*e=*/1);
  const IqResolution r = ResolveIqRank({42, 45, 45, 55}, ValidationAgg{},
                                       kPopulation, 0, 1023, true, &state);
  EXPECT_FALSE(r.refine);
  EXPECT_EQ(r.quantile, 45);
  ExpectCounts(state, /*l=*/4, /*e=*/2);
}

TEST(IqResolveTest, AnswerReadFromWindowAboveFilter) {
  // l + e = 3 at or below the filter; 52, 53, 53, 58 are inside the window
  // above it, so the 5th smallest is the first 53.
  IqRankState state = MakeRank5(/*l=*/2, /*e=*/1);
  const IqResolution r = ResolveIqRank({44, 52, 53, 53, 58}, ValidationAgg{},
                                       kPopulation, 0, 1023, true, &state);
  EXPECT_FALSE(r.refine);
  EXPECT_EQ(r.quantile, 53);
  ExpectCounts(state, /*l=*/4, /*e=*/2);
}

TEST(IqResolveTest, RefinementBelowWindow) {
  // l = 8 with one lt value in A: 7 sensors under the window, and the 5th
  // smallest is the f1 = l - k - a + 1 = 3rd largest of them.
  struct Case {
    ValidationAgg validation;
    bool use_hints;
    int64_t lo;
  };
  const Case cases[] = {
      {ValidationAgg{}, true, 0},  // no hint: the universe floor
      {Hint(20, 52), false, 0},    // hint ignored
      {Hint(20, 52), true, 20},    // d = 30 below the filter
      {Hint(-100, 52), true, 0},   // clamped to range_min
  };
  for (const Case& c : cases) {
    IqRankState state = MakeRank5(/*l=*/8, /*e=*/1);
    const IqResolution r = ResolveIqRank({45}, c.validation, kPopulation, 0,
                                         1023, c.use_hints, &state);
    ASSERT_TRUE(r.refine);
    EXPECT_TRUE(r.request.below);
    EXPECT_EQ(r.request.lo, c.lo);
    EXPECT_EQ(r.request.hi, 39);
    EXPECT_EQ(r.request.f, 3);
    EXPECT_EQ(r.request.base, 7);
    ExpectCounts(state, 8, 1);  // left for the completion
  }
}

TEST(IqResolveTest, RefinementAboveWindow) {
  // l + e = 1 and one gt value in A: the 5th smallest is the
  // f2 = k - (l + e) - b = 3rd smallest above the window.
  struct Case {
    ValidationAgg validation;
    bool use_hints;
    int64_t hi;
  };
  const Case cases[] = {
      {ValidationAgg{}, true, 1023},  // no hint: the universe ceiling
      {Hint(45, 80), false, 1023},    // hint ignored
      {Hint(45, 80), true, 80},       // d = 30 above the filter
      {Hint(45, 5000), true, 1023},   // clamped to range_max
  };
  for (const Case& c : cases) {
    IqRankState state = MakeRank5(/*l=*/1, /*e=*/0);
    const IqResolution r = ResolveIqRank({55}, c.validation, kPopulation, 0,
                                         1023, c.use_hints, &state);
    ASSERT_TRUE(r.refine);
    EXPECT_FALSE(r.request.below);
    EXPECT_EQ(r.request.lo, 61);
    EXPECT_EQ(r.request.hi, c.hi);
    EXPECT_EQ(r.request.f, 3);
    EXPECT_EQ(r.request.base, 2);
  }
}

TEST(IqResolveTest, CompletionFromFullShortAndEmptyResponses) {
  // Full responses carry f values plus the cutoff's duplicates; under loss
  // a response can come back short (the rank clamps into it) or empty (the
  // filter stays).
  const IqRefinement below{.below = true, .lo = 0, .hi = 39, .f = 3,
                           .base = 7};
  const IqRefinement above{.below = false, .lo = 61, .hi = 1023, .f = 3,
                           .base = 2};
  struct Case {
    const char* name;
    const IqRefinement& request;
    std::vector<int64_t> response;
    int64_t q, l, e;
  };
  const Case cases[] = {
      {"below full", below, {33, 33, 36, 39}, 33, 3, 2},
      {"below short", below, {36, 39}, 36, 5, 1},
      {"below empty", below, {}, 50, 7, 0},
      {"above full", above, {61, 64, 64, 70}, 64, 3, 2},
      {"above short", above, {61}, 61, 2, 1},
      {"above empty", above, {}, 50, 2, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    IqRankState state = MakeRank5(/*l=*/0, /*e=*/0);
    EXPECT_EQ(CompleteIqRefinement(c.request, c.response, kPopulation,
                                   &state),
              c.q);
    ExpectCounts(state, c.l, c.e);
  }
}

}  // namespace
}  // namespace wsnq
