#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "data/noise_image.h"
#include "data/pressure_trace.h"
#include "data/range_scaler.h"
#include "data/som.h"
#include "data/synthetic_trace.h"
#include "util/rng.h"

namespace wsnq {
namespace {

TEST(NoiseImageTest, SamplesInUnitInterval) {
  NoiseImage image(1);
  for (double u = 0.0; u <= 1.0; u += 0.05) {
    for (double v = 0.0; v <= 1.0; v += 0.05) {
      const double s = image.Sample(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LT(s, 1.0);
    }
  }
}

TEST(NoiseImageTest, DeterministicPerSeed) {
  NoiseImage a(9), b(9), c(10);
  EXPECT_DOUBLE_EQ(a.Sample(0.3, 0.7), b.Sample(0.3, 0.7));
  EXPECT_NE(a.Sample(0.3, 0.7), c.Sample(0.3, 0.7));
}

TEST(NoiseImageTest, SpatiallyCorrelated) {
  // Nearby samples must be much closer in value than far samples on
  // average — the whole point of the interpolated-noise field (§5.1.2).
  NoiseImage image(4);
  Rng rng(4);
  double near_diff = 0.0, far_diff = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const double u = rng.UniformDouble(0.05, 0.9);
    const double v = rng.UniformDouble(0.05, 0.9);
    near_diff += std::fabs(image.Sample(u, v) - image.Sample(u + 0.01, v));
    far_diff += std::fabs(image.Sample(u, v) -
                          image.Sample(rng.UniformDouble(), rng.UniformDouble()));
  }
  EXPECT_LT(near_diff, far_diff * 0.4);
}

TEST(NoiseImageTest, GreyQuantization) {
  NoiseImage image(2);
  for (double u = 0.0; u < 1.0; u += 0.1) {
    const int g = image.Grey(u, 0.5);
    EXPECT_GE(g, 0);
    EXPECT_LE(g, 255);
  }
}

class SyntheticTraceTest : public ::testing::Test {
 protected:
  SyntheticTrace MakeTrace(double period, double noise) {
    SyntheticTrace::Options options;
    options.period_rounds = period;
    options.noise_percent = noise;
    options.seed = 77;
    Rng rng(5);
    std::vector<Point2D> positions;
    for (int i = 0; i < 100; ++i) {
      positions.push_back({rng.UniformDouble(), rng.UniformDouble()});
    }
    return SyntheticTrace(std::move(positions), options);
  }
};

TEST_F(SyntheticTraceTest, ValuesInRange) {
  const SyntheticTrace trace = MakeTrace(125, 20);
  for (int t = 0; t < 300; ++t) {
    for (int i = 0; i < trace.num_sensors(); ++i) {
      const int64_t v = trace.Value(i, t);
      EXPECT_GE(v, trace.range_min());
      EXPECT_LE(v, trace.range_max());
    }
  }
}

TEST_F(SyntheticTraceTest, Deterministic) {
  const SyntheticTrace a = MakeTrace(63, 10);
  const SyntheticTrace b = MakeTrace(63, 10);
  for (int t = 0; t < 20; ++t) {
    for (int i = 0; i < a.num_sensors(); ++i) {
      EXPECT_EQ(a.Value(i, t), b.Value(i, t));
    }
  }
}

TEST_F(SyntheticTraceTest, SinusoidMovesTheMedian) {
  const SyntheticTrace trace = MakeTrace(100, 0);
  auto median_at = [&](int64_t t) {
    return OracleKth(trace.Snapshot(t), 51);
  };
  // Quarter period up from t=0 must raise the median; three quarters must
  // lower it below the start.
  EXPECT_GT(median_at(25), median_at(0));
  EXPECT_LT(median_at(75), median_at(0));
  // Full period returns near the start.
  EXPECT_NEAR(static_cast<double>(median_at(100)),
              static_cast<double>(median_at(0)), 8.0);
}

TEST_F(SyntheticTraceTest, NoiseIncreasesRoundToRoundChurn) {
  const SyntheticTrace quiet = MakeTrace(250, 0);
  const SyntheticTrace noisy = MakeTrace(250, 50);
  double quiet_churn = 0.0, noisy_churn = 0.0;
  for (int i = 0; i < 100; ++i) {
    quiet_churn += std::llabs(quiet.Value(i, 11) - quiet.Value(i, 10));
    noisy_churn += std::llabs(noisy.Value(i, 11) - noisy.Value(i, 10));
  }
  EXPECT_GT(noisy_churn, quiet_churn * 5);
}

TEST_F(SyntheticTraceTest, TemporalCorrelation) {
  const SyntheticTrace trace = MakeTrace(250, 5);
  // Consecutive medians move slowly relative to the range.
  int64_t prev = OracleKth(trace.Snapshot(0), 51);
  for (int t = 1; t < 50; ++t) {
    const int64_t cur = OracleKth(trace.Snapshot(t), 51);
    EXPECT_LE(std::llabs(cur - prev), 40);
    prev = cur;
  }
}

TEST(PressureTraceTest, ShapeAndRange) {
  PressureTrace::Options options;
  options.num_stations = 64;
  options.rounds = 50;
  options.seed = 3;
  const PressureTrace trace(options);
  EXPECT_EQ(trace.num_sensors(), 64);
  for (int t = 0; t <= 50; ++t) {
    for (int i = 0; i < 64; ++i) {
      const int64_t v = trace.Value(i, t);
      EXPECT_GE(v, trace.range_min());
      EXPECT_LE(v, trace.range_max());
      // Plausible barometric pressure (0.1 hPa units).
      EXPECT_GT(v, 9000);
      EXPECT_LT(v, 11000);
    }
  }
}

TEST(PressureTraceTest, PessimisticRangeIsEarthExtremes) {
  PressureTrace::Options options;
  options.num_stations = 16;
  options.rounds = 10;
  options.range_setting = PressureTrace::RangeSetting::kPessimistic;
  const PressureTrace trace(options);
  EXPECT_EQ(trace.range_min(), 8560);
  EXPECT_EQ(trace.range_max(), 10860);
}

TEST(PressureTraceTest, OptimisticRangeIsTight) {
  PressureTrace::Options options;
  options.num_stations = 32;
  options.rounds = 40;
  const PressureTrace trace(options);
  int64_t lo = trace.range_max(), hi = trace.range_min();
  for (int t = 0; t <= 40; ++t) {
    for (int i = 0; i < 32; ++i) {
      lo = std::min(lo, trace.Value(i, t));
      hi = std::max(hi, trace.Value(i, t));
    }
  }
  EXPECT_EQ(lo, trace.range_min());
  // The max may occur at a skipped sample; range_max is an upper bound.
  EXPECT_LE(hi, trace.range_max());
}

TEST(PressureTraceTest, SkipSamplesWeakensCorrelation) {
  PressureTrace::Options dense;
  dense.num_stations = 200;
  dense.rounds = 60;
  dense.seed = 11;
  PressureTrace::Options sparse = dense;
  sparse.skip = 15;
  const PressureTrace a(dense);
  const PressureTrace b(sparse);
  auto churn = [](const PressureTrace& t) {
    double total = 0.0;
    for (int r = 1; r <= 40; ++r) {
      for (int i = 0; i < t.num_sensors(); ++i) {
        total += std::llabs(t.Value(i, r) - t.Value(i, r - 1));
      }
    }
    return total;
  };
  EXPECT_GT(churn(b), churn(a) * 1.5);
}

TEST(PressureTraceTest, CanonicalTracePlusStrideMatchesDirectSkip) {
  // The scenario cache stores pressure traces canonically (skip folded into
  // max_skip, read through a StridedValueSource). For a lone skip point the
  // canonical grid has exactly the samples the direct trace generates, so
  // every value and the range must be bit-identical.
  PressureTrace::Options direct;
  direct.num_stations = 64;
  direct.rounds = 50;
  direct.seed = 23;
  direct.skip = 3;
  PressureTrace::Options canonical = direct;
  canonical.skip = 0;
  canonical.max_skip = 3;
  const PressureTrace a(direct);
  const PressureTrace b(canonical);
  const StridedValueSource view(&b, 3);
  EXPECT_EQ(a.range_min(), view.range_min());
  EXPECT_EQ(a.range_max(), view.range_max());
  for (int r = 0; r <= 50; ++r) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(a.Value(i, r), view.Value(i, r)) << "r=" << r << " i=" << i;
    }
  }
}

TEST(PressureTraceTest, CoveringMaxSkipServesEverySkipPoint) {
  // One densely-covered trace read at different strides: the skip-0 view is
  // the raw grid and a covered skip must match the same grid subsampled —
  // the Fig. 10 sweep shares one trace across all its skip points.
  PressureTrace::Options options;
  options.num_stations = 16;
  options.rounds = 30;
  options.seed = 7;
  options.max_skip = 15;
  const PressureTrace trace(options);
  const StridedValueSource sparse(&trace, 15);
  for (int r = 0; r <= 30; ++r) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(sparse.Value(i, r), trace.Value(i, r * 16));
    }
  }
}

TEST(PressureTraceTest, StationsShareRegionalWeather) {
  PressureTrace::Options options;
  options.num_stations = 30;
  options.rounds = 100;
  options.seed = 5;
  const PressureTrace trace(options);
  // Station trajectories (minus their static offsets) must co-move:
  // correlation of two stations' first differences over time is high.
  double cov = 0.0, var0 = 0.0, var1 = 0.0;
  for (int t = 1; t <= 100; ++t) {
    const double d0 =
        static_cast<double>(trace.Value(0, t) - trace.Value(0, t - 1));
    const double d1 =
        static_cast<double>(trace.Value(17, t) - trace.Value(17, t - 1));
    cov += d0 * d1;
    var0 += d0 * d0;
    var1 += d1 * d1;
  }
  EXPECT_GT(cov / std::sqrt(var0 * var1), 0.2);
}

TEST(SomTest, OrdersStationsByValue) {
  // Features drawn from two far-apart clusters: BMU positions of the two
  // clusters must be far apart on the map; within-cluster distances small.
  Rng rng(12);
  std::vector<double> features;
  for (int i = 0; i < 60; ++i) features.push_back(rng.Gaussian(10.0, 0.5));
  for (int i = 0; i < 60; ++i) features.push_back(rng.Gaussian(50.0, 0.5));
  SelfOrganizingMap::Options options;
  options.seed = 12;
  SelfOrganizingMap som(features, options);
  const auto positions = som.PlaceStations(features, 200.0, 200.0);
  ASSERT_EQ(positions.size(), 120u);
  double within = 0.0, across = 0.0;
  int nw = 0, na = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = i + 1; j < 60; ++j) {
      within += Distance(positions[static_cast<size_t>(i)],
                         positions[static_cast<size_t>(j)]);
      ++nw;
    }
    for (int j = 60; j < 120; ++j) {
      across += Distance(positions[static_cast<size_t>(i)],
                         positions[static_cast<size_t>(j)]);
      ++na;
    }
  }
  EXPECT_LT(within / nw, 0.7 * across / na);
}

TEST(SomTest, PositionsInsideArea) {
  Rng rng(13);
  std::vector<double> features;
  for (int i = 0; i < 100; ++i) features.push_back(rng.Gaussian(0.0, 1.0));
  SelfOrganizingMap som(features, {});
  const auto positions = som.PlaceStations(features, 150.0, 80.0);
  for (const auto& p : positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 150.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 80.0);
  }
}

TEST(SomTest, BmuTracksWeightGradient) {
  std::vector<double> features;
  for (int i = 0; i < 200; ++i) features.push_back(i);
  SelfOrganizingMap som(features, {});
  // BMU weights must approximate the queried feature.
  for (double f : {5.0, 50.0, 120.0, 190.0}) {
    const int bmu = som.BestMatchingUnit(f);
    EXPECT_NEAR(som.unit_weight(bmu), f, 15.0);
  }
}

TEST(RangeScalerTest, MonotoneAndOnto) {
  PressureTrace::Options options;
  options.num_stations = 8;
  options.rounds = 5;
  const PressureTrace trace(options);
  const ScaledValueSource scaled(&trace, 16);
  EXPECT_EQ(scaled.range_min(), 0);
  EXPECT_EQ(scaled.range_max(), 65535);
  EXPECT_EQ(scaled.Scale(trace.range_min()), 0);
  EXPECT_EQ(scaled.Scale(trace.range_max()), 65535);
  int64_t prev = -1;
  for (int64_t raw = trace.range_min(); raw <= trace.range_max(); ++raw) {
    const int64_t s = scaled.Scale(raw);
    EXPECT_GT(s, prev);  // strictly monotone: order statistics preserved
    prev = s;
  }
}

TEST(RangeScalerTest, PreservesQuantileOrderStatistics) {
  PressureTrace::Options options;
  options.num_stations = 101;
  options.rounds = 3;
  const PressureTrace trace(options);
  const ScaledValueSource scaled(&trace, 16);
  const auto raw = trace.Snapshot(2);
  const auto mapped = scaled.Snapshot(2);
  EXPECT_EQ(scaled.Scale(OracleKth(raw, 51)), OracleKth(mapped, 51));
}

}  // namespace
}  // namespace wsnq
