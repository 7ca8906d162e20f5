// Edge cases of the data substrate that the main data tests don't cover:
// degenerate option values, boundary geometry, and determinism knobs.

#include <vector>

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "data/noise_image.h"
#include "data/pressure_trace.h"
#include "data/synthetic_trace.h"
#include "util/rng.h"

namespace wsnq {
namespace {

TEST(NoiseImageEdgeTest, SingleOctaveAndHighFrequency) {
  NoiseImage::Options options;
  options.base_frequency = 64;
  options.octaves = 1;
  NoiseImage image(3, options);
  for (double u : {0.0, 0.5, 0.999, 1.0}) {
    for (double v : {0.0, 0.25, 1.0}) {
      const double s = image.Sample(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LT(s, 1.0);
    }
  }
}

TEST(NoiseImageEdgeTest, ManyOctavesStayNormalized) {
  NoiseImage::Options options;
  options.octaves = 8;
  NoiseImage image(4, options);
  double lo = 1.0, hi = 0.0;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double s = image.Sample(u, 0.37);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
  EXPECT_GT(hi - lo, 0.05);  // not collapsed to a constant
}

TEST(SyntheticTraceEdgeTest, MaxAmplitudeClampsButStaysLegal) {
  SyntheticTrace::Options options;
  options.amplitude_fraction = 0.5;  // full swing: clamp must engage
  options.noise_percent = 50;
  options.period_rounds = 10;
  std::vector<Point2D> positions = {{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}};
  SyntheticTrace trace(positions, options);
  for (int t = 0; t < 50; ++t) {
    for (int i = 0; i < 3; ++i) {
      const int64_t v = trace.Value(i, t);
      EXPECT_GE(v, trace.range_min());
      EXPECT_LE(v, trace.range_max());
    }
  }
}

TEST(SyntheticTraceEdgeTest, TinyRange) {
  SyntheticTrace::Options options;
  options.range_min = 0;
  options.range_max = 1;
  std::vector<Point2D> positions = {{0.2, 0.8}};
  SyntheticTrace trace(positions, options);
  for (int t = 0; t < 20; ++t) {
    const int64_t v = trace.Value(0, t);
    EXPECT_TRUE(v == 0 || v == 1);
  }
}

TEST(SyntheticTraceEdgeTest, NegativeRangeSupported) {
  SyntheticTrace::Options options;
  options.range_min = -500;
  options.range_max = 500;
  std::vector<Point2D> positions = {{0.3, 0.3}, {0.6, 0.6}};
  SyntheticTrace trace(positions, options);
  for (int t = 0; t < 30; ++t) {
    for (int i = 0; i < 2; ++i) {
      const int64_t v = trace.Value(i, t);
      EXPECT_GE(v, -500);
      EXPECT_LE(v, 500);
    }
  }
}

TEST(PressureTraceEdgeTest, SingleStation) {
  PressureTrace::Options options;
  options.num_stations = 1;
  options.rounds = 10;
  const PressureTrace trace(options);
  EXPECT_EQ(trace.num_sensors(), 1);
  EXPECT_LE(trace.range_min(), trace.Value(0, 5));
}

TEST(PressureTraceEdgeTest, PerSampleMovementIsSmooth) {
  // The smoothed-trend construction: per-sample regional movement should
  // rarely exceed a few 0.1-hPa units — the property that makes skip=0
  // rounds cheap for the continuous protocols.
  PressureTrace::Options options;
  options.num_stations = 50;
  options.rounds = 150;
  options.seed = 9;
  const PressureTrace trace(options);
  std::vector<double> medians;
  for (int t = 0; t <= 150; ++t) {
    medians.push_back(
        static_cast<double>(OracleKth(trace.Snapshot(t), 26)));
  }
  double max_step = 0.0, total_swing = 0.0;
  for (size_t i = 1; i < medians.size(); ++i) {
    max_step = std::max(max_step, std::abs(medians[i] - medians[i - 1]));
  }
  total_swing = *std::max_element(medians.begin(), medians.end()) -
                *std::min_element(medians.begin(), medians.end());
  EXPECT_LE(max_step, 30.0);        // <= 3 hPa per 15-min sample
  EXPECT_GE(total_swing, max_step); // multi-sample swings dominate steps
}

TEST(PressureTraceEdgeTest, SeedChangesTrace) {
  PressureTrace::Options a;
  a.num_stations = 10;
  a.rounds = 20;
  a.seed = 1;
  PressureTrace::Options b = a;
  b.seed = 2;
  const PressureTrace ta(a), tb(b);
  int diffs = 0;
  for (int t = 0; t <= 20; ++t) {
    for (int i = 0; i < 10; ++i) diffs += ta.Value(i, t) != tb.Value(i, t);
  }
  EXPECT_GT(diffs, 100);
}

}  // namespace
}  // namespace wsnq
