#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.h"
#include "util/lambert_w.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace wsnq {
namespace {

TEST(RngTest, DeterministicStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++seen[static_cast<size_t>(rng.UniformInt(0, 9))];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected
}

TEST(RngTest, UniformDoubleRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(rng.Gaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(17);
  Rng child = parent.Fork();
  // The fork must not replay the parent's stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 4);
}

TEST(LambertWTest, KnownValues) {
  EXPECT_NEAR(LambertW0(0.0), 0.0, 1e-12);
  // W(e) = 1.
  EXPECT_NEAR(LambertW0(2.718281828459045), 1.0, 1e-10);
  // W(1) = Omega constant.
  EXPECT_NEAR(LambertW0(1.0), 0.5671432904097838, 1e-10);
  // Branch point W(-1/e) = -1.
  EXPECT_NEAR(LambertW0(-0.36787944117144233), -1.0, 1e-5);
}

TEST(LambertWTest, InverseProperty) {
  for (double x : {0.01, 0.5, 1.0, 5.0, 18.0, 100.0, 1e4, 1e8}) {
    const double w = LambertW0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-8 * (1.0 + x)) << "x=" << x;
  }
}

TEST(LambertWTest, NegativeDomain) {
  for (double x : {-0.3, -0.2, -0.1, -0.01}) {
    const double w = LambertW0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-9) << "x=" << x;
  }
  EXPECT_TRUE(std::isnan(LambertW0(-0.5)));
}

TEST(RunningStatTest, Basics) {
  RunningStat stat;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stat.Add(x);
  EXPECT_EQ(stat.count(), 4);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);
  EXPECT_NEAR(stat.variance(), 1.25, 1e-12);
  EXPECT_NEAR(stat.sum(), 10.0, 1e-12);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat all, left, right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, KthSmallest) {
  std::vector<int64_t> v = {5, 1, 4, 1, 3};
  EXPECT_EQ(KthSmallest(v, 0), 1);
  EXPECT_EQ(KthSmallest(v, 1), 1);
  EXPECT_EQ(KthSmallest(v, 2), 3);
  EXPECT_EQ(KthSmallest(v, 4), 5);
}

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(StatusOrTest, ValueAndStatus) {
  StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_TRUE(good.status().ok());
  StatusOr<int> bad(Status::NotFound("x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(EnvTest, PositiveIntFromEnvParsesOrFallsBack) {
  constexpr const char* kName = "WSNQ_ENV_TEST_VALUE";
  ::unsetenv(kName);
  EXPECT_FALSE(GetEnv(kName).has_value());
  EXPECT_EQ(PositiveIntFromEnv(kName, 3), 3);
  ::setenv(kName, "", /*overwrite=*/1);
  EXPECT_EQ(GetEnv(kName), std::optional<std::string>(""));
  EXPECT_EQ(PositiveIntFromEnv(kName, 3), 3);
  ::setenv(kName, "7", /*overwrite=*/1);
  EXPECT_EQ(GetEnv(kName), std::optional<std::string>("7"));
  EXPECT_EQ(PositiveIntFromEnv(kName, 3), 7);
  for (const char* rejected : {"0", "-2", "abc"}) {
    ::setenv(kName, rejected, /*overwrite=*/1);
    EXPECT_EQ(PositiveIntFromEnv(kName, 3), 3) << rejected;
  }
  ::unsetenv(kName);
}

}  // namespace
}  // namespace wsnq
