// Small descriptive-statistics helpers used by the metric pipeline and by
// the algorithms themselves (e.g. IQ's median-of-gaps initialization).

#ifndef WSNQ_UTIL_STATS_H_
#define WSNQ_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace wsnq {

/// Streaming accumulator for count / mean / variance / min / max
/// (Welford's algorithm; numerically stable).
class RunningStat {
 public:
  RunningStat() = default;

  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Folds another accumulator into this one.
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-quantile (q in [0,1]) of `values` by linear interpolation
/// between order statistics. The input is copied; empty input yields 0.
double Quantile(std::vector<double> values, double q);

/// Median convenience wrapper around Quantile(values, 0.5).
double Median(std::vector<double> values);

}  // namespace wsnq

#endif  // WSNQ_UTIL_STATS_H_
