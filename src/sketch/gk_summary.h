// Greenwald–Khanna quantile summary (reference [10] of the paper, in its
// sensor-network formulation: Greenwald & Khanna, PODS'04). An
// epsilon-approximate summary stores tuples (value, g, delta) such that for
// every stored value the true rank lies in
//   [r_min, r_max] = [sum g_j (j <= i), sum g_j + delta_i],
// with r_max - r_min <= 2 * epsilon * n. Summaries are mergeable (with the
// uncertainty of interleaved neighbours added to delta), which is what lets
// a WSN aggregate them convergecast-style; the paper's §3.1 notes the same
// structure answers *exact* queries only if it keeps all values.

#ifndef WSNQ_SKETCH_GK_SUMMARY_H_
#define WSNQ_SKETCH_GK_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"

namespace wsnq {

/// Mergeable epsilon-approximate order-statistics summary.
class GkSummary {
 public:
  struct Tuple {
    int64_t value = 0;
    int64_t g = 0;      ///< r_min(i) - r_min(i-1)
    int64_t delta = 0;  ///< r_max(i) - r_min(i)
  };

  explicit GkSummary(double epsilon);

  /// Inserts one observation.
  void Add(int64_t value);

  /// Empties the summary, keeping its buffers' capacity.
  void Clear() {
    total_ = 0;
    tuples_.clear();
  }

  /// Merges another summary built with the same epsilon. The result is an
  /// epsilon-approximate summary of the union (mergeability lemma).
  void Merge(const GkSummary& other);

  /// Drops tuples whose removal keeps every rank band within
  /// 2 * epsilon * n; called automatically, idempotent.
  void Compress();

  /// Value whose rank band contains rank k (1-based), i.e. an estimate
  /// with absolute rank error <= epsilon * n.
  int64_t QueryQuantile(int64_t k) const;

  int64_t total() const { return total_; }
  int size() const { return static_cast<int>(tuples_.size()); }
  double epsilon() const { return epsilon_; }
  /// Serialized size in bits (value + two counters per tuple).
  int64_t EncodedBits(const WireFormat& wire) const;

  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  int64_t Threshold() const;

  double epsilon_;
  int64_t total_ = 0;
  std::vector<Tuple> tuples_;  // sorted by value
  /// Merge's output buffer, swapped with tuples_; empty between calls.
  std::vector<Tuple> merge_scratch_;
};

}  // namespace wsnq

#endif  // WSNQ_SKETCH_GK_SUMMARY_H_
