#include "sketch/gk_summary.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wsnq {
namespace {

// Debug audit of the GK summary structure after every mutation: tuples are
// value-sorted, every tuple covers at least one element (g >= 1, delta >= 0),
// the g's partition the stream (sum g == n), and every band respects the
// 2*epsilon*n width bound that the query-time error guarantee rests on
// (max(threshold, 1): below n = 1/(2*epsilon) the summary is exact and each
// band is a single element).
void AuditSummary(const std::vector<GkSummary::Tuple>& tuples, int64_t total,
                  int64_t threshold) {
#ifndef NDEBUG
  int64_t sum_g = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    WSNQ_DCHECK_GE(tuples[i].g, 1);
    WSNQ_DCHECK_GE(tuples[i].delta, 0);
    WSNQ_DCHECK_LE(tuples[i].g + tuples[i].delta,
                   std::max<int64_t>(threshold, 1));
    if (i > 0) WSNQ_DCHECK_LE(tuples[i - 1].value, tuples[i].value);
    sum_g += tuples[i].g;
  }
  WSNQ_DCHECK_EQ(sum_g, total);
#else
  (void)tuples;
  (void)total;
  (void)threshold;
#endif
}

}  // namespace

GkSummary::GkSummary(double epsilon) : epsilon_(epsilon) {
  WSNQ_CHECK_GT(epsilon, 0.0);
  WSNQ_CHECK_LT(epsilon, 0.5);
}

int64_t GkSummary::Threshold() const {
  return static_cast<int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(total_)));
}

void GkSummary::Add(int64_t value) {
  ++total_;
  // Find the first tuple with a strictly larger value.
  auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), value,
      [](int64_t v, const Tuple& t) { return v < t.value; });
  Tuple fresh;
  fresh.value = value;
  fresh.g = 1;
  if (it == tuples_.begin() || it == tuples_.end()) {
    fresh.delta = 0;  // new minimum or maximum is exactly ranked
  } else {
    fresh.delta = std::max<int64_t>(0, Threshold() - 1);
  }
  tuples_.insert(it, fresh);
  if (static_cast<int64_t>(tuples_.size()) >
      static_cast<int64_t>(3.0 / epsilon_) + 8) {
    Compress();
  }
  AuditSummary(tuples_, total_, Threshold());
}

void GkSummary::Merge(const GkSummary& other) {
  WSNQ_CHECK_EQ(epsilon_, other.epsilon_);
  if (other.tuples_.empty()) return;
  if (tuples_.empty()) {
    tuples_ = other.tuples_;
    total_ += other.total_;
    return;
  }
  // Two-way merge by value. A tuple inherits its own delta plus the
  // uncertainty of the neighbourhood it lands in within the other summary
  // (the standard mergeability argument: the other summary cannot say
  // where, between two of its tuples, the merged tuple's rank falls).
  // Built in merge_scratch_ and swapped in, so both buffers keep their
  // capacity across merges.
  std::vector<Tuple>& merged = merge_scratch_;
  merged.clear();
  size_t i = 0, j = 0;
  const std::vector<Tuple>& a = tuples_;
  const std::vector<Tuple>& b = other.tuples_;
  auto next_uncertainty = [](const std::vector<Tuple>& s, size_t idx) {
    // Uncertainty contributed by s at a point before s[idx]:
    // g(idx) + delta(idx) - 1, or 0 past the end.
    if (idx >= s.size()) return int64_t{0};
    return s[idx].g + s[idx].delta - 1;
  };
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() || (i < a.size() && a[i].value <= b[j].value);
    Tuple t = take_a ? a[i] : b[j];
    if (take_a) {
      t.delta += next_uncertainty(b, j);
      ++i;
    } else {
      t.delta += next_uncertainty(a, i);
      ++j;
    }
    merged.push_back(t);
  }
  tuples_.swap(merged);
  merged.clear();  // a copied summary then copies no stale tuples
  total_ += other.total_;
  Compress();
  AuditSummary(tuples_, total_, Threshold());
}

void GkSummary::Compress() {
  if (tuples_.size() <= 2) return;
  const int64_t threshold = Threshold();
  // Greedy right-to-left merge is classic; an equivalent left-to-right
  // greedy: fold tuple i into its successor when the combined band fits.
  // Kept tuples compact in place: the write index `kept` never passes the
  // read index i, so no write lands on a tuple still to be read.
  size_t kept = 1;  // the front always stays
  for (size_t i = 1; i + 1 < tuples_.size(); ++i) {
    const Tuple& cur = tuples_[i];
    Tuple& next = tuples_[i + 1];
    if (cur.g + next.g + next.delta < threshold) {
      // Merge cur into next: successor's g absorbs ours.
      next.g += cur.g;
    } else {
      tuples_[kept++] = cur;
    }
  }
  tuples_[kept++] = tuples_.back();
  tuples_.resize(kept);
}

int64_t GkSummary::QueryQuantile(int64_t k) const {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK(!tuples_.empty());
  if (k > total_) k = total_;
  const double slack = epsilon_ * static_cast<double>(total_);
  int64_t r_min = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    r_min += tuples_[i].g;
    const int64_t r_max_next =
        i + 1 < tuples_.size()
            ? r_min + tuples_[i + 1].g + tuples_[i + 1].delta
            : r_min;
    if (static_cast<double>(r_max_next) >
        static_cast<double>(k) + slack) {
      // Error-bound postcondition: the returned value's minimum rank is
      // within epsilon * n below k (r_min > k + slack - band >= k - slack).
      WSNQ_DCHECK_GT(static_cast<double>(r_min),
                     static_cast<double>(k) - slack - 1.0);
      return tuples_[i].value;
    }
  }
  return tuples_.back().value;
}

int64_t GkSummary::EncodedBits(const WireFormat& wire) const {
  return static_cast<int64_t>(tuples_.size()) *
         (wire.value_bits + 2 * wire.counter_bits);
}

}  // namespace wsnq
