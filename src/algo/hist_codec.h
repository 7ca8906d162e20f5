// Equi-width integer histograms and their wire encoding, shared by the
// histogram-based protocols (snapshot b-ary search, HBC, LCLL).
//
// A histogram partitions the half-open integer interval [lb, ub) into at
// most `b` buckets of equal width ceil((ub - lb) / b); the last bucket may
// be narrower. On the wire a histogram is either dense (b counts) or
// compressed by dropping empty buckets ((index, count) pairs, §4.1.1's
// "compressing histograms by removing empty buckets"); EncodedRowBits
// picks the cheaper form, as a real implementation would.

#ifndef WSNQ_ALGO_HIST_CODEC_H_
#define WSNQ_ALGO_HIST_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "util/check.h"

namespace wsnq {

/// Bucket layout over [lb, ub) with at most `max_buckets` buckets.
class BucketLayout {
 public:
  /// Precondition: lb < ub, max_buckets >= 1.
  BucketLayout(int64_t lb, int64_t ub, int max_buckets);

  int64_t lb() const { return lb_; }
  int64_t ub() const { return ub_; }
  int64_t width() const { return width_; }
  /// Actual number of buckets (<= max_buckets).
  int num_buckets() const { return num_buckets_; }

  /// True iff `value` falls into [lb, ub).
  bool Contains(int64_t value) const { return value >= lb_ && value < ub_; }

  /// Bucket index of `value`. Precondition: Contains(value). Power-of-two
  /// widths (the common case: b-ary drills over power-of-two universes keep
  /// halving into power-of-two widths) resolve with a shift instead of a
  /// 64-bit division — this runs once per in-range sensor per histogram
  /// wave, so the division is measurably hot.
  int BucketOf(int64_t value) const {
    WSNQ_DCHECK(Contains(value));
    const int64_t offset = value - lb_;
    const int bucket = static_cast<int>(
        width_shift_ >= 0 ? offset >> width_shift_ : offset / width_);
    WSNQ_DCHECK_GE(bucket, 0);
    WSNQ_DCHECK_LT(bucket, num_buckets_);
    return bucket;
  }

  /// Lower bound (inclusive) of bucket `i`.
  int64_t BucketLb(int i) const { return lb_ + static_cast<int64_t>(i) * width_; }
  /// Upper bound (exclusive) of bucket `i`, clamped to ub.
  int64_t BucketUb(int i) const;

 private:
  int64_t lb_;
  int64_t ub_;
  int64_t width_;
  /// log2(width_) when width_ is a power of two, else -1 (see BucketOf).
  int width_shift_;
  int num_buckets_;
};

/// Wire size of one histogram row of `buckets` counts: the cheaper of the
/// dense and compressed encodings.
inline int64_t EncodedRowBits(const int64_t* row, size_t buckets,
                              const WireFormat& wire) {
  int64_t nonempty = 0;
  for (size_t i = 0; i < buckets; ++i) nonempty += (row[i] != 0);
  const int64_t dense =
      static_cast<int64_t>(buckets) * wire.bucket_count_bits;
  const int64_t sparse =
      nonempty * (wire.bucket_count_bits + wire.bucket_index_bits);
  return std::min(dense, sparse);
}

/// The root's histogram after a HistogramConvergecast: its row in the
/// workspace's histogram arena, valid until the next histogram wave on the
/// same workspace.
struct RootHistogram {
  const int64_t* row;  ///< num_buckets counts
  int64_t total;       ///< sum of the row
  int64_t count(int bucket) const { return row[static_cast<size_t>(bucket)]; }
};

/// Aggregates at the root a histogram of `num_buckets` buckets over all
/// measurements: `bucket_of(value)` names a value's bucket in
/// [0, num_buckets), or -1 when the value is not counted. Every node
/// buckets its own value, merges its children's histograms, and transmits
/// iff the merged histogram is non-empty, paying the (possibly compressed)
/// encoding size. Bucket rows live in `ws`'s flat histogram arena (lazily
/// zeroed; zero-total subtrees are skipped entirely), so the wave is a
/// linear sweep over post order. A BucketLayout caller passes
/// `Contains(v) ? BucketOf(v) : -1`.
template <typename BucketOfFn>
RootHistogram HistogramConvergecast(Network* net,
                                    const std::vector<int64_t>& values,
                                    int num_buckets, BucketOfFn&& bucket_of,
                                    const WireFormat& wire,
                                    WaveWorkspace* ws) {
  const size_t buckets = static_cast<size_t>(num_buckets);
  ws->PrepareHist(static_cast<size_t>(net->num_vertices()), buckets);
  struct Ops {
    Network* net;
    const std::vector<int64_t>& values;
    BucketOfFn& bucket_of;
    size_t buckets;
    const WireFormat& wire;
    WaveWorkspace* ws;

    WaveSend Process(int v, WaveLane& /*lane*/) {
      // A local bound: row stores could alias the member, which would keep
      // the merge loop below from vectorizing.
      const size_t width = buckets;
      int64_t total = 0;
      int64_t* row = nullptr;
      if (!net->is_root(v)) {
        const int bucket = bucket_of(values[static_cast<size_t>(v)]);
        if (bucket >= 0) {
          WSNQ_DCHECK_LT(static_cast<size_t>(bucket), width);
          row = ws->HistRow(v);
          row[bucket] += 1;
          total = 1;
        }
      }
      for (int child : net->tree().children[static_cast<size_t>(v)]) {
        const int64_t child_total = ws->HistTotal(child);
        if (child_total == 0) continue;
        if (row == nullptr) row = ws->HistRow(v);
        const int64_t* child_row = ws->HistRow(child);
        for (size_t b = 0; b < width; ++b) row[b] += child_row[b];
        total += child_total;
      }
      ws->HistTotal(v) = total;
      WaveSend send;
      if (total > 0) send.payload_bits = EncodedRowBits(row, width, wire);
      return send;
    }
    void OnLost(int v) {
      ws->HistTotal(v) = 0;  // lost uplink: the parent never merges the row
    }
  };
  Ops ops{net, values, bucket_of, buckets, wire, ws};
  RunConvergecastWave(net, ops);
  const int root = net->root();
  // HistRow zeroes a row no child merged into, so an empty histogram reads
  // as all zeros.
  const RootHistogram result{ws->HistRow(root), ws->HistTotal(root)};
#ifndef NDEBUG
  int64_t row_total = 0;
  for (size_t b = 0; b < buckets; ++b) row_total += result.row[b];
  WSNQ_DCHECK_EQ(row_total, result.total);
  if (!net->lossy()) {
    // Conservation through the convergecast: the root's histogram holds
    // exactly one count per counted sensor measurement.
    int64_t expect = 0;
    for (int v : net->tree().post_order) {
      if (!net->is_root(v) && bucket_of(values[static_cast<size_t>(v)]) >= 0)
        ++expect;
    }
    WSNQ_DCHECK_EQ(result.total, expect);
  }
#endif
  return result;
}

}  // namespace wsnq

#endif  // WSNQ_ALGO_HIST_CODEC_H_
