// Q-digest sketch (Shrivastava et al., SenSys'04 — reference [26] of the
// paper): the classic WSN quantile summary. A q-digest over the integer
// universe [0, 2^height) is a set of (binary-range, count) pairs pruned by
// the digest property so that it holds at most O(k_compression * height)
// entries, is losslessly mergeable by addition + recompression, and answers
// rank/quantile queries with error at most N * height / k_compression.
//
// The paper's §3.1 dismisses summaries for *exact* queries ("an accurate
// quantile summary will always contain all values"); this substrate exists
// to quantify that trade-off: the approximate protocols built on it ship
// bounded-size messages regardless of |N| and pay with a bounded rank
// error (bench/ext_approx_tradeoff).

#ifndef WSNQ_SKETCH_QDIGEST_H_
#define WSNQ_SKETCH_QDIGEST_H_

#include <cstdint>
#include <map>
#include <vector>

#include "algo/common.h"

namespace wsnq {

/// Mergeable epsilon-approximate quantile summary over [0, 2^height).
class QDigest {
 public:
  /// `height`: universe is [0, 2^height). `compression` (the paper's k):
  /// larger = bigger digest, smaller error. Error <= N * height / k.
  QDigest(int height, int64_t compression);

  /// Inserts `value` `count` times. Precondition: 0 <= value < 2^height.
  void Add(int64_t value, int64_t count = 1);

  /// Merges another digest over the same universe/compression.
  void Merge(const QDigest& other);

  /// Prunes low-count nodes upward per the q-digest property. Called
  /// automatically by Add/Merge when the digest grows; idempotent.
  void Compress();

  /// Upper bound of the rank of `value` minus lower bound never exceeds
  /// error_bound(). Returns an estimate of the rank-k value (1-based k).
  int64_t QueryQuantile(int64_t k) const;

  /// Estimated number of values <= `value`.
  int64_t EstimateRank(int64_t value) const;

  /// Total inserted count.
  int64_t total() const { return total_; }
  /// Number of stored (range, count) nodes.
  int size() const { return static_cast<int>(nodes_.size()); }
  /// Worst-case absolute rank error of any query on this digest.
  int64_t ErrorBound() const;
  /// Serialized size in bits: size() * (node id + count).
  int64_t EncodedBits(const WireFormat& wire) const;

  int height() const { return height_; }
  int64_t compression() const { return compression_; }

 private:
  /// Heap-style node ids: root = 1 covers [0, 2^height); node n's children
  /// are 2n and 2n+1; leaves are [2^height, 2^(height+1)).
  int64_t LeafId(int64_t value) const {
    return (int64_t{1} << height_) + value;
  }
  /// Smallest leaf value covered by node `id`.
  int64_t RangeLo(int64_t id) const;
  /// Largest leaf value covered by node `id`.
  int64_t RangeHi(int64_t id) const;
  /// Debug-only structural audit (count conservation, id ranges); no-op
  /// under NDEBUG.
  void AuditDigest() const;

  int height_;
  int64_t compression_;
  int64_t total_ = 0;
  // id -> count. Ordered map, deliberately: Merge/Compress iterate this
  // and their interim structure feeds EncodedBits and the serialized
  // digest, so iteration order must not depend on a hash function.
  // (Compress's *outcome* is provably order-independent — sibling merges
  // are symmetric and parents are processed in a later level pass — but
  // std::map makes the guarantee structural instead of argued; wsnq-lint
  // rule `unordered-iter` pins it.)
  std::map<int64_t, int64_t> nodes_;
};

}  // namespace wsnq

#endif  // WSNQ_SKETCH_QDIGEST_H_
