#include "algo/hist_codec.h"

#include <algorithm>

#include "util/check.h"

namespace wsnq {

BucketLayout::BucketLayout(int64_t lb, int64_t ub, int max_buckets)
    : lb_(lb), ub_(ub) {
  WSNQ_CHECK_LT(lb, ub);
  WSNQ_CHECK_GE(max_buckets, 1);
  const int64_t span = ub - lb;
  width_ = (span + max_buckets - 1) / max_buckets;
  WSNQ_CHECK_GE(width_, 1);
  width_shift_ = PowerOfTwoShift(width_);
  num_buckets_ = static_cast<int>((span + width_ - 1) / width_);
  // Bucket edges partition [lb, ub): monotone, contiguous, and the last
  // bucket's (clamped) upper edge lands exactly on ub.
  WSNQ_DCHECK_GE(num_buckets_, 1);
  WSNQ_DCHECK_LE(num_buckets_, max_buckets);
  WSNQ_DCHECK_LT(BucketLb(num_buckets_ - 1), ub_);
  WSNQ_DCHECK_EQ(BucketUb(num_buckets_ - 1), ub_);
}

int64_t BucketLayout::BucketUb(int i) const {
  return std::min(ub_, lb_ + (static_cast<int64_t>(i) + 1) * width_);
}

}  // namespace wsnq
