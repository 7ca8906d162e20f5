#include "algo/snapshot_bary.h"

#include <algorithm>

#include "algo/hist_codec.h"
#include "util/check.h"

namespace wsnq {

DrillResult BAryDrill(Network* net, const std::vector<int64_t>& values,
                      int64_t lb, int64_t ub, int64_t below_lb, int64_t k,
                      const DrillOptions& options, const WireFormat& wire,
                      int64_t less_than_ub, WaveWorkspace* ws) {
  WSNQ_CHECK_LT(lb, ub);
  // Lost validation deltas can leave the caller's counts anywhere, even
  // negative; the body clamps what it derives from them under loss.
  if (!net->lossy()) {
    if (below_lb >= 0) {
      WSNQ_CHECK_LT(below_lb, k);
    } else {
      WSNQ_CHECK_GE(less_than_ub, k);
    }
  }
  WSNQ_CHECK_GE(options.buckets, 2);

  DrillResult result;
  result.last_lb = lb;
  result.last_ub = ub;
  result.below_last = below_lb;
  result.in_last = -1;  // unknown until the first histogram arrives

  int64_t cl = below_lb;  // -1 while unknown
  int64_t count_in = -1;  // values in [lb, ub); -1 = unknown
  while (true) {
    // Width-one intervals are already unique: the k-th value is lb itself.
    if (ub - lb == 1) {
      result.quantile = lb;
      result.counts.l = cl;
      // count_in may be unknown when the enclosing bucket was width one
      // from the start; resolve it with one histogram below.
      if (count_in >= 0) {
        result.counts.e = count_in;
        result.counts.g = net->num_sensors() - cl - count_in;
        return result;
      }
    }
    if (options.direct_capacity > 0 && count_in >= 0 &&
        count_in <= options.direct_capacity && ub - lb > 1) {
      // Direct value retrieval (§4.1.1 improvement).
      net->FloodFromRoot(2 * wire.bound_bits);
      const std::vector<int64_t>& collected =
          RangeValuesConvergecast(net, values, lb, ub - 1, wire, ws);
      ++result.rounds;
      const int64_t rank = k - cl;  // 1-based within the interval
      if (!net->lossy()) {
        WSNQ_CHECK_EQ(static_cast<int64_t>(collected.size()), count_in);
        WSNQ_CHECK_GE(rank, 1);
        WSNQ_CHECK_LE(rank, count_in);
      }
      result.quantile = BestEffortKth(collected, rank, lb);
      result.counts.l = cl;
      result.counts.e = 0;
      for (int64_t v : collected) {
        if (v < result.quantile) ++result.counts.l;
        if (v == result.quantile) ++result.counts.e;
      }
      result.counts.g =
          net->num_sensors() - result.counts.l - result.counts.e;
      return result;
    }

    // Refinement request + histogram response.
    const BucketLayout layout(lb, ub, options.buckets);
    net->FloodFromRoot(2 * wire.bound_bits);
    const RootHistogram hist = HistogramConvergecast(
        net, values, layout.num_buckets(),
        [&layout](int64_t v) {
          return layout.Contains(v) ? layout.BucketOf(v) : -1;
        },
        wire, ws);
    ++result.rounds;
    if (cl < 0) {
      // Downward HBC refinement: derive the count below lb from the count
      // below ub and the interval population (§4.1.1).
      cl = less_than_ub - hist.total;
      if (net->lossy()) {
        cl = std::clamp<int64_t>(cl, 0, k - 1);
      } else {
        WSNQ_CHECK_GE(cl, 0);
        WSNQ_CHECK_LT(cl, k);
      }
    }
    result.last_lb = lb;
    result.last_ub = ub;
    result.below_last = cl;
    result.in_last = hist.total;
    if (count_in >= 0 && !net->lossy()) {
      WSNQ_CHECK_EQ(hist.total, count_in);
    }

    // Locate the bucket containing the k-th value.
    int64_t running = cl;
    int bucket = -1;
    for (int j = 0; j < layout.num_buckets(); ++j) {
      if (running + hist.count(j) >= k) {
        bucket = j;
        break;
      }
      running += hist.count(j);
    }
    if (bucket < 0) {
      // Lost histograms can leave the cumulative counts short of rank k;
      // descend into the last non-empty bucket (or give up on an empty
      // histogram and report the interval's lower bound).
      WSNQ_CHECK(net->lossy());
      for (int j = layout.num_buckets() - 1; j >= 0; --j) {
        if (hist.count(j) > 0) {
          bucket = j;
          break;
        }
      }
      if (bucket < 0) {
        result.quantile = lb;
        result.counts.l = std::max<int64_t>(cl, 0);
        result.counts.e = 0;
        result.counts.g =
            net->num_sensors() - result.counts.l;
        return result;
      }
      running = std::max<int64_t>(cl, k - hist.count(bucket));
    }
    lb = layout.BucketLb(bucket);
    ub = layout.BucketUb(bucket);
    cl = running;
    count_in = hist.count(bucket);
    // Drill loop invariant: the chosen bucket is a genuine sub-interval
    // and, absent loss, still brackets rank k (cl < k <= cl + count_in).
    WSNQ_DCHECK_LT(lb, ub);
    if (!net->lossy()) {
      WSNQ_DCHECK_LT(cl, k);
      WSNQ_DCHECK_GE(cl + count_in, k);
    }
  }
}

void SnapshotBaryProtocol::RunRound(
    Network* net, const std::vector<int64_t>& values_by_vertex,
    int64_t round) {
  if (round == 0) {
    // Query dissemination.
    net->FloodFromRoot(wire_.counter_bits);
  }
  result_ = BAryDrill(net, values_by_vertex, range_min_, range_max_ + 1,
                      /*below_lb=*/0, k_, options_, wire_,
                      /*less_than_ub=*/-1, &ws_);
}

}  // namespace wsnq
