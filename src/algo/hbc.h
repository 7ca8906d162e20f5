// HBC — Histogram-Based Continuous quantile queries (§4.1, the paper's
// first contribution): POS's validation machinery combined with the
// cost-model-driven b-ary histogram refinement of the authors' snapshot
// work, instead of POS's plain binary search.
//
// Per round:
//  1. validation convergecast relative to the current filter; the modified
//     one-value hint of §5.1.6 (max distance between the old quantile and
//     any state-changing value) bounds the refinement interval;
//  2. if (l, e, g) no longer certify the filter, the root b-ary drills the
//     hinted interval (BAryDrill), optionally finishing with a direct value
//     request;
//  3. the new quantile is broadcast iff it changed.
//
// The §4.1.2 variant ("eliminate threshold broadcasts") replaces the single
// threshold filter with the interval of the last refinement request, which
// every node saw anyway. It never broadcasts the quantile — at the price of
// re-refining the (narrow) filter interval whenever it is wider than one
// value, and it cannot use direct retrieval (the paper notes the two
// improvements do not compose).
//
// The number of buckets b is computed once from the Lambert-W cost model
// (§4.1: "we did not recompute b during each round since ... the difference
// in performance was marginal").

#ifndef WSNQ_ALGO_HBC_H_
#define WSNQ_ALGO_HBC_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"
#include "algo/snapshot_bary.h"

namespace wsnq {

/// Histogram-Based Continuous quantile protocol.
class HbcProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Histogram buckets; 0 = derive from the cost model (RoundedBExact).
    int buckets = 0;
    /// Request candidate values directly once they fit in one packet.
    bool direct_retrieval = true;
    /// §4.1.2: interval filter, no threshold broadcasts. Forces
    /// direct_retrieval off.
    bool eliminate_threshold_broadcast = false;
    /// Carry the one-value max-distance hint in validation packets.
    bool use_hints = true;
  };

  HbcProtocol(int64_t k, int64_t range_min, int64_t range_max,
              const WireFormat& wire, const Options& options);

  const char* name() const override {
    return options_.eliminate_threshold_broadcast ? "HBC-NTB" : "HBC";
  }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return quantile_; }
  /// Basic variant: counts relative to the threshold filter (== quantile).
  /// NTB variant: counts relative to the interval filter [filter_lb,
  /// filter_ub) — l below it, e inside, g at/above filter_ub.
  RootCounts root_counts() const override { return counts_; }
  int64_t refinements_last_round() const override { return refinements_; }

  /// Number of buckets in use (from the cost model unless overridden).
  int buckets() const { return buckets_; }
  /// NTB interval filter bounds; meaningful only for that variant.
  int64_t filter_lb() const { return filter_lb_; }
  int64_t filter_ub() const { return filter_ub_; }

  /// Adopts foreign continuous state (threshold filter + bookkeeping); used
  /// by the adaptive switching protocol to change algorithms mid-query
  /// without re-initialization (§4.2). Basic variant only.
  void AdoptState(int64_t filter, const RootCounts& counts,
                  std::vector<int64_t> prev_values);

 private:
  void Initialize(Network* net, const std::vector<int64_t>& values);
  void RunBasicRound(Network* net, const std::vector<int64_t>& values);
  void RunNtbRound(Network* net, const std::vector<int64_t>& values);

  int64_t k_;
  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  Options options_;
  int buckets_ = 0;
  /// Drill options of every b-ary drill, set by Initialize.
  DrillOptions drill_;

  int64_t quantile_ = 0;
  RootCounts counts_;
  std::vector<int64_t> prev_values_;
  /// Network::tree_epoch() the state was initialized under; a mismatch
  /// (fault-driven tree repair) forces re-initialization.
  int64_t tree_epoch_ = 0;
  int64_t refinements_ = 0;

  // Basic variant filter.
  int64_t filter_ = 0;
  // NTB variant interval filter [filter_lb_, filter_ub_).
  int64_t filter_lb_ = 0;
  int64_t filter_ub_ = 0;

  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_HBC_H_
