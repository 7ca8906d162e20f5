// Snapshot b-ary histogram search — the authors' prior cost-model work
// ([21], summarized in §4.1): the root repeatedly broadcasts a refinement
// interval, receives an aggregated b-bucket histogram of it, and descends
// into the bucket containing the k-th value until the bucket is a single
// integer (or few enough candidates remain to request them verbatim).
//
// The drill is exposed as a reusable primitive: HBC uses it for its
// initialization round and for every per-round refinement; LCLL uses it to
// resolve boundary regions and over-wide buckets. A thin QuantileProtocol
// wrapper makes the snapshot algorithm runnable stand-alone (it simply
// re-runs the search every round).

#ifndef WSNQ_ALGO_SNAPSHOT_BARY_H_
#define WSNQ_ALGO_SNAPSHOT_BARY_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"

namespace wsnq {

/// Outcome of a b-ary histogram drill.
struct DrillResult {
  /// The exact k-th smallest value.
  int64_t quantile = 0;
  /// Exact (l, e, g) of `quantile` over the whole population.
  RootCounts counts;
  /// The last interval broadcast as a refinement request — every node knows
  /// it, which is what HBC's §4.1.2 variant exploits as its filter.
  int64_t last_lb = 0;
  int64_t last_ub = 0;
  /// Exact number of measurements below / inside the last interval.
  int64_t below_last = 0;
  int64_t in_last = 0;
  /// Request/response exchanges performed.
  int rounds = 0;
};

/// Options of a drill.
struct DrillOptions {
  /// Histogram buckets per refinement (b).
  int buckets = 8;
  /// If > 0, request candidate values directly once at most this many
  /// remain in the chosen bucket ("sending values directly if the
  /// refinement interval is nearly empty", §4.1.1).
  int64_t direct_capacity = 0;
};

/// Finds the k-th smallest overall value, known to lie in [lb, ub) with
/// exactly `below_lb` values smaller than lb. Floods every request and
/// aggregates every histogram/value response through `net`.
///
/// HBC's downward refinement knows the count *below ub* (it equals the
/// root's l) but not the count below the hinted lb; pass below_lb = -1 and
/// the count below ub via `less_than_ub`, and the drill derives below_lb
/// from its first histogram (§4.1.1).
///
/// Preconditions: lb < ub; the k-th value is in [lb, ub); below_lb < k when
/// known, else less_than_ub >= k... (the count below ub must cover rank k).
DrillResult BAryDrill(Network* net, const std::vector<int64_t>& values,
                      int64_t lb, int64_t ub, int64_t below_lb, int64_t k,
                      const DrillOptions& options, const WireFormat& wire,
                      int64_t less_than_ub, WaveWorkspace* ws);

/// Stand-alone snapshot protocol: one full b-ary search per round.
class SnapshotBaryProtocol : public QuantileProtocol {
 public:
  SnapshotBaryProtocol(int64_t k, int64_t range_min, int64_t range_max,
                       const WireFormat& wire, const DrillOptions& options)
      : k_(k),
        range_min_(range_min),
        range_max_(range_max),
        wire_(wire),
        options_(options) {}

  const char* name() const override { return "SNAPSHOT"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return result_.quantile; }
  RootCounts root_counts() const override { return result_.counts; }
  int64_t refinements_last_round() const override { return result_.rounds; }

 private:
  int64_t k_;
  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  DrillOptions options_;
  DrillResult result_;
  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_SNAPSHOT_BARY_H_
