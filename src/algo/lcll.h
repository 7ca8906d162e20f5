// LCLL (Liu et al. [16], as configured and improved in §5.1.6) — the
// message-size-driven histogram baseline, reconstructed from the paper's
// behavioural description (see DESIGN.md §1.2 for the mapping of every
// claim in §5 to a design decision here):
//
//  * b is set by the message size: b = max_payload / s_b (= 64 by default);
//  * the root maintains a *focused window* of b fine buckets (width
//    w = ceil(tau / b^2), at least 1) around the current quantile, plus two
//    boundary buckets (everything below / above the window);
//  * validation is delta-encoded (§5.1.6's improvement): a node transmits
//    only when its value changed buckets, as a (-1 old bucket, +1 new
//    bucket) pair; nodes sitting in a boundary bucket stay silent;
//  * when the k-th value leaves the window, LCLL-H ("Hierarchical
//    Refining") b-ary drills the boundary region (logarithmic in the
//    quantile distance) and then re-establishes the window around the new
//    quantile with a full-network histogram convergecast — the "zooming in
//    and zooming out" the paper charges it for; LCLL-S ("Slip Refining")
//    slides the window one window-length at a time toward the quantile
//    (linear in the distance, but each step only touches the few nodes
//    inside the slipped window);
//  * over-wide buckets (w > 1) are resolved by direct value retrieval or a
//    b-ary sub-drill, "a node did only transmit its value during a
//    refinement if it was contained in the refinement interval".

#ifndef WSNQ_ALGO_LCLL_H_
#define WSNQ_ALGO_LCLL_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"
#include "algo/snapshot_bary.h"

namespace wsnq {

/// Focused-window histogram protocol with hierarchical or slip refining.
class LcllProtocol : public QuantileProtocol {
 public:
  enum class RefineMode { kHierarchical, kSlip };

  struct Options {
    RefineMode mode = RefineMode::kHierarchical;
    /// Buckets per histogram; 0 = max_payload_bits / bucket_count_bits.
    int buckets = 0;
    /// Window bucket width; 0 = max(1, ceil(tau / buckets^2)).
    int64_t bucket_width = 0;
    /// Resolve over-wide buckets by direct value requests when they fit in
    /// a packet.
    bool direct_retrieval = true;
  };

  LcllProtocol(int64_t k, int64_t range_min, int64_t range_max,
               const WireFormat& wire, const Options& options);

  const char* name() const override {
    return options_.mode == RefineMode::kHierarchical ? "LCLL-H" : "LCLL-S";
  }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return quantile_; }
  RootCounts root_counts() const override { return counts_; }
  int64_t refinements_last_round() const override { return refinements_; }

  int buckets() const { return buckets_; }
  int64_t bucket_width() const { return width_; }
  int64_t window_lo() const { return window_lo_; }
  int64_t window_hi() const { return window_lo_ + span(); }

 private:
  int64_t span() const { return static_cast<int64_t>(buckets_) * width_; }
  /// Bucket id of a value: -1 below the window, 0..b-1 inside, b above.
  int BucketId(int64_t value) const;
  /// Aligns `x` down to the global w-grid anchored at range_min and clamps
  /// it into the admissible window origin range.
  int64_t AlignWindowLo(int64_t x) const;

  void Initialize(Network* net, const std::vector<int64_t>& values);
  /// Delta-encoded validation convergecast; applies deltas to the root's
  /// window histogram and boundary counts.
  void Validate(Network* net, const std::vector<int64_t>& values);
  /// Floods a new window origin and rebuilds histogram + boundary counts
  /// with a full-network histogram convergecast (LCLL-H's "zoom out").
  void Reestablish(Network* net, const std::vector<int64_t>& values,
                   int64_t new_window_lo);
  /// Slides the window one span toward lower/higher values, updating the
  /// bookkeeping from a window-only histogram convergecast (LCLL-S).
  void Slip(Network* net, const std::vector<int64_t>& values, bool down);
  /// Resolves the exact quantile inside window bucket `j`, whose first
  /// covered rank is cl + 1.
  void ResolveBucket(Network* net, const std::vector<int64_t>& values, int j,
                     int64_t cl);
  /// Loss recovery: re-syncs the window histogram around the last known
  /// quantile and resolves a clamped rank from whatever was received.
  void BestEffortResolve(Network* net, const std::vector<int64_t>& values);

  int64_t k_;
  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  Options options_;
  int buckets_ = 0;
  /// Drill options of every b-ary drill, set by Initialize.
  DrillOptions drill_;
  int64_t width_ = 1;
  /// log2(width_) when it is a power of two, else -1: BucketId runs twice
  /// per sensor per validation wave, so the division matters.
  int width_shift_ = 0;

  int64_t window_lo_ = 0;
  std::vector<int64_t> hist_;  // window bucket counts
  int64_t below_ = 0;          // count < window_lo
  int64_t above_ = 0;          // count >= window_hi

  int64_t quantile_ = 0;
  RootCounts counts_;
  std::vector<int64_t> prev_values_;
  /// BucketId(prev_values_[v]) under prev_bucket_window_lo_, maintained so
  /// the steady-state validation prescan costs one compare per vertex
  /// instead of recomputing last round's bucket. Rebuilt whenever the
  /// window moves (refinements) or the protocol re-initializes.
  std::vector<int> prev_bucket_;
  int64_t prev_bucket_window_lo_ = 0;
  bool prev_bucket_valid_ = false;
  /// Validation-wave scratch (see Validate): delta_dirty_[v] — v's subtree
  /// carries deltas this round; delta_changed_[v] — v's own bucket moved,
  /// with the old bucket stashed in delta_from_[v].
  std::vector<uint8_t> delta_dirty_;
  std::vector<uint8_t> delta_changed_;
  std::vector<int> delta_from_;
  /// Network::tree_epoch() the state was initialized under; a mismatch
  /// (fault-driven tree repair) forces re-initialization.
  int64_t tree_epoch_ = 0;
  int64_t refinements_ = 0;
  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_LCLL_H_
