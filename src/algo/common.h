// Shared protocol building blocks: wire sizes, the lt/eq/gt region algebra
// of POS-style filters, validation counter aggregation, hints, and the
// TAG-style k-limited collection used for initialization.
//
// All convergecast helpers run on the net/wave.h engine: per-vertex state
// lives in struct-of-arrays rows of a WaveWorkspace (flat arrays indexed by
// vertex, the ValuesView idiom extended to protocol state), so a wave is a
// tight linear sweep over post order — serially, or partitioned over
// subtrees when a WaveExecutor is installed. Each protocol owns one
// workspace; row capacities persist across rounds, so steady-state waves
// allocate nothing.

#ifndef WSNQ_ALGO_COMMON_H_
#define WSNQ_ALGO_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "algo/protocol.h"
#include "net/network.h"
#include "net/wave.h"

namespace wsnq {

/// Field sizes used to compute message payloads (Table 1's s_* symbols).
struct WireFormat {
  /// s_v: one measurement [bits] ("two-byte measurements", §5.1.6).
  int64_t value_bits = 16;
  /// One movement counter of a validation packet [bits].
  int64_t counter_bits = 16;
  /// s_b: one histogram bucket count [bits].
  int64_t bucket_count_bits = 16;
  /// Bucket index used by compressed (sparse) histograms [bits].
  int64_t bucket_index_bits = 8;
  /// One interval bound in a refinement request [bits].
  int64_t bound_bits = 16;
  /// An f_1/f_2-style "number of values requested" field [bits].
  int64_t fcount_bits = 16;
};

/// log2(w) when w is a power of two, else -1. Bucket widths derived from
/// power-of-two universes stay powers of two through b-ary halving, so the
/// per-value bucket divisions in the histogram hot loops can use a shift;
/// callers precompute the shift once per layout (see BucketLayout::BucketOf
/// and LcllProtocol::BucketId).
inline int PowerOfTwoShift(int64_t w) {
  if (w <= 0 || (w & (w - 1)) != 0) return -1;
  int shift = 0;
  while ((int64_t{1} << shift) != w) ++shift;
  return shift;
}

/// Position of a value relative to a single threshold filter.
enum class Region { kLt, kEq, kGt };

inline Region ClassifyThreshold(int64_t value, int64_t threshold) {
  if (value < threshold) return Region::kLt;
  if (value > threshold) return Region::kGt;
  return Region::kEq;
}

/// Aggregated content of a POS validation / refinement packet: the four
/// movement counters of §3.2 plus the min/max hint over all values that
/// changed their region.
struct ValidationAgg {
  int64_t into_lt = 0;
  int64_t outof_lt = 0;
  int64_t into_gt = 0;
  int64_t outof_gt = 0;
  bool has_hint = false;
  int64_t min_changed = 0;
  int64_t max_changed = 0;

  bool empty() const {
    return into_lt == 0 && outof_lt == 0 && into_gt == 0 && outof_gt == 0 &&
           !has_hint;
  }

  /// Folds a child's aggregate into this one (TAG-style merge).
  void Merge(const ValidationAgg& other) {
    into_lt += other.into_lt;
    outof_lt += other.outof_lt;
    into_gt += other.into_gt;
    outof_gt += other.outof_gt;
    if (other.has_hint) AddHint(other.min_changed, other.max_changed);
  }

  /// Records one node's region transition `from` -> `to` for a value that
  /// is now `value`.
  void AddTransition(Region from, Region to, int64_t value) {
    if (from == to) return;
    if (to == Region::kLt) ++into_lt;
    if (from == Region::kLt) ++outof_lt;
    if (to == Region::kGt) ++into_gt;
    if (from == Region::kGt) ++outof_gt;
    AddHint(value, value);
  }

 private:
  void AddHint(int64_t lo, int64_t hi) {
    if (!has_hint) {
      has_hint = true;
      min_changed = lo;
      max_changed = hi;
    } else {
      min_changed = std::min(min_changed, lo);
      max_changed = std::max(max_changed, hi);
    }
  }
};

/// One entry of a sparse multi-rank validation row: (rank index, that
/// rank's non-empty aggregate).
using AggEntry = std::pair<int, ValidationAgg>;

/// Reusable struct-of-arrays rows for the convergecast hot loops, indexed
/// by vertex. One workspace per protocol instance; a wave's Prepare* call
/// resets the rows it needs while keeping their heap capacity, so repeated
/// waves allocate nothing once warm. Distinct row families back waves that
/// nest (a refinement convergecast issued while a validation wave's root
/// row is still being consumed), and subtree-parallel parts write disjoint
/// vertex rows, so no locking is needed anywhere.
class WaveWorkspace {
 public:
  /// `n` ValidationAgg rows, reset to empty.
  std::vector<ValidationAgg>& PrepareAgg(size_t n);

  /// `n` sparse AggEntry rows, all cleared (multi-rank validation).
  std::vector<std::vector<AggEntry>>& PrepareAggEntries(size_t n);

  /// `n` value-collection rows, all cleared. Used by the k-limited /
  /// range / top-f collections.
  std::vector<std::vector<int64_t>>& PrepareSets(size_t n);

  /// A second, independent family of value rows for window membership (IQ /
  /// multi-quantile), so a refinement collection can run while root windows
  /// are still being consumed.
  std::vector<std::vector<int64_t>>& PrepareWindows(size_t n);

  /// `n` sparse (index, value) rows, all cleared: LCLL's (bucket, delta)
  /// validation rows and multi-rank (rank index, window value) rows.
  std::vector<std::vector<std::pair<int, int64_t>>>& PreparePairs(size_t n);

  /// Histogram arena of `n` rows × `buckets` counts. Rows start logically
  /// zero and are zeroed lazily on first HistRow touch; per-row totals
  /// (maintained by the caller through HistTotal) start at zero, so a row
  /// whose total is 0 is never read and never needs zeroing.
  void PrepareHist(size_t n, size_t buckets);
  /// The bucket row of vertex `v`, zeroed on first touch this wave.
  int64_t* HistRow(int v);
  int64_t& HistTotal(int v) { return hist_total_[static_cast<size_t>(v)]; }
  int64_t HistTotal(int v) const {
    return hist_total_[static_cast<size_t>(v)];
  }
  size_t hist_buckets() const { return hist_buckets_; }

 private:
  std::vector<ValidationAgg> agg_;
  std::vector<std::vector<AggEntry>> agg_entries_;
  std::vector<std::vector<int64_t>> sets_;
  std::vector<std::vector<int64_t>> windows_;
  std::vector<std::vector<std::pair<int, int64_t>>> pairs_;

  std::vector<int64_t> hist_;
  std::vector<int64_t> hist_total_;
  std::vector<uint64_t> hist_epoch_;
  uint64_t hist_wave_ = 0;
  size_t hist_buckets_ = 0;
};

/// Merges sorted `child` into sorted `mine` (ordered by `cmp`) through
/// `scratch`, leaving `child` empty. Equal values keep their relative
/// grouping, so the result is the same sequence a concatenate-then-sort
/// would produce.
///
/// Ownership rule: every buffer stays with its owner. The result is copied
/// into `mine`'s own buffer, never swapped in from `child` or `scratch`, so
/// each workspace row's capacity tracks the largest list that vertex itself
/// has held. A swap would hand a buffer sized for one vertex's list to
/// another vertex every wave, and total row capacity would ratchet up round
/// after round (233 MB of empty TAG rows after 101 rounds at n = 65,536).
template <typename Cmp>
void MergeSortedInto(std::vector<int64_t>* mine, std::vector<int64_t>* child,
                     std::vector<int64_t>* scratch, Cmp cmp) {
  if (child->empty()) return;
  if (mine->empty()) {
    mine->assign(child->begin(), child->end());
    child->clear();
    return;
  }
  // A handful of child elements binary-insert cheaper than rewriting all of
  // `mine`; upper_bound lands each one after its ties, exactly where
  // std::merge (which copies `mine` first on equality) would put it.
  constexpr size_t kTinyChild = 8;
  if (child->size() <= kTinyChild) {
    for (const int64_t x : *child) {
      mine->insert(std::upper_bound(mine->begin(), mine->end(), x, cmp), x);
    }
    child->clear();
    return;
  }
  scratch->clear();
  scratch->reserve(mine->size() + child->size());
  std::merge(mine->begin(), mine->end(), child->begin(), child->end(),
             std::back_inserter(*scratch), cmp);
  mine->assign(scratch->begin(), scratch->end());
  child->clear();
}

/// Truncates `sorted` (ordered by its wave's comparator) to its first
/// `limit` entries plus all duplicates of the limit-th entry.
inline void TruncateWithTies(std::vector<int64_t>* sorted, int64_t limit) {
  if (static_cast<int64_t>(sorted->size()) <= limit) return;
  const int64_t cutoff = (*sorted)[static_cast<size_t>(limit - 1)];
  size_t keep = static_cast<size_t>(limit);
  while (keep < sorted->size() && (*sorted)[keep] == cutoff) ++keep;
  sorted->resize(keep);
}

/// MergeSortedInto followed by TruncateWithTies(limit). Truncating after
/// every merge (not just once per vertex) is exactness-preserving: an
/// element beyond the limit-th entry of any intermediate superset compares
/// strictly after the final cutoff, so merge-everything-then-truncate
/// would drop it too. It keeps the running list bounded by limit + ties,
/// which turns the high-fanout merge cascade from quadratic in the child
/// count into linear.
template <typename Cmp>
void MergeTruncatedInto(std::vector<int64_t>* mine,
                        std::vector<int64_t>* child,
                        std::vector<int64_t>* scratch, int64_t limit,
                        Cmp cmp) {
  MergeSortedInto(mine, child, scratch, cmp);
  TruncateWithTies(mine, limit);
}

/// Applies aggregated movement counters to root counts (l and g move by the
/// counter deltas; e is rederived from the population size).
inline void ApplyCounters(const ValidationAgg& agg, int64_t population,
                          RootCounts* counts) {
  counts->l += agg.into_lt - agg.outof_lt;
  counts->g += agg.into_gt - agg.outof_gt;
  counts->e = population - counts->l - counts->g;
}

/// Whether `counts` certify that the current filter value is the exact k-th
/// smallest: l < k <= l + e.
inline bool CountsValid(const RootCounts& counts, int64_t k) {
  return counts.l < k && counts.l + counts.e >= k;
}

/// Debug-audit helper: the root's (l, e, g) are componentwise non-negative
/// and partition the sensor population. Message loss can legitimately break
/// this, so call sites guard on `!net->lossy()`.
inline bool CountsConserved(const RootCounts& counts, int64_t population) {
  return counts.l >= 0 && counts.e >= 0 && counts.g >= 0 &&
         counts.l + counts.e + counts.g == population;
}

/// TAG-style k-limited collection (§5.1.6): every node forwards the k
/// smallest values of its subtree — plus all duplicates of the k-th
/// smallest, so the root learns the exact multiplicity of every value up to
/// rank k. Communication is accounted on `net`; returns the root's sorted
/// multiset (size >= min(k, |N|)).
std::vector<int64_t> CollectKSmallest(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t k, const WireFormat& wire,
                                      WaveWorkspace* ws = nullptr);

/// Root counts (l, e, g) of `threshold` given a collection that is complete
/// up to and including every duplicate of the k-th smallest value.
RootCounts CountsFromCollection(const std::vector<int64_t>& sorted_collection,
                                int64_t threshold, int64_t population);

/// Best-effort k-th smallest from a possibly incomplete sorted collection
/// (message loss, §6): clamps the rank into the collection and falls back
/// to `fallback` when nothing arrived at all.
inline int64_t BestEffortKth(const std::vector<int64_t>& sorted, int64_t k,
                             int64_t fallback) {
  if (sorted.empty()) return fallback;
  const int64_t idx =
      std::clamp<int64_t>(k, 1, static_cast<int64_t>(sorted.size())) - 1;
  return sorted[static_cast<size_t>(idx)];
}

/// Collects every measurement inside [lo, hi] (inclusive) at the root
/// ("request all values in the remaining interval directly", §3.2).
/// Intermediate nodes merge sorted runs; accounting goes through `net`.
/// Returns the root's sorted multiset.
std::vector<int64_t> RangeValuesConvergecast(Network* net,
                                             const std::vector<int64_t>& values,
                                             int64_t lo, int64_t hi,
                                             const WireFormat& wire,
                                             WaveWorkspace* ws = nullptr);

/// IQ-style bounded refinement response (§4.2.2): collects the `f` largest
/// (or smallest) measurements inside [lo, hi]; intermediate nodes drop
/// everything beyond the f-th extreme, but forward all duplicates of the
/// f-th extreme so the root can account for ties. Returns the root's sorted
/// (ascending) multiset.
std::vector<int64_t> TopFConvergecast(Network* net,
                                      const std::vector<int64_t>& values,
                                      int64_t lo, int64_t hi, int64_t f,
                                      bool largest, const WireFormat& wire,
                                      WaveWorkspace* ws = nullptr);

/// Runs a POS-style transition convergecast. For every sensor vertex v,
/// `classify(v)` returns its (from, to) region pair; region changes are
/// folded into ValidationAgg rows that merge up the tree. A node transmits
/// iff its merged aggregate is non-empty; the packet payload is four
/// movement counters plus `hint_values` measurement fields when the
/// aggregate carries a hint. Returns the root's aggregate.
template <typename ClassifyFn>
ValidationAgg TransitionConvergecast(Network* net,
                                     const std::vector<int64_t>& values,
                                     const WireFormat& wire, int hint_values,
                                     ClassifyFn&& classify,
                                     WaveWorkspace* ws = nullptr) {
  WaveWorkspace fallback;
  if (ws == nullptr) ws = &fallback;
  std::vector<ValidationAgg>& inbox =
      ws->PrepareAgg(static_cast<size_t>(net->num_vertices()));
  struct Ops {
    Network* net;
    const std::vector<int64_t>& values;
    const WireFormat& wire;
    int hint_values;
    ClassifyFn& classify;
    std::vector<ValidationAgg>& inbox;

    WaveSend Process(int v, WaveLane& /*lane*/) {
      ValidationAgg& agg = inbox[static_cast<size_t>(v)];
      if (!net->is_root(v)) {
        const auto [from, to] = classify(v);
        agg.AddTransition(from, to, values[static_cast<size_t>(v)]);
      }
      for (int child : net->tree().children[static_cast<size_t>(v)]) {
        agg.Merge(inbox[static_cast<size_t>(child)]);
      }
      WaveSend send;
      if (!agg.empty()) {
        send.payload_bits =
            4 * wire.counter_bits +
            (agg.has_hint ? hint_values * wire.value_bits : 0);
      }
      return send;
    }
    void OnLost(int v) {
      // Lost uplink: the subtree report vanishes.
      inbox[static_cast<size_t>(v)] = ValidationAgg{};
    }
  };
  Ops ops{net, values, wire, hint_values, classify, inbox};
  RunConvergecastWave(net, ops);
  return inbox[static_cast<size_t>(net->root())];
}

}  // namespace wsnq

#endif  // WSNQ_ALGO_COMMON_H_
