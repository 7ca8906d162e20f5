// Continuous multi-quantile tracking (extension): §2 notes the solution "is
// in fact independent of the value of k", so monitoring several quantiles —
// say the quartiles (phi = 0.25, 0.5, 0.75) — is a natural next step. The
// naive approach runs one IQ instance per rank and pays one validation
// packet per rank per reporting node. MultiIqProtocol instead runs the IQ
// machinery for all ranks inside a single shared convergecast: one packet
// per node per round carries the movement counters, hints, and window
// values of every tracked rank, so the per-message header — the dominant
// fixed cost — is paid once instead of m times (bench/abl_multiq measures
// the saving).
//
// The validation wave keeps sparse per-vertex rows, so its work follows
// the ranks a value touches rather than every rank tracked. Vertex v's
// aggregate row lists (rank index, ValidationAgg) only for the ranks whose
// aggregate over v's subtree is non-empty, sorted by rank index; children
// fold in by a two-pointer merge. Its window row lists (rank index, value)
// for every window value in the subtree. A node finds the ranks its own
// value touches by binary search in the ranks sorted by filter: a move
// from p to x crosses exactly the filters in [min(p, x), max(p, x)]. The
// packet is priced from the rows as before: an m-bit presence bitmap, four
// counters (plus a hint value) per non-empty aggregate, and one value per
// window entry.

#ifndef WSNQ_ALGO_MULTI_QUANTILE_H_
#define WSNQ_ALGO_MULTI_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/iq.h"
#include "algo/protocol.h"

namespace wsnq {

/// IQ-style continuous tracking of several ranks at once. Every rank runs
/// IQ's root-side steps (algo/iq.h) with IQ's default options.
class MultiIqProtocol {
 public:
  /// Tracks each 1-based rank in `ks` (must be strictly increasing).
  MultiIqProtocol(const std::vector<int64_t>& ks, int64_t range_min,
                  int64_t range_max, const WireFormat& wire);

  /// Executes round `round`; same driving contract as QuantileProtocol.
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round);

  int num_ranks() const { return static_cast<int>(states_.size()); }
  int64_t rank(int i) const { return states_[static_cast<size_t>(i)].k; }
  /// The exact rank(i)-th smallest value after the most recent round.
  int64_t quantile(int i) const {
    return states_[static_cast<size_t>(i)].filter;
  }
  /// Refinement convergecasts in the most recent round (across all ranks).
  int64_t refinements_last_round() const { return refinements_; }

 private:
  void Initialize(Network* net, const std::vector<int64_t>& values);

  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  std::vector<IqRankState> states_;
  std::vector<int64_t> prev_values_;
  /// Network::tree_epoch() the state was initialized under; a mismatch
  /// (fault-driven tree repair) forces re-initialization.
  int64_t tree_epoch_ = 0;
  int64_t refinements_ = 0;
  WaveWorkspace ws_;
  /// One rank as the validation wave sees it: its filter, its window
  /// [filter + xi_l, filter + xi_r] and its index into states_.
  struct FilterEntry {
    int64_t filter = 0;
    int64_t window_lo = 0;
    int64_t window_hi = 0;
    int rank = 0;
  };
  /// Every rank's FilterEntry, sorted by (filter, rank) once per round.
  std::vector<FilterEntry> by_filter_;
  /// The root's validation rows grouped per rank.
  std::vector<ValidationAgg> root_aggs_;
  std::vector<std::vector<int64_t>> root_windows_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_MULTI_QUANTILE_H_
