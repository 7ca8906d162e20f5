// IQ — Interval-based Quantiles (§4.2, the paper's main contribution).
//
// IQ maintains, at every node, the filter v (last quantile) plus an
// adaptive interval Xi = [v + xi_l, v + xi_r] (xi_l <= 0 <= xi_r) that
// tracks the quantile's recent movement pattern. During validation each
// node whose value lies in Xi ships the value itself (multiset A) in
// addition to the usual POS movement counters. If the new quantile falls
// inside Xi the root reads it straight out of A — zero refinements. If not,
// one single refinement fetches exactly the f_1 largest (f_2 smallest)
// missing values below (above) the window, so a round never needs more than
// two convergecasts.
//
// After every round the window adapts (Eq. 1-2): xi_l/xi_r are the min/max
// of the last m-1 quantile deltas, clamped to <= 0 / >= 0 — widening toward
// a downward/upward trend and collapsing on the quiet side. Nodes track the
// deltas locally from the filter broadcasts (a missing broadcast means
// delta 0), so no extra dissemination is needed.

#ifndef WSNQ_ALGO_IQ_H_
#define WSNQ_ALGO_IQ_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"

namespace wsnq {

/// Root-side state of one IQ-tracked rank k (§4.2): the filter v, the
/// window offsets xi_l <= 0 <= xi_r, the root counts (l, e, g) of v, and the
/// last m-1 quantile deltas the window adapts from (Eq. 1-2). IqProtocol
/// holds one; MultiIqProtocol holds one per tracked rank.
struct IqRankState {
  int64_t k = 0;
  int64_t filter = 0;
  int64_t xi_l = 0;  // <= 0
  int64_t xi_r = 0;  // >= 0
  RootCounts counts;
  std::deque<int64_t> deltas;
};

/// The one refinement that finds a rank that escaped its window (§4.2.2):
/// the f largest values in [lo, hi] below the window (`below`, f = f_1), or
/// the f smallest values in [lo, hi] above it (f = f_2).
struct IqRefinement {
  bool below = false;
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t f = 0;
  /// Sensors known to lie under the answer's side of the fetched region:
  /// below, those under the window, so the answer's l is `base` minus the
  /// fetched values >= it; above, those up to the window's top, so its l is
  /// `base` plus the fetched values < it.
  int64_t base = 0;
};

/// What the root learns from one rank's validation: the new quantile, or
/// the refinement that finds it.
struct IqResolution {
  bool refine = false;
  int64_t quantile = 0;  ///< valid when !refine
  IqRefinement request;  ///< valid when refine
};

/// Interval-based heuristic continuous quantile protocol.
class IqProtocol : public QuantileProtocol {
 public:
  /// How the initial half-width xi of the window is derived from the k
  /// smallest values collected during initialization (§4.2.1).
  enum class InitStrategy {
    /// xi = c * (v_k - v_1) / k — the mean gap scaled by c.
    kMeanGap,
    /// xi = c * median of consecutive gaps — robust against outliers.
    kMedianGap,
  };

  struct Options {
    /// History length m of Eq. 1-2: the window spans the last m-1 deltas.
    int m = 6;
    InitStrategy init_strategy = InitStrategy::kMeanGap;
    /// The constant c of §4.2.1 "to tweak the number of values transmitted
    /// during validation".
    double init_c = 1.0;
    /// Bound refinement intervals with the one-value max-distance hint.
    bool use_hints = true;
  };

  IqProtocol(int64_t k, int64_t range_min, int64_t range_max,
             const WireFormat& wire, const Options& options);

  const char* name() const override { return "IQ"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return state_.filter; }
  RootCounts root_counts() const override { return state_.counts; }
  int64_t refinements_last_round() const override { return refinements_; }

  int64_t xi_l() const { return state_.xi_l; }
  int64_t xi_r() const { return state_.xi_r; }

  /// Adopts foreign continuous state; `recent_deltas` seeds the window
  /// history. Used by the adaptive switching protocol (§4.2). The switch
  /// announcement must also carry the window bounds to the nodes; the
  /// caller accounts for that broadcast.
  void AdoptState(int64_t filter, const RootCounts& counts,
                  std::vector<int64_t> prev_values,
                  const std::deque<int64_t>& recent_deltas);

 private:
  void Initialize(Network* net, const std::vector<int64_t>& values);
  /// Validation convergecast: POS counters + hint + the multiset A of all
  /// values inside the window (except values equal to the filter), sorted
  /// into window_.
  ValidationAgg ValidationWithWindow(Network* net,
                                     const std::vector<int64_t>& values);

  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  Options options_;

  IqRankState state_;
  std::vector<int64_t> prev_values_;
  /// Network::tree_epoch() the state was initialized under; a mismatch
  /// (fault-driven tree repair) forces re-initialization.
  int64_t tree_epoch_ = 0;
  int64_t refinements_ = 0;
  /// The round's sorted window multiset A (capacity kept across rounds).
  std::vector<int64_t> window_;
  WaveWorkspace ws_;
};

// --- Root-side IQ steps, shared by IqProtocol and MultiIqProtocol ---------

/// Initializes `state` from the sorted k-smallest collection of §4.2.1:
/// the filter is the (best-effort) k-th smallest, or `fallback` when
/// nothing arrived; the counts are the filter's; the window is [-xi, xi]
/// with xi derived by `strategy` and scaled by `init_c`, at least 1. The
/// delta history is kept.
void InitIqRank(const std::vector<int64_t>& collected, int64_t population,
                int64_t fallback, IqProtocol::InitStrategy strategy,
                double init_c, IqRankState* state);

/// The root's case analysis of §4.2.2 for one rank. `state->counts` must
/// already hold this round's counts (ApplyCounters); `window` is the sorted
/// window multiset A and `validation` supplies the one-value hint, which
/// (with `use_hints`) bounds the refinement interval inside
/// [range_min, range_max]. When the counts certify the filter, or A holds
/// the k-th smallest value, returns that quantile with `state->counts` set
/// to it. Otherwise returns the refinement request and leaves the counts
/// for CompleteIqRefinement. Allocates nothing.
IqResolution ResolveIqRank(const std::vector<int64_t>& window,
                           const ValidationAgg& validation,
                           int64_t population, int64_t range_min,
                           int64_t range_max, bool use_hints,
                           IqRankState* state);

/// Reads the new quantile out of the sorted refinement `response` to
/// `request` and sets `state->counts` to it; returns the quantile. Under
/// loss the response may come back short: the rank is clamped into it, and
/// the filter is kept when nothing arrived at all.
int64_t CompleteIqRefinement(const IqRefinement& request,
                             const std::vector<int64_t>& response,
                             int64_t population, IqRankState* state);

/// Runs `request` on `net`: floods it (f plus the interval bounds),
/// collects the response with TopFConvergecast and completes the counts.
/// Returns the new quantile.
int64_t RunIqRefinement(Network* net, const std::vector<int64_t>& values,
                        const IqRefinement& request, const WireFormat& wire,
                        WaveWorkspace* ws, IqRankState* state);

/// Eq. 1-2: appends `delta` to the history of the last m-1 deltas and sets
/// xi_l / xi_r to its min / max, clamped to <= 0 / >= 0.
void PushIqDelta(int64_t delta, int m, IqRankState* state);

}  // namespace wsnq

#endif  // WSNQ_ALGO_IQ_H_
