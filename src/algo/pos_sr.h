// Single-refinement continuous quantile protocol — the paper's reference
// [19], reconstructed from §3.1's description: "their continuous solution
// is similar to POS, however similar to our IQ algorithm the number of
// refinement iterations is reduced to one. However in contrast to this
// solution we aim at completely avoiding refinements by employing
// heuristics [the window Ξ]."
//
// Concretely: POS's validation (counters + hints), but when the filter is
// invalidated the root fetches the exact values it is missing in ONE
// bounded convergecast — f1 = l-k+1 largest values below the filter, or
// f2 = k-l-e smallest above it — instead of bisecting. This is IQ without
// the window, which makes it the ablation baseline that isolates what Ξ
// buys: POS-SR pays one refinement on every quantile movement, IQ pays
// validation values to skip it. It is built that way too: the root holds an
// IqRankState whose window stays empty (xi_l = xi_r = 0) and resolves it
// with IQ's ResolveIqRank / RunIqRefinement (algo/iq.h).

#ifndef WSNQ_ALGO_POS_SR_H_
#define WSNQ_ALGO_POS_SR_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/iq.h"
#include "algo/protocol.h"

namespace wsnq {

/// POS validation + one direct value-fetching refinement per movement.
class PosSrProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Bound refinement intervals with the one-value max-distance hint.
    bool use_hints = true;
  };

  PosSrProtocol(int64_t k, int64_t range_min, int64_t range_max,
                const WireFormat& wire, const Options& options);

  const char* name() const override { return "POS-SR"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return state_.filter; }
  RootCounts root_counts() const override { return state_.counts; }
  int64_t refinements_last_round() const override { return refinements_; }

 private:
  void Initialize(Network* net, const std::vector<int64_t>& values);

  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  Options options_;

  /// The filter (= the last quantile) and its counts; xi_l = xi_r = 0.
  IqRankState state_;
  std::vector<int64_t> prev_values_;
  /// Network::tree_epoch() the state was initialized under; a mismatch
  /// (fault-driven tree repair) forces re-initialization.
  int64_t tree_epoch_ = 0;
  int64_t refinements_ = 0;
  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_POS_SR_H_
