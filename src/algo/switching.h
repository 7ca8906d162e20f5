// Adaptive algorithm switching (§4.2: "Due to the similar structure of POS,
// HBC and IQ it is possible to switch between these approaches without
// reinitializing the network and always use the best algorithm within a
// given environment, however we leave heuristics to select the best
// solution for future research"). This module implements that future work.
//
// The switcher runs IQ while the quantile is temporally stable and HBC when
// it moves fast, following the paper's own conclusion ("a heuristic
// algorithm should be employed when there is some temporal correlation ...
// the optimized b-ary search is more useful if the temporal correlation
// between consecutive quantiles is low"). The policy uses root-side
// knowledge only: the mean absolute quantile delta over a sliding window,
// compared against the width a b-ary search would resolve in one histogram
// exchange. A switch costs one announcement flood (mode + window bounds)
// and reuses the incumbent's filter, counts, and node-side state.

#ifndef WSNQ_ALGO_SWITCHING_H_
#define WSNQ_ALGO_SWITCHING_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "algo/common.h"
#include "algo/hbc.h"
#include "algo/iq.h"
#include "algo/protocol.h"

namespace wsnq {

/// IQ/HBC hybrid with a temporal-correlation switching policy.
class SwitchingProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Rounds between policy evaluations.
    int evaluate_every = 10;
    /// Sliding window (rounds) of quantile deltas driving the policy.
    int window = 10;
    /// Switch to HBC when the mean absolute delta exceeds this multiple of
    /// the universe fraction a single histogram drill level resolves
    /// (tau / b^2); hysteresis keeps flapping down. Conservative defaults:
    /// in the reproduced settings IQ wins whenever any temporal
    /// correlation remains, so HBC is insurance against near-chaotic
    /// quantiles, not a frequent destination.
    double up_factor = 8.0;
    double down_factor = 4.0;
    IqProtocol::Options iq;
    HbcProtocol::Options hbc;
  };

  SwitchingProtocol(int64_t k, int64_t range_min, int64_t range_max,
                    const WireFormat& wire, const Options& options);

  const char* name() const override { return "SWITCH"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return active_->quantile(); }
  RootCounts root_counts() const override { return active_->root_counts(); }
  int64_t refinements_last_round() const override {
    return active_->refinements_last_round();
  }

  /// True while IQ is the active algorithm.
  bool iq_active() const { return active_ == iq_.get(); }
  /// Number of switches performed so far.
  int switches() const { return switches_; }

 private:
  void MaybeSwitch(Network* net);

  int64_t range_min_;
  int64_t range_max_;
  WireFormat wire_;
  Options options_;

  std::unique_ptr<IqProtocol> iq_;
  std::unique_ptr<HbcProtocol> hbc_;
  QuantileProtocol* active_ = nullptr;

  std::deque<int64_t> deltas_;
  int64_t prev_quantile_ = 0;
  std::vector<int64_t> prev_values_;
  int switches_ = 0;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_SWITCHING_H_
