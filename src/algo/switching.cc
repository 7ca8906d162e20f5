#include "algo/switching.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"
#include "util/trace.h"

namespace wsnq {

SwitchingProtocol::SwitchingProtocol(int64_t k, int64_t range_min,
                                     int64_t range_max,
                                     const WireFormat& wire,
                                     const Options& options)
    : range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  options_.hbc.eliminate_threshold_broadcast = false;  // state must transfer
  iq_ = std::make_unique<IqProtocol>(k, range_min, range_max, wire,
                                     options_.iq);
  hbc_ = std::make_unique<HbcProtocol>(k, range_min, range_max, wire,
                                       options_.hbc);
  active_ = iq_.get();
}

void SwitchingProtocol::RunRound(Network* net,
                                 const std::vector<int64_t>& values_by_vertex,
                                 int64_t round) {
  if (round == 0) {
    active_->RunRound(net, values_by_vertex, 0);
    prev_quantile_ = active_->quantile();
    prev_values_ = values_by_vertex;
    return;
  }
  active_->RunRound(net, values_by_vertex, round);
  deltas_.push_back(std::llabs(active_->quantile() - prev_quantile_));
  while (static_cast<int>(deltas_.size()) > options_.window) {
    deltas_.pop_front();
  }
  prev_quantile_ = active_->quantile();
  prev_values_ = values_by_vertex;
  if (round % options_.evaluate_every == 0) {
    MaybeSwitch(net);
  }
}

void SwitchingProtocol::MaybeSwitch(Network* net) {
  if (deltas_.empty()) return;
  double mean_abs = 0.0;
  for (int64_t d : deltas_) mean_abs += static_cast<double>(d);
  mean_abs /= static_cast<double>(deltas_.size());

  // Scale: the slice of the universe one HBC drill level pins down.
  const int buckets = hbc_->buckets() > 0 ? hbc_->buckets() : 12;
  const double tau = static_cast<double>(range_max_ - range_min_ + 1);
  const double unit = tau / (static_cast<double>(buckets) *
                             static_cast<double>(buckets));

  const bool want_hbc =
      iq_active() ? mean_abs > options_.up_factor * unit
                  : mean_abs > options_.down_factor * unit;
  if (want_hbc == !iq_active()) return;  // no change

  // Mode announcement: mode tag plus the filter (and IQ window bounds).
  WSNQ_TRACE_EVENT("validation", "mode_switch", -1,
                   {"to_hbc", want_hbc ? 1 : 0},
                   {"mean_abs_delta_x1000",
                    static_cast<int64_t>(mean_abs * 1000.0)});
  net->FloodFromRoot(8 + 2 * wire_.value_bits);
  ++switches_;
  const int64_t filter = active_->quantile();
  const RootCounts counts = active_->root_counts();
  if (want_hbc) {
    hbc_->AdoptState(filter, counts, prev_values_);
    active_ = hbc_.get();
  } else {
    std::deque<int64_t> signed_deltas;
    // The magnitude history is what the policy kept; seed IQ's window
    // symmetrically so it reopens on both sides.
    for (int64_t d : deltas_) {
      signed_deltas.push_back(d);
      signed_deltas.push_back(-d);
    }
    iq_->AdoptState(filter, counts, prev_values_, signed_deltas);
    active_ = iq_.get();
  }
}

}  // namespace wsnq
