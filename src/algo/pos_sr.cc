#include "algo/pos_sr.h"

#include <utility>

#include "util/check.h"

namespace wsnq {

PosSrProtocol::PosSrProtocol(int64_t k, int64_t range_min, int64_t range_max,
                             const WireFormat& wire, const Options& options)
    : range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
  state_.k = k;
}

void PosSrProtocol::Initialize(Network* net,
                               const std::vector<int64_t>& values) {
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t>& collected =
      CollectKSmallest(net, values, state_.k, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), state_.k);
  }
  state_.filter =
      BestEffortKth(collected, state_.k, (range_min_ + range_max_) / 2);
  state_.counts =
      CountsFromCollection(collected, state_.filter, net->num_sensors());
  net->FloodFromRoot(wire_.value_bits);
}

void PosSrProtocol::RunRound(Network* net,
                             const std::vector<int64_t>& values_by_vertex,
                             int64_t round) {
  refinements_ = 0;
  // Round 0, or the routing tree changed under us (fault-driven repair):
  // rebuild the root state rather than miscount over a stale topology.
  if (round == 0 || tree_epoch_ != net->tree_epoch()) {
    tree_epoch_ = net->tree_epoch();
    Initialize(net, values_by_vertex);
    prev_values_ = values_by_vertex;
    return;
  }
  WSNQ_CHECK_EQ(prev_values_.size(), values_by_vertex.size());

  const int64_t v_old = state_.filter;
  const std::vector<int64_t>& prev = prev_values_;
  const ValidationAgg validation = TransitionConvergecast(
      net, values_by_vertex, wire_, options_.use_hints ? 1 : 0,
      [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyThreshold(prev[i], v_old),
                         ClassifyThreshold(values_by_vertex[i], v_old));
      },
      &ws_);
  ApplyCounters(validation, net->num_sensors(), &state_.counts);
  prev_values_ = values_by_vertex;

  // IQ's case analysis with an empty window: every invalidated filter
  // costs the one refinement (f1 largest below, or f2 smallest above).
  const IqResolution resolution = ResolveIqRank(
      /*window=*/{}, validation, net->num_sensors(), range_min_, range_max_,
      options_.use_hints, &state_);
  int64_t q = resolution.quantile;
  if (resolution.refine) {
    q = RunIqRefinement(net, values_by_vertex, resolution.request, wire_,
                        &ws_, &state_);
    refinements_ = 1;
  }
  if (q != v_old) net->FloodFromRoot(wire_.value_bits);
  state_.filter = q;
}

}  // namespace wsnq
