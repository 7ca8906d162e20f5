#include "algo/hbc.h"

#include <algorithm>

#include "algo/cost_model.h"
#include "util/check.h"
#include "util/trace.h"

namespace wsnq {
namespace {

/// Region of `value` relative to the NTB interval filter [lb, ub).
Region ClassifyInterval(int64_t value, int64_t lb, int64_t ub) {
  if (value < lb) return Region::kLt;
  if (value >= ub) return Region::kGt;
  return Region::kEq;
}

}  // namespace

HbcProtocol::HbcProtocol(int64_t k, int64_t range_min, int64_t range_max,
                         const WireFormat& wire, const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
  buckets_ = options_.buckets;  // 0: derived from the cost model at init
  if (options_.eliminate_threshold_broadcast) {
    // The paper notes direct retrieval and the interval filter do not
    // compose (§4.1.2); the interval filter needs the drill to end on an
    // interval every node saw.
    options_.direct_retrieval = false;
  }
}

void HbcProtocol::Initialize(Network* net,
                             const std::vector<int64_t>& values) {
  // Query dissemination (k and b).
  net->FloodFromRoot(2 * wire_.counter_bits);

  // Direct retrieval is off under NTB (see the constructor), so every drill
  // of either variant runs with these options.
  drill_.buckets = buckets_;
  drill_.direct_capacity =
      options_.direct_retrieval
          ? net->packetizer().ValuesPerPacket(wire_.value_bits)
          : 0;
  const DrillResult init = BAryDrill(net, values, range_min_, range_max_ + 1,
                                     /*below_lb=*/0, k_, drill_, wire_,
                                     /*less_than_ub=*/-1, &ws_);
  quantile_ = init.quantile;
  if (options_.eliminate_threshold_broadcast) {
    filter_lb_ = init.last_lb;
    filter_ub_ = init.last_ub;
    counts_.l = init.below_last;
    counts_.e = init.in_last;
    counts_.g = net->num_sensors() - counts_.l - counts_.e;
  } else {
    counts_ = init.counts;
    // Filter broadcast (POS-style).
    net->FloodFromRoot(wire_.value_bits);
    filter_ = quantile_;
  }
}

void HbcProtocol::RunRound(Network* net,
                           const std::vector<int64_t>& values_by_vertex,
                           int64_t round) {
  refinements_ = 0;
  if (buckets_ == 0) {
    // Cost model of §4.1, evaluated once (the message geometry is static).
    CostModelParams params;
    params.header_bits = net->packetizer().header_bits;
    params.refinement_bits = 2 * wire_.bound_bits;
    params.bucket_bits = wire_.bucket_count_bits;
    buckets_ = RoundedBExact(params);
    WSNQ_TRACE_EVENT("init", "bucket_choice", -1, {"b", buckets_},
                     {"header_bits", params.header_bits},
                     {"refinement_bits", params.refinement_bits},
                     {"bucket_bits", params.bucket_bits});
  }
  // Round 0, or the routing tree changed under us (fault-driven repair):
  // rebuild the root state rather than miscount over a stale topology.
  if (round == 0 || tree_epoch_ != net->tree_epoch()) {
    tree_epoch_ = net->tree_epoch();
    Initialize(net, values_by_vertex);
    prev_values_ = values_by_vertex;
    return;
  }
  WSNQ_CHECK_EQ(prev_values_.size(), values_by_vertex.size());
  if (options_.eliminate_threshold_broadcast) {
    RunNtbRound(net, values_by_vertex);
  } else {
    RunBasicRound(net, values_by_vertex);
  }
  prev_values_ = values_by_vertex;
}

void HbcProtocol::RunBasicRound(Network* net,
                                const std::vector<int64_t>& values) {
  const int64_t filter = filter_;
  const std::vector<int64_t>& prev = prev_values_;
  // Modified hint (§5.1.6): one value — the max distance between the old
  // quantile and any state-changing value — instead of POS's (min, max).
  const ValidationAgg validation = TransitionConvergecast(
      net, values, wire_, options_.use_hints ? 1 : 0, [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyThreshold(prev[i], filter),
                         ClassifyThreshold(values[i], filter));
      },
      &ws_);
  ApplyCounters(validation, net->num_sensors(), &counts_);
  if (!net->lossy()) {
    // Validation deltas must keep (l, e, g) a partition of the population.
    WSNQ_DCHECK(CountsConserved(counts_, net->num_sensors()));
  }

  if (CountsValid(counts_, k_)) {
    quantile_ = filter_;
    return;
  }

  // Hinted refinement interval (§4.1.1).
  int64_t lb, ub, below_lb, less_than_ub;
  if (counts_.l >= k_) {  // downward
    ub = filter_;
    less_than_ub = counts_.l;
    below_lb = -1;
    if (options_.use_hints && validation.has_hint) {
      const int64_t d = std::max(filter_ - validation.min_changed,
                                 validation.max_changed - filter_);
      lb = std::max(range_min_, filter_ - d);
    } else {
      lb = range_min_;
    }
    if (lb == range_min_) {
      below_lb = 0;
      less_than_ub = -1;
    }
  } else {  // upward
    lb = filter_ + 1;
    below_lb = counts_.l + counts_.e;
    less_than_ub = -1;
    if (options_.use_hints && validation.has_hint) {
      const int64_t d = std::max(filter_ - validation.min_changed,
                                 validation.max_changed - filter_);
      ub = std::min(range_max_, filter_ + d) + 1;
    } else {
      ub = range_max_ + 1;
    }
  }

  if (lb >= ub) {
    // Only possible when loss corrupted the counts/hints; keep the filter.
    WSNQ_CHECK(net->lossy());
    quantile_ = filter_;
    return;
  }
  WSNQ_TRACE_SCOPE("refinement", "drill", -1, {"lb", lb}, {"ub", ub},
                   {"b", buckets_});
  const DrillResult refined = BAryDrill(net, values, lb, ub, below_lb, k_,
                                        drill_, wire_, less_than_ub, &ws_);
  refinements_ = refined.rounds;
  quantile_ = refined.quantile;
  counts_ = refined.counts;
  // Threshold broadcast iff the quantile changed (§4.1.1).
  if (quantile_ != filter_) {
    net->FloodFromRoot(wire_.value_bits);
    filter_ = quantile_;
  }
}

void HbcProtocol::RunNtbRound(Network* net,
                              const std::vector<int64_t>& values) {
  const int64_t flb = filter_lb_;
  const int64_t fub = filter_ub_;
  // The NTB filter is a genuine interval and stays inside the value range.
  WSNQ_DCHECK_LT(flb, fub);
  WSNQ_DCHECK_GE(flb, range_min_);
  WSNQ_DCHECK_LE(fub, range_max_ + 1);
  const std::vector<int64_t>& prev = prev_values_;
  // Validation relative to the three intervals [-inf,lb), [lb,ub), [ub,inf)
  // (§4.1.2); hints are the plain (min, max) of changed values.
  const ValidationAgg validation = TransitionConvergecast(
      net, values, wire_, options_.use_hints ? 2 : 0, [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyInterval(prev[i], flb, fub),
                         ClassifyInterval(values[i], flb, fub));
      },
      &ws_);
  ApplyCounters(validation, net->num_sensors(), &counts_);
  if (!net->lossy()) {
    WSNQ_DCHECK(CountsConserved(counts_, net->num_sensors()));
  }

  // A width-one certified filter interval pins the quantile exactly; that
  // is the only case without a refinement.
  if (CountsValid(counts_, k_) && fub - flb == 1) {
    quantile_ = flb;
    return;
  }

  // Pick the refinement interval (§4.1.2): [hint, lb), [lb, ub), or
  // [ub, hint].
  int64_t lb, ub, below_lb, less_than_ub;
  if (counts_.l >= k_) {
    ub = flb;
    less_than_ub = counts_.l;
    below_lb = -1;
    lb = options_.use_hints && validation.has_hint
             ? std::max(range_min_, validation.min_changed)
             : range_min_;
    if (lb == range_min_) {
      below_lb = 0;
      less_than_ub = -1;
    }
  } else if (counts_.l + counts_.e >= k_) {
    lb = flb;
    ub = fub;
    below_lb = counts_.l;
    less_than_ub = -1;
  } else {
    lb = fub;
    below_lb = counts_.l + counts_.e;
    less_than_ub = -1;
    ub = options_.use_hints && validation.has_hint
             ? std::min(range_max_, validation.max_changed) + 1
             : range_max_ + 1;
  }

  if (lb >= ub) {
    WSNQ_CHECK(net->lossy());
    quantile_ = filter_lb_;  // best effort: the filter's lower bound
    return;
  }
  WSNQ_TRACE_SCOPE("refinement", "ntb_drill", -1, {"lb", lb}, {"ub", ub},
                   {"b", buckets_});
  WSNQ_DCHECK_EQ(drill_.direct_capacity, 0);  // breaks the interval filter
  const DrillResult refined = BAryDrill(net, values, lb, ub, below_lb, k_,
                                        drill_, wire_, less_than_ub, &ws_);
  refinements_ = refined.rounds;
  quantile_ = refined.quantile;
  // The filter becomes the last interval everyone saw; no broadcast.
  filter_lb_ = refined.last_lb;
  filter_ub_ = refined.last_ub;
  counts_.l = refined.below_last;
  counts_.e = refined.in_last;
  counts_.g = net->num_sensors() - counts_.l - counts_.e;
}

void HbcProtocol::AdoptState(int64_t filter, const RootCounts& counts,
                             std::vector<int64_t> prev_values) {
  WSNQ_CHECK(!options_.eliminate_threshold_broadcast);
  filter_ = filter;
  quantile_ = filter;
  counts_ = counts;
  prev_values_ = std::move(prev_values);
}

}  // namespace wsnq
