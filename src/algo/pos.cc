#include "algo/pos.h"

#include <algorithm>
#include <optional>

#include "util/check.h"
#include "util/trace.h"

namespace wsnq {

PosProtocol::PosProtocol(int64_t k, int64_t range_min, int64_t range_max,
                         const WireFormat& wire, const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
}

void PosProtocol::Initialize(Network* net,
                             const std::vector<int64_t>& values) {
  // Query dissemination (k) followed by a TAG collection (§3.2: "POS
  // computes the first quantile by using an aggregation technique
  // equivalent to TAG").
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t>& collected =
      CollectKSmallest(net, values, k_, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), k_);
  }
  quantile_ = BestEffortKth(collected, k_, (range_min_ + range_max_) / 2);
  counts_ = CountsFromCollection(collected, quantile_, net->num_sensors());
  // Filter broadcast.
  net->FloodFromRoot(wire_.value_bits);
  filter_ = quantile_;
}

void PosProtocol::RunRound(Network* net,
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

  // Validation convergecast: a node reports iff its value's region relative
  // to the (unchanged) filter differs from last round's.
  const int64_t filter = filter_;
  const std::vector<int64_t>& prev = prev_values_;
  const ValidationAgg validation = TransitionConvergecast(
      net, values_by_vertex, wire_, options_.use_hints ? 2 : 0,
      [&](int v) {
        const size_t i = static_cast<size_t>(v);
        return std::pair(ClassifyThreshold(prev[i], filter),
                         ClassifyThreshold(values_by_vertex[i], filter));
      },
      &ws_);
  ApplyCounters(validation, net->num_sensors(), &counts_);
  if (!net->lossy()) {
    WSNQ_DCHECK(CountsConserved(counts_, net->num_sensors()));
  }

  if (CountsValid(counts_, k_)) {
    quantile_ = filter_;  // Still certified; nothing to transmit.
  } else {
    Refine(net, values_by_vertex, validation);
  }
  prev_values_ = values_by_vertex;
}

void PosProtocol::Refine(Network* net, const std::vector<int64_t>& values,
                         const ValidationAgg& validation) {
  const int64_t n = net->num_sensors();
  // Search bounds [lo, hi] that contain the k-th value, and — when known —
  // the exact population below lo / above hi (for the direct-send test).
  int64_t lo, hi;
  std::optional<int64_t> below_lo, above_hi;
  if (counts_.l >= k_) {  // Quantile moved down.
    hi = filter_ - 1;
    above_hi = n - counts_.l;  // everything >= filter_
    if (options_.use_hints && validation.has_hint) {
      lo = std::max(range_min_, validation.min_changed);
    } else {
      lo = range_min_;
    }
    if (lo == range_min_) below_lo = 0;
  } else {  // counts_.l + counts_.e < k_: quantile moved up.
    lo = filter_ + 1;
    below_lo = counts_.l + counts_.e;  // everything <= filter_
    if (options_.use_hints && validation.has_hint) {
      hi = std::min(range_max_, validation.max_changed);
    } else {
      hi = range_max_;
    }
    if (hi == range_max_) above_hi = 0;
  }
  // Hint traffic (§3.2 / §5.1.6): (min, max) of state-changing values rode
  // the validation convergecast; record how far they narrowed the search.
  WSNQ_TRACE_EVENT("refinement", "search_bounds", -1, {"lo", lo}, {"hi", hi},
                   {"hinted", options_.use_hints && validation.has_hint});

  // The threshold all nodes currently hold; counts_ is relative to it.
  int64_t current = filter_;
  const int64_t capacity = net->packetizer().ValuesPerPacket(wire_.value_bits);

  while (true) {
    if (lo > hi) {
      // Only reachable when message loss corrupted the counts: accept the
      // threshold all nodes currently hold and let the rank error show.
      WSNQ_CHECK(net->lossy());
      quantile_ = current;
      filter_ = current;
      return;
    }
    if (options_.direct_send && below_lo.has_value() &&
        above_hi.has_value() && n - *below_lo - *above_hi <= capacity) {
      DirectRetrieve(net, values, lo, hi, *below_lo);
      return;
    }

    const int64_t mid = lo + (hi - lo) / 2;
    // Binary-search bracket: the midpoint stays inside [lo, hi] and the
    // bracket stays inside the value universe.
    WSNQ_DCHECK_GE(mid, lo);
    WSNQ_DCHECK_LE(mid, hi);
    WSNQ_DCHECK_GE(lo, range_min_);
    WSNQ_DCHECK_LE(hi, range_max_);
    // Broadcast the midpoint; every node adopts it as the tentative new
    // quantile and reports its region movement relative to `current`.
    WSNQ_TRACE_EVENT("refinement", "probe", -1, {"mid", mid}, {"lo", lo},
                     {"hi", hi});
    net->FloodFromRoot(wire_.value_bits);
    const ValidationAgg agg = TransitionConvergecast(
        net, values, wire_, 0, [&](int v) {
          const int64_t value = values[static_cast<size_t>(v)];
          return std::pair(ClassifyThreshold(value, current),
                           ClassifyThreshold(value, mid));
        },
        &ws_);
    ApplyCounters(agg, n, &counts_);
    ++refinements_;
    current = mid;

    if (CountsValid(counts_, k_)) {
      // mid is certified as the exact quantile; every node already knows it
      // (§3.2: no final broadcast needed).
      quantile_ = mid;
      filter_ = mid;
      return;
    }
    if (counts_.l >= k_) {
      hi = mid - 1;
      above_hi = n - counts_.l;
    } else {
      lo = mid + 1;
      below_lo = counts_.l + counts_.e;
    }
  }
}

void PosProtocol::DirectRetrieve(Network* net,
                                 const std::vector<int64_t>& values,
                                 int64_t lo, int64_t hi, int64_t below_lo) {
  // Request broadcast with the interval bounds.
  WSNQ_TRACE_EVENT("refinement", "direct_retrieve", -1, {"lo", lo},
                   {"hi", hi});
  net->FloodFromRoot(2 * wire_.bound_bits);
  const std::vector<int64_t>& collected =
      RangeValuesConvergecast(net, values, lo, hi, wire_, &ws_);
  ++refinements_;
  const int64_t rank_in_interval = k_ - below_lo;  // 1-based
  if (!net->lossy()) {
    WSNQ_CHECK_GE(rank_in_interval, 1);
    WSNQ_CHECK_LE(rank_in_interval,
                  static_cast<int64_t>(collected.size()));
  }
  quantile_ = BestEffortKth(collected, rank_in_interval, filter_);
  counts_.l = below_lo;
  counts_.e = 0;
  for (int64_t v : collected) {
    if (v < quantile_) ++counts_.l;
    if (v == quantile_) ++counts_.e;
  }
  counts_.g = net->num_sensors() - counts_.l - counts_.e;
  // Direct sends leave the nodes without the new threshold: final filter
  // broadcast (§3.2).
  net->FloodFromRoot(wire_.value_bits);
  filter_ = quantile_;
}

}  // namespace wsnq
