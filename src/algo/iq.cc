#include "algo/iq.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"
#include "util/trace.h"

namespace wsnq {

IqProtocol::IqProtocol(int64_t k, int64_t range_min, int64_t range_max,
                       const WireFormat& wire, const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
  WSNQ_CHECK_GE(options.m, 2);
}

void IqProtocol::Initialize(Network* net,
                            const std::vector<int64_t>& values) {
  // TAG collection, like POS (§4.2.1: "Since POS uses TAG during
  // initialization, we will use the same algorithm").
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t> collected =
      CollectKSmallest(net, values, k_, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), k_);
  }
  quantile_ = BestEffortKth(collected, k_, (range_min_ + range_max_) / 2);
  counts_ = CountsFromCollection(collected, quantile_, net->num_sensors());

  // Initial window half-width from the k smallest values (§4.2.1).
  int64_t xi = 1;
  const int64_t known =
      std::min(k_, static_cast<int64_t>(collected.size()));
  if (known >= 2) {
    if (options_.init_strategy == InitStrategy::kMeanGap) {
      const double spread = static_cast<double>(
          collected[static_cast<size_t>(known - 1)] - collected[0]);
      xi = static_cast<int64_t>(std::llround(
          options_.init_c * spread / static_cast<double>(known)));
    } else {
      std::vector<double> gaps;
      gaps.reserve(static_cast<size_t>(known - 1));
      for (int64_t i = 1; i < known; ++i) {
        gaps.push_back(static_cast<double>(
            collected[static_cast<size_t>(i)] -
            collected[static_cast<size_t>(i - 1)]));
      }
      xi = static_cast<int64_t>(
          std::llround(options_.init_c * Median(std::move(gaps))));
    }
    if (xi < 1) xi = 1;
  }
  xi_l_ = -xi;
  xi_r_ = xi;
  WSNQ_TRACE_EVENT("init", "window", -1, {"xi_l", xi_l_}, {"xi_r", xi_r_});

  // Filter broadcast carries the tuple (v_k, xi) (§4.2.1).
  net->FloodFromRoot(2 * wire_.value_bits);
  filter_ = quantile_;
}

namespace {

/// Ops for the windowed validation wave (§4.2.2): POS transition counters
/// plus the multiset A of in-window values, in struct-of-arrays rows.
struct WindowValidationOps {
  Network* net;
  const std::vector<int64_t>& values;
  const std::vector<int64_t>& prev_values;
  const WireFormat& wire;
  int64_t filter;
  int64_t window_lo;
  int64_t window_hi;
  int hint_values;
  std::vector<ValidationAgg>& inbox;
  std::vector<std::vector<int64_t>>& a_inbox;

  WaveSend Process(int v, WaveLane& /*lane*/) {
    ValidationAgg& agg = inbox[static_cast<size_t>(v)];
    std::vector<int64_t>& a_set = a_inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      const size_t i = static_cast<size_t>(v);
      agg.AddTransition(ClassifyThreshold(prev_values[i], filter),
                        ClassifyThreshold(values[i], filter), values[i]);
      // A-contribution: values inside Xi, except the filter value itself,
      // are shipped verbatim every round (§4.2.2).
      if (values[i] >= window_lo && values[i] <= window_hi &&
          values[i] != filter) {
        a_set.push_back(values[i]);
      }
    }
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      agg.Merge(inbox[static_cast<size_t>(child)]);
      // Appended into this row's own buffer (an empty a_set included):
      // rows never trade buffers, see MergeSortedInto.
      auto& theirs = a_inbox[static_cast<size_t>(child)];
      a_set.insert(a_set.end(), theirs.begin(), theirs.end());
      theirs.clear();
    }
    WaveSend send;
    if (!agg.empty() || !a_set.empty()) {
      send.payload_bits =
          4 * wire.counter_bits +
          (agg.has_hint ? hint_values * wire.value_bits : 0) +
          static_cast<int64_t>(a_set.size()) * wire.value_bits;
      send.value_count = static_cast<int64_t>(a_set.size());
    }
    return send;
  }
  void OnLost(int v) {
    inbox[static_cast<size_t>(v)] = ValidationAgg{};  // lost uplink
    a_inbox[static_cast<size_t>(v)].clear();
  }
};

}  // namespace

ValidationAgg IqProtocol::ValidationWithWindow(
    Network* net, const std::vector<int64_t>& values,
    std::vector<int64_t>* window_values) {
  // Eq. 1/2 window sanity: xi_l <= 0 <= xi_r, so the window always
  // contains the current filter value.
  WSNQ_DCHECK_LE(xi_l_, 0);
  WSNQ_DCHECK_GE(xi_r_, 0);
  const size_t n = static_cast<size_t>(net->num_vertices());
  std::vector<ValidationAgg>& inbox = ws_.PrepareAgg(n);
  std::vector<std::vector<int64_t>>& a_inbox = ws_.PrepareWindows(n);
  WindowValidationOps ops{net,
                          values,
                          prev_values_,
                          wire_,
                          filter_,
                          filter_ + xi_l_,
                          filter_ + xi_r_,
                          options_.use_hints ? 1 : 0,
                          inbox,
                          a_inbox};
  RunConvergecastWave(net, ops);
  const std::vector<int64_t>& root_a =
      a_inbox[static_cast<size_t>(net->root())];
  window_values->assign(root_a.begin(), root_a.end());
  std::sort(window_values->begin(), window_values->end());
  return inbox[static_cast<size_t>(net->root())];
}

void IqProtocol::RunRound(Network* net,
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

  std::vector<int64_t> a;  // sorted window multiset A
  const ValidationAgg validation = [&] {
    WSNQ_TRACE_SCOPE("validation", "window_convergecast", -1,
                     {"lo", filter_ + xi_l_}, {"hi", filter_ + xi_r_});
    return ValidationWithWindow(net, values_by_vertex, &a);
  }();
  // Ξ hit accounting (§4.2.2): values that landed inside the window were
  // shipped in A; the round needs a refinement convergecast only when the
  // new quantile escaped Ξ.
  WSNQ_TRACE_EVENT("validation", "window_hits", -1,
                   {"in_window", static_cast<int64_t>(a.size())});
  WSNQ_DCHECK(std::is_sorted(a.begin(), a.end()));
  ApplyCounters(validation, net->num_sensors(), &counts_);
  if (!net->lossy()) {
    WSNQ_DCHECK(CountsConserved(counts_, net->num_sensors()));
  }
  prev_values_ = values_by_vertex;

  const int64_t n = net->num_sensors();
  const int64_t v_old = filter_;
  int64_t q;  // the new quantile

  if (CountsValid(counts_, k_)) {
    // v_k in eq: nothing changed, nothing to broadcast (§4.2.2).
    q = v_old;
  } else if (counts_.l >= k_) {
    // v_k in lt (§4.2.2, "Refinement for v_k in lt").
    const int64_t a_below =
        std::count_if(a.begin(), a.end(),
                      [&](int64_t x) { return x < v_old; });
    if (counts_.l - a_below < k_ && a_below > 0) {
      // The new quantile is already in A: the k-th smallest overall is the
      // k-th smallest of lt, and the (l - a) values below the window are
      // all smaller than A's lt part.
      int64_t idx = a_below - (counts_.l - k_) - 1;
      if (net->lossy()) {
        idx = std::clamp<int64_t>(idx, 0, a_below - 1);
      } else {
        WSNQ_CHECK_GE(idx, 0);
        WSNQ_CHECK_LT(idx, a_below);
      }
      q = a[static_cast<size_t>(idx)];
      counts_.e = std::count(a.begin(), a.end(), q);
      counts_.l = (counts_.l - a_below) +
                  std::count_if(a.begin(), a.end(),
                                [&](int64_t x) { return x < q; });
      counts_.g = n - counts_.l - counts_.e;
    } else {
      // One refinement: fetch the f1 largest values below the window.
      const int64_t f1 = counts_.l - k_ - a_below + 1;
      WSNQ_TRACE_SCOPE("refinement", "below_window", -1, {"f", f1});
      const int64_t hi = v_old + xi_l_ - 1;  // below-window region
      int64_t lo = range_min_;
      if (options_.use_hints && validation.has_hint) {
        const int64_t d = std::max(v_old - validation.min_changed,
                                   validation.max_changed - v_old);
        lo = std::max(range_min_, v_old - d);
      }
      // Request: f1 plus the interval bounds.
      net->FloodFromRoot(wire_.fcount_bits + 2 * wire_.bound_bits);
      const std::vector<int64_t> r = TopFConvergecast(
          net, values_by_vertex, lo, hi, f1, /*largest=*/true, wire_, &ws_);
      refinements_ = 1;
      if (!net->lossy()) {
        WSNQ_CHECK_GE(static_cast<int64_t>(r.size()), f1);
      }
      if (r.empty()) {
        q = v_old;  // response lost entirely; keep the filter
      } else {
        const size_t idx =
            r.size() >= static_cast<size_t>(f1)
                ? r.size() - static_cast<size_t>(f1)
                : 0;
        q = r[idx];  // f1-th largest (clamped under loss)
      }
      const int64_t below_window = counts_.l - a_below;
      counts_.e = std::count(r.begin(), r.end(), q);
      counts_.l = below_window -
                  std::count_if(r.begin(), r.end(),
                                [&](int64_t x) { return x >= q; });
      counts_.g = n - counts_.l - counts_.e;
    }
  } else {
    // v_k in gt (§4.2.2, "Refinement for v_k in gt").
    const int64_t a_above =
        std::count_if(a.begin(), a.end(),
                      [&](int64_t x) { return x > v_old; });
    if (counts_.l + counts_.e + a_above >= k_ && a_above > 0) {
      // The new quantile is in A's gt part.
      const int64_t rank = k_ - counts_.l - counts_.e;  // within gt
      int64_t idx = static_cast<int64_t>(a.size()) - a_above + rank - 1;
      if (net->lossy()) {
        idx = std::clamp<int64_t>(idx, static_cast<int64_t>(a.size()) -
                                           a_above,
                                  static_cast<int64_t>(a.size()) - 1);
      } else {
        WSNQ_CHECK_GE(idx, 0);
        WSNQ_CHECK_LT(idx, static_cast<int64_t>(a.size()));
      }
      q = a[static_cast<size_t>(idx)];
      const int64_t below_gt = counts_.l + counts_.e;
      counts_.e = std::count(a.begin(), a.end(), q);
      counts_.l = below_gt +
                  std::count_if(a.begin(), a.end(), [&](int64_t x) {
                    return x > v_old && x < q;
                  });
      counts_.g = n - counts_.l - counts_.e;
    } else {
      // One refinement: fetch the f2 smallest values above the window.
      const int64_t f2 = k_ - (counts_.l + counts_.e) - a_above;
      WSNQ_TRACE_SCOPE("refinement", "above_window", -1, {"f", f2});
      const int64_t lo = v_old + xi_r_ + 1;  // above-window region
      int64_t hi = range_max_;
      if (options_.use_hints && validation.has_hint) {
        const int64_t d = std::max(v_old - validation.min_changed,
                                   validation.max_changed - v_old);
        hi = std::min(range_max_, v_old + d);
      }
      net->FloodFromRoot(wire_.fcount_bits + 2 * wire_.bound_bits);
      const std::vector<int64_t> r = TopFConvergecast(
          net, values_by_vertex, lo, hi, f2, /*largest=*/false, wire_, &ws_);
      refinements_ = 1;
      if (!net->lossy()) {
        WSNQ_CHECK_GE(static_cast<int64_t>(r.size()), f2);
      }
      if (r.empty()) {
        q = v_old;
      } else {
        const size_t idx = std::min(static_cast<size_t>(f2 - 1),
                                    r.size() - 1);
        q = r[idx];  // f2-th smallest (clamped under loss)
      }
      const int64_t below_region = counts_.l + counts_.e + a_above;
      counts_.e = std::count(r.begin(), r.end(), q);
      counts_.l = below_region +
                  std::count_if(r.begin(), r.end(),
                                [&](int64_t x) { return x < q; });
      counts_.g = n - counts_.l - counts_.e;
    }
  }

  // Filter broadcast iff the quantile changed; nodes derive delta = 0 from
  // a silent round and update the window either way.
  if (q != v_old) net->FloodFromRoot(wire_.value_bits);
  PushDelta(q - v_old);
  WSNQ_TRACE_EVENT("validation", "window_adjust", -1, {"delta", q - v_old},
                   {"xi_l", xi_l_}, {"xi_r", xi_r_},
                   {"refined", refinements_});
  quantile_ = q;
  filter_ = q;
}

void IqProtocol::PushDelta(int64_t delta) {
  deltas_.push_back(delta);
  while (static_cast<int>(deltas_.size()) > options_.m - 1) {
    deltas_.pop_front();
  }
  int64_t lo = 0, hi = 0;
  for (int64_t d : deltas_) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  xi_l_ = lo;  // Eq. 1: min(min deltas, 0)
  xi_r_ = hi;  // Eq. 2: max(max deltas, 0)
  WSNQ_DCHECK_LE(xi_l_, 0);
  WSNQ_DCHECK_GE(xi_r_, 0);
}

void IqProtocol::AdoptState(int64_t filter, const RootCounts& counts,
                            std::vector<int64_t> prev_values,
                            const std::deque<int64_t>& recent_deltas) {
  filter_ = filter;
  quantile_ = filter;
  counts_ = counts;
  prev_values_ = std::move(prev_values);
  deltas_.clear();
  for (int64_t d : recent_deltas) PushDelta(d);
  if (deltas_.empty()) PushDelta(0);
}

}  // namespace wsnq
