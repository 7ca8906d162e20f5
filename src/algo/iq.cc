#include "algo/iq.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"
#include "util/trace.h"

namespace wsnq {

IqProtocol::IqProtocol(int64_t k, int64_t range_min, int64_t range_max,
                       const WireFormat& wire, const Options& options)
    : range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
  WSNQ_CHECK_GE(options.m, 2);
  state_.k = k;
}

void IqProtocol::Initialize(Network* net,
                            const std::vector<int64_t>& values) {
  // TAG collection, like POS (§4.2.1: "Since POS uses TAG during
  // initialization, we will use the same algorithm").
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t>& collected =
      CollectKSmallest(net, values, state_.k, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), state_.k);
  }
  InitIqRank(collected, net->num_sensors(), (range_min_ + range_max_) / 2,
             options_.init_strategy, options_.init_c, &state_);
  WSNQ_TRACE_EVENT("init", "window", -1, {"xi_l", state_.xi_l},
                   {"xi_r", state_.xi_r});

  // Filter broadcast carries the tuple (v_k, xi) (§4.2.1).
  net->FloodFromRoot(2 * wire_.value_bits);
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
    Network* net, const std::vector<int64_t>& values) {
  // Eq. 1/2 window sanity: xi_l <= 0 <= xi_r, so the window always
  // contains the current filter value.
  WSNQ_DCHECK_LE(state_.xi_l, 0);
  WSNQ_DCHECK_GE(state_.xi_r, 0);
  const size_t n = static_cast<size_t>(net->num_vertices());
  std::vector<ValidationAgg>& inbox = ws_.PrepareAgg(n);
  std::vector<std::vector<int64_t>>& a_inbox = ws_.PrepareWindows(n);
  WindowValidationOps ops{net,
                          values,
                          prev_values_,
                          wire_,
                          state_.filter,
                          state_.filter + state_.xi_l,
                          state_.filter + state_.xi_r,
                          options_.use_hints ? 1 : 0,
                          inbox,
                          a_inbox};
  RunConvergecastWave(net, ops);
  const std::vector<int64_t>& root_a =
      a_inbox[static_cast<size_t>(net->root())];
  window_.assign(root_a.begin(), root_a.end());
  std::sort(window_.begin(), window_.end());
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

  const ValidationAgg validation = [&] {
    WSNQ_TRACE_SCOPE("validation", "window_convergecast", -1,
                     {"lo", state_.filter + state_.xi_l},
                     {"hi", state_.filter + state_.xi_r});
    return ValidationWithWindow(net, values_by_vertex);
  }();
  // Ξ hit accounting (§4.2.2): values that landed inside the window were
  // shipped in A; the round needs a refinement convergecast only when the
  // new quantile escaped Ξ.
  WSNQ_TRACE_EVENT("validation", "window_hits", -1,
                   {"in_window", static_cast<int64_t>(window_.size())});
  const int64_t n = net->num_sensors();
  ApplyCounters(validation, n, &state_.counts);
  if (!net->lossy()) {
    WSNQ_DCHECK(CountsConserved(state_.counts, n));
  }
  prev_values_ = values_by_vertex;

  const int64_t v_old = state_.filter;
  const IqResolution resolution =
      ResolveIqRank(window_, validation, n, range_min_, range_max_,
                    options_.use_hints, &state_);
  int64_t q = resolution.quantile;
  if (resolution.refine) {
    const IqRefinement& request = resolution.request;
    WSNQ_TRACE_SCOPE("refinement",
                     request.below ? "below_window" : "above_window", -1,
                     {"f", request.f});
    q = RunIqRefinement(net, values_by_vertex, request, wire_, &ws_,
                        &state_);
    refinements_ = 1;
  }

  // Filter broadcast iff the quantile changed; nodes derive delta = 0 from
  // a silent round and update the window either way.
  if (q != v_old) net->FloodFromRoot(wire_.value_bits);
  PushIqDelta(q - v_old, options_.m, &state_);
  WSNQ_TRACE_EVENT("validation", "window_adjust", -1, {"delta", q - v_old},
                   {"xi_l", state_.xi_l}, {"xi_r", state_.xi_r},
                   {"refined", refinements_});
  state_.filter = q;
}

void IqProtocol::AdoptState(int64_t filter, const RootCounts& counts,
                            std::vector<int64_t> prev_values,
                            const std::deque<int64_t>& recent_deltas) {
  state_.filter = filter;
  state_.counts = counts;
  prev_values_ = std::move(prev_values);
  state_.deltas.clear();
  for (int64_t d : recent_deltas) PushIqDelta(d, options_.m, &state_);
  if (state_.deltas.empty()) PushIqDelta(0, options_.m, &state_);
}

void InitIqRank(const std::vector<int64_t>& collected, int64_t population,
                int64_t fallback, IqProtocol::InitStrategy strategy,
                double init_c, IqRankState* state) {
  state->filter = BestEffortKth(collected, state->k, fallback);
  state->counts = CountsFromCollection(collected, state->filter, population);
  // Initial window half-width from the k smallest values (§4.2.1).
  int64_t xi = 1;
  const int64_t known =
      std::min(state->k, static_cast<int64_t>(collected.size()));
  if (known >= 2) {
    if (strategy == IqProtocol::InitStrategy::kMeanGap) {
      const double spread = static_cast<double>(
          collected[static_cast<size_t>(known - 1)] - collected[0]);
      xi = static_cast<int64_t>(
          std::llround(init_c * spread / static_cast<double>(known)));
    } else {
      std::vector<double> gaps;
      gaps.reserve(static_cast<size_t>(known - 1));
      for (int64_t i = 1; i < known; ++i) {
        gaps.push_back(static_cast<double>(
            collected[static_cast<size_t>(i)] -
            collected[static_cast<size_t>(i - 1)]));
      }
      xi = static_cast<int64_t>(
          std::llround(init_c * Median(std::move(gaps))));
    }
    if (xi < 1) xi = 1;
  }
  state->xi_l = -xi;
  state->xi_r = xi;
}

IqResolution ResolveIqRank(const std::vector<int64_t>& window,
                           const ValidationAgg& validation,
                           int64_t population, int64_t range_min,
                           int64_t range_max, bool use_hints,
                           IqRankState* state) {
  WSNQ_DCHECK(std::is_sorted(window.begin(), window.end()));
  RootCounts& counts = state->counts;
  const int64_t k = state->k;
  const int64_t v_old = state->filter;
  IqResolution out;
  if (CountsValid(counts, k)) {
    // v_k in eq: nothing changed, nothing to broadcast (§4.2.2).
    out.quantile = v_old;
    return out;
  }
  // The one-value hint: no value that changed region lies farther than d
  // from the filter, so it bounds the refinement interval's far side.
  const bool hinted = use_hints && validation.has_hint;
  const int64_t d = hinted ? std::max(v_old - validation.min_changed,
                                      validation.max_changed - v_old)
                           : 0;
  // A is sorted: its lt part is a prefix, its gt part a suffix.
  const auto lt_end = std::lower_bound(window.begin(), window.end(), v_old);
  const auto gt_begin = std::upper_bound(lt_end, window.end(), v_old);

  if (counts.l >= k) {
    // v_k in lt (§4.2.2, "Refinement for v_k in lt").
    const int64_t a_below = lt_end - window.begin();
    if (counts.l - a_below < k) {
      // The new quantile is already in A: the k-th smallest overall is the
      // k-th smallest of lt, and the (l - a) values below the window are
      // all smaller than A's lt part. l >= k and l - a < k put the index
      // in [0, a).
      const int64_t idx = a_below - (counts.l - k) - 1;
      WSNQ_CHECK_GE(idx, 0);
      WSNQ_CHECK_LT(idx, a_below);
      const int64_t q = window[static_cast<size_t>(idx)];
      const auto [q_begin, q_end] =
          std::equal_range(window.begin(), lt_end, q);
      counts.e = q_end - q_begin;
      counts.l = (counts.l - a_below) + (q_begin - window.begin());
      counts.g = population - counts.l - counts.e;
      out.quantile = q;
      return out;
    }
    // One refinement: fetch the f1 largest values below the window.
    out.refine = true;
    out.request.below = true;
    out.request.lo = hinted ? std::max(range_min, v_old - d) : range_min;
    out.request.hi = v_old + state->xi_l - 1;
    out.request.f = counts.l - k - a_below + 1;
    out.request.base = counts.l - a_below;
    return out;
  }

  // v_k in gt (§4.2.2, "Refinement for v_k in gt"). The counts do not
  // certify v and l < k, so l + e < k.
  const int64_t a_above = window.end() - gt_begin;
  if (counts.l + counts.e + a_above >= k) {
    // The new quantile is in A's gt part; l + e < k puts it there, at rank
    // k - l - e within gt.
    const int64_t idx = static_cast<int64_t>(window.size()) - a_above +
                        (k - counts.l - counts.e) - 1;
    WSNQ_CHECK_GE(idx, gt_begin - window.begin());
    WSNQ_CHECK_LT(idx, static_cast<int64_t>(window.size()));
    const int64_t q = window[static_cast<size_t>(idx)];
    const auto [q_begin, q_end] = std::equal_range(gt_begin, window.end(), q);
    counts.l = counts.l + counts.e + (q_begin - gt_begin);
    counts.e = q_end - q_begin;
    counts.g = population - counts.l - counts.e;
    out.quantile = q;
    return out;
  }
  // One refinement: fetch the f2 smallest values above the window.
  out.refine = true;
  out.request.below = false;
  out.request.lo = v_old + state->xi_r + 1;
  out.request.hi = hinted ? std::min(range_max, v_old + d) : range_max;
  out.request.f = k - (counts.l + counts.e) - a_above;
  out.request.base = counts.l + counts.e + a_above;
  return out;
}

int64_t CompleteIqRefinement(const IqRefinement& request,
                             const std::vector<int64_t>& response,
                             int64_t population, IqRankState* state) {
  // The f-th largest (below) or f-th smallest (above) response value, with
  // f clamped into a short response.
  int64_t q = state->filter;  // response lost entirely; keep the filter
  if (!response.empty()) {
    const size_t take =
        std::min(response.size(), static_cast<size_t>(request.f));
    q = request.below ? response[response.size() - take] : response[take - 1];
  }
  const auto [q_begin, q_end] =
      std::equal_range(response.begin(), response.end(), q);
  RootCounts& counts = state->counts;
  counts.e = q_end - q_begin;
  counts.l = request.below ? request.base - (response.end() - q_begin)
                           : request.base + (q_begin - response.begin());
  counts.g = population - counts.l - counts.e;
  return q;
}

int64_t RunIqRefinement(Network* net, const std::vector<int64_t>& values,
                        const IqRefinement& request, const WireFormat& wire,
                        WaveWorkspace* ws, IqRankState* state) {
  // Request: f plus the interval bounds.
  net->FloodFromRoot(wire.fcount_bits + 2 * wire.bound_bits);
  const std::vector<int64_t>& response =
      TopFConvergecast(net, values, request.lo, request.hi, request.f,
                       /*largest=*/request.below, wire, ws);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(response.size()), request.f);
  }
  return CompleteIqRefinement(request, response, net->num_sensors(), state);
}

void PushIqDelta(int64_t delta, int m, IqRankState* state) {
  state->deltas.push_back(delta);
  while (static_cast<int>(state->deltas.size()) > m - 1) {
    state->deltas.pop_front();
  }
  int64_t lo = 0, hi = 0;
  for (int64_t d : state->deltas) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  state->xi_l = lo;  // Eq. 1: min(min deltas, 0)
  state->xi_r = hi;  // Eq. 2: max(max deltas, 0)
  WSNQ_DCHECK_LE(state->xi_l, 0);
  WSNQ_DCHECK_GE(state->xi_r, 0);
}

}  // namespace wsnq
