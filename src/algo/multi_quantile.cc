#include "algo/multi_quantile.h"

#include <algorithm>

#include "util/check.h"

namespace wsnq {

namespace {

/// Every rank runs with IQ's default window history, initial width and
/// hints.
constexpr IqProtocol::Options kRankOptions{};

}  // namespace

MultiIqProtocol::MultiIqProtocol(const std::vector<int64_t>& ks,
                                 int64_t range_min, int64_t range_max,
                                 const WireFormat& wire)
    : range_min_(range_min), range_max_(range_max), wire_(wire) {
  WSNQ_CHECK(!ks.empty());
  states_.resize(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    WSNQ_CHECK_GE(ks[i], 1);
    if (i > 0) WSNQ_CHECK_LT(ks[i - 1], ks[i]);
    states_[i].k = ks[i];
  }
}

void MultiIqProtocol::Initialize(Network* net,
                                 const std::vector<int64_t>& values) {
  // One k-limited collection up to the largest tracked rank initializes
  // every rank at once.
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t>& collected =
      CollectKSmallest(net, values, states_.back().k, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), states_.back().k);
  }
  for (IqRankState& state : states_) {
    InitIqRank(collected, net->num_sensors(), (range_min_ + range_max_) / 2,
               kRankOptions.init_strategy, kRankOptions.init_c, &state);
  }
  // Filter broadcast: (v_k, xi) tuple per rank.
  net->FloodFromRoot(static_cast<int64_t>(states_.size()) * 2 *
                     wire_.value_bits);
}

void MultiIqProtocol::RunRound(Network* net,
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

  // --- Shared validation convergecast ------------------------------------
  // Sparse rows: aggs[v] holds (rank index, aggregate) for the ranks whose
  // aggregate over v's subtree is non-empty, sorted by rank index;
  // windows[v] holds (rank index, value) for every window value of the
  // subtree, unordered (the root sorts each rank's window). A node's own
  // value touches only the ranks whose filter it crosses or whose window
  // it falls in, found by binary search in the ranks sorted by filter.
  // Sort by filter, not rank index: under loss the filters need not be
  // monotone in k.
  const size_t m = states_.size();
  const size_t vertices = static_cast<size_t>(net->num_vertices());
  by_filter_.clear();
  int64_t reach_below = 0;  // max -xi_l: a window reaches this far below
  int64_t reach_above = 0;  // max xi_r
  for (size_t j = 0; j < m; ++j) {
    const IqRankState& state = states_[j];
    by_filter_.push_back({state.filter, state.filter + state.xi_l,
                          state.filter + state.xi_r, static_cast<int>(j)});
    reach_below = std::max(reach_below, -state.xi_l);
    reach_above = std::max(reach_above, state.xi_r);
  }
  std::sort(by_filter_.begin(), by_filter_.end(),
            [](const FilterEntry& a, const FilterEntry& b) {
              return a.filter != b.filter ? a.filter < b.filter
                                          : a.rank < b.rank;
            });
  std::vector<std::vector<AggEntry>>& aggs = ws_.PrepareAggEntries(vertices);
  std::vector<std::vector<std::pair<int, int64_t>>>& windows =
      ws_.PreparePairs(vertices);
  struct Ops {
    MultiIqProtocol* self;
    Network* net;
    const std::vector<int64_t>& values;
    std::vector<std::vector<AggEntry>>& aggs;
    std::vector<std::vector<std::pair<int, int64_t>>>& windows;
    int64_t reach_below;
    int64_t reach_above;
    int64_t bitmap_bits;
    int64_t agg_bits;
    int64_t hint_bits;

    // First rank in filter order whose filter is >= `value`.
    std::vector<FilterEntry>::const_iterator FirstAtLeast(
        int64_t value) const {
      return std::lower_bound(self->by_filter_.begin(),
                              self->by_filter_.end(), value,
                              [](const FilterEntry& e, int64_t x) {
                                return e.filter < x;
                              });
    }

    // Rows of v's own value: a move from p to x crosses exactly the
    // ranks with filter in [min(p, x), max(p, x)].
    void AddOwn(int v, std::vector<AggEntry>* row,
                std::vector<std::pair<int, int64_t>>* window) const {
      const size_t i = static_cast<size_t>(v);
      const int64_t p = self->prev_values_[i];
      const int64_t x = values[i];
      const auto end = self->by_filter_.end();
      if (p != x) {
        for (auto it = FirstAtLeast(std::min(p, x));
             it != end && it->filter <= std::max(p, x); ++it) {
          ValidationAgg agg;
          agg.AddTransition(ClassifyThreshold(p, it->filter),
                            ClassifyThreshold(x, it->filter), x);
          row->emplace_back(it->rank, agg);
        }
        std::sort(row->begin(), row->end(),
                  [](const AggEntry& a, const AggEntry& b) {
                    return a.first < b.first;
                  });
      }
      // x lies in rank j's window only if x - xi_r <= filter <= x - xi_l.
      for (auto it = FirstAtLeast(x - reach_above);
           it != end && it->filter <= x + reach_below; ++it) {
        if (x >= it->window_lo && x <= it->window_hi && x != it->filter) {
          window->emplace_back(it->rank, x);
        }
      }
    }

    WaveSend Process(int v, WaveLane& /*lane*/) {
      std::vector<AggEntry>& row = aggs[static_cast<size_t>(v)];
      std::vector<std::pair<int, int64_t>>& window =
          windows[static_cast<size_t>(v)];
      if (!net->is_root(v)) AddOwn(v, &row, &window);
      for (int child : net->tree().children[static_cast<size_t>(v)]) {
        MergeRow(&aggs[static_cast<size_t>(child)], &row);
        std::vector<std::pair<int, int64_t>>& theirs =
            windows[static_cast<size_t>(child)];
        if (window.empty()) {
          window.swap(theirs);
        } else {
          window.insert(window.end(), theirs.begin(), theirs.end());
          theirs.clear();
        }
      }
      WaveSend send;
      if (row.empty() && window.empty()) return send;
      int64_t payload = bitmap_bits;  // per-rank presence bitmap
      for (const AggEntry& entry : row) {
        payload += agg_bits + (entry.second.has_hint ? hint_bits : 0);
      }
      const int64_t window_values = static_cast<int64_t>(window.size());
      send.payload_bits = payload + window_values * self->wire_.value_bits;
      send.value_count = window_values;
      return send;
    }

    // Two-pointer merge of the child's row into `row` (both sorted by
    // rank index), run backwards in place: `row` grows by the child's
    // fresh ranks, and entries ahead of the first fresh rank never move.
    // Leaves the child's row empty. Buffers swap only into an empty row,
    // so each vertex keeps roughly its own subtree's capacity.
    static void MergeRow(std::vector<AggEntry>* theirs,
                         std::vector<AggEntry>* row) {
      if (theirs->empty()) return;
      if (row->empty()) {
        row->swap(*theirs);
        return;
      }
      std::vector<AggEntry>& mine = *row;
      const std::vector<AggEntry>& child = *theirs;
      size_t fresh = 0;
      size_t at = 0;
      for (const AggEntry& entry : child) {
        while (at < mine.size() && mine[at].first < entry.first) ++at;
        if (at < mine.size() && mine[at].first == entry.first) {
          ++at;
        } else {
          ++fresh;
        }
      }
      // i, j: unplaced prefixes of mine and child; k: unfilled prefix.
      size_t i = mine.size();
      size_t j = child.size();
      mine.resize(mine.size() + fresh);
      size_t k = mine.size();
      while (j > 0) {
        if (i > 0 && mine[i - 1].first >= child[j - 1].first) {
          if (mine[i - 1].first == child[j - 1].first) {
            mine[i - 1].second.Merge(child[--j].second);
          }
          if (k != i) mine[k - 1] = mine[i - 1];
          --i;
        } else {
          mine[k - 1] = child[--j];
        }
        --k;
      }
      theirs->clear();
    }

    void OnLost(int v) {
      aggs[static_cast<size_t>(v)].clear();
      windows[static_cast<size_t>(v)].clear();
    }
  };
  Ops ops{this,
          net,
          values_by_vertex,
          aggs,
          windows,
          reach_below,
          reach_above,
          static_cast<int64_t>(m),
          4 * wire_.counter_bits,
          kRankOptions.use_hints ? wire_.value_bits : 0};
  RunConvergecastWave(net, ops);
  prev_values_ = values_by_vertex;

  // --- Per-rank resolution -------------------------------------------------
  // Group the root's sparse rows per rank (capacity kept across rounds).
  const size_t root = static_cast<size_t>(net->root());
  root_aggs_.assign(m, ValidationAgg{});
  for (const AggEntry& entry : aggs[root]) {
    root_aggs_[static_cast<size_t>(entry.first)] = entry.second;
  }
  root_windows_.resize(m);
  for (std::vector<int64_t>& window : root_windows_) window.clear();
  for (const auto& [j, x] : windows[root]) {
    root_windows_[static_cast<size_t>(j)].push_back(x);
  }
  // Each rank resolves on its own; a refinement reads only the values.
  const int64_t n = net->num_sensors();
  int64_t changed = 0;
  for (size_t j = 0; j < m; ++j) {
    IqRankState& state = states_[j];
    std::vector<int64_t>& window = root_windows_[j];
    std::sort(window.begin(), window.end());
    ApplyCounters(root_aggs_[j], n, &state.counts);
    const IqResolution resolution =
        ResolveIqRank(window, root_aggs_[j], n, range_min_, range_max_,
                      kRankOptions.use_hints, &state);
    int64_t q = resolution.quantile;
    if (resolution.refine) {
      q = RunIqRefinement(net, values_by_vertex, resolution.request, wire_,
                          &ws_, &state);
      ++refinements_;
    }
    changed += (q != state.filter);
    PushIqDelta(q - state.filter, kRankOptions.m, &state);
    state.filter = q;
  }
  // One filter broadcast carries every changed rank.
  if (changed > 0) net->FloodFromRoot(changed * (8 + wire_.value_bits));
}

}  // namespace wsnq
