#include "algo/common.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace wsnq {

std::vector<ValidationAgg>& WaveWorkspace::PrepareAgg(size_t n) {
  agg_.assign(n, ValidationAgg{});
  return agg_;
}

std::vector<std::vector<AggEntry>>& WaveWorkspace::PrepareAggEntries(
    size_t n) {
  if (agg_entries_.size() < n) agg_entries_.resize(n);
  for (size_t i = 0; i < n; ++i) agg_entries_[i].clear();
  return agg_entries_;
}

std::vector<std::vector<int64_t>>& WaveWorkspace::PrepareSets(size_t n) {
  if (sets_.size() < n) sets_.resize(n);
  for (size_t i = 0; i < n; ++i) sets_[i].clear();
  return sets_;
}

std::vector<std::vector<int64_t>>& WaveWorkspace::PrepareWindows(size_t n) {
  if (windows_.size() < n) windows_.resize(n);
  for (size_t i = 0; i < n; ++i) windows_[i].clear();
  return windows_;
}

std::vector<std::vector<std::pair<int, int64_t>>>&
WaveWorkspace::PreparePairs(size_t n) {
  if (pairs_.size() < n) pairs_.resize(n);
  for (size_t i = 0; i < n; ++i) pairs_[i].clear();
  return pairs_;
}

void WaveWorkspace::PrepareHist(size_t n, size_t buckets) {
  if (hist_.size() < n * buckets) hist_.resize(n * buckets);
  if (hist_epoch_.size() < n || hist_buckets_ != buckets) {
    // Row stride changed: existing epochs refer to other row offsets.
    hist_epoch_.assign(std::max(hist_epoch_.size(), n), 0);
    hist_wave_ = 0;
  }
  hist_buckets_ = buckets;
  hist_total_.assign(n, 0);
  ++hist_wave_;
}

int64_t* WaveWorkspace::HistRow(int v) {
  const size_t row = static_cast<size_t>(v);
  int64_t* data = hist_.data() + row * hist_buckets_;
  if (hist_epoch_[row] != hist_wave_) {
    std::fill(data, data + hist_buckets_, 0);
    hist_epoch_[row] = hist_wave_;
  }
  return data;
}

namespace {

/// Ops for CollectKSmallest: rows hold each subtree's sorted k-smallest
/// multiset (with k-th ties); a node always uplinks its row.
struct CollectKOps {
  Network* net;
  const std::vector<int64_t>& values;
  int64_t k;
  const WireFormat& wire;
  std::vector<std::vector<int64_t>>& inbox;

  WaveSend Process(int v, WaveLane& lane) {
    std::vector<int64_t>& mine = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) mine.push_back(values[static_cast<size_t>(v)]);
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      // Truncate to the k smallest (plus k-th ties) after every child so
      // the running list never exceeds k + ties (see MergeTruncatedInto).
      MergeTruncatedInto(&mine, &inbox[static_cast<size_t>(child)],
                         &lane.scratch, k, std::less<int64_t>());
    }
    TruncateWithTies(&mine, k);
    WaveSend send;
    send.payload_bits = static_cast<int64_t>(mine.size()) * wire.value_bits;
    send.value_count = static_cast<int64_t>(mine.size());
    return send;
  }
  void OnLost(int v) {
    inbox[static_cast<size_t>(v)].clear();  // parent never sees the subtree
  }
};

/// Ops for RangeValuesConvergecast: rows hold the sorted in-range values of
/// each subtree; a node uplinks iff its row is non-empty.
struct RangeValuesOps {
  Network* net;
  const std::vector<int64_t>& values;
  int64_t lo;
  int64_t hi;
  const WireFormat& wire;
  std::vector<std::vector<int64_t>>& inbox;

  WaveSend Process(int v, WaveLane& lane) {
    std::vector<int64_t>& mine = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      const int64_t value = values[static_cast<size_t>(v)];
      if (value >= lo && value <= hi) mine.push_back(value);
    }
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      MergeSortedInto(&mine, &inbox[static_cast<size_t>(child)],
                      &lane.scratch, std::less<int64_t>());
    }
    WaveSend send;
    if (!mine.empty()) {
      send.payload_bits = static_cast<int64_t>(mine.size()) * wire.value_bits;
      send.value_count = static_cast<int64_t>(mine.size());
    }
    return send;
  }
  void OnLost(int v) { inbox[static_cast<size_t>(v)].clear(); }
};

/// Ops for TopFConvergecast: rows ordered most-extreme-first (descending
/// when collecting the largest), truncated to f plus ties of the f-th.
struct TopFOps {
  Network* net;
  const std::vector<int64_t>& values;
  int64_t lo;
  int64_t hi;
  int64_t f;
  bool largest;
  const WireFormat& wire;
  std::vector<std::vector<int64_t>>& inbox;

  WaveSend Process(int v, WaveLane& lane) {
    std::vector<int64_t>& mine = inbox[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      const int64_t value = values[static_cast<size_t>(v)];
      if (value >= lo && value <= hi) mine.push_back(value);
    }
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      // Per-child truncation to the f most extreme (plus f-th ties); see
      // MergeTruncatedInto for why this cannot change the final list.
      if (largest) {
        MergeTruncatedInto(&mine, &inbox[static_cast<size_t>(child)],
                           &lane.scratch, f, std::greater<int64_t>());
      } else {
        MergeTruncatedInto(&mine, &inbox[static_cast<size_t>(child)],
                           &lane.scratch, f, std::less<int64_t>());
      }
    }
    TruncateWithTies(&mine, f);
    WaveSend send;
    if (!mine.empty()) {
      send.payload_bits = static_cast<int64_t>(mine.size()) * wire.value_bits;
      send.value_count = static_cast<int64_t>(mine.size());
    }
    return send;
  }
  void OnLost(int v) { inbox[static_cast<size_t>(v)].clear(); }
};

}  // namespace

const std::vector<int64_t>& CollectKSmallest(
    Network* net, const std::vector<int64_t>& values, int64_t k,
    const WireFormat& wire, WaveWorkspace* ws) {
  WSNQ_CHECK_GE(k, 1);
  const size_t n = static_cast<size_t>(net->num_vertices());
  WSNQ_CHECK_EQ(values.size(), n);
  std::vector<std::vector<int64_t>>& inbox = ws->PrepareSets(n);
  CollectKOps ops{net, values, k, wire, inbox};
  RunConvergecastWave(net, ops);
  const std::vector<int64_t>& result = inbox[static_cast<size_t>(net->root())];
  WSNQ_DCHECK(std::is_sorted(result.begin(), result.end()));
  if (!net->lossy()) {
    // Lossless collection is complete up to rank k.
    WSNQ_DCHECK_GE(static_cast<int64_t>(result.size()),
                   std::min<int64_t>(k, net->num_sensors()));
  }
  return result;
}

const std::vector<int64_t>& RangeValuesConvergecast(
    Network* net, const std::vector<int64_t>& values, int64_t lo, int64_t hi,
    const WireFormat& wire, WaveWorkspace* ws) {
  const size_t n = static_cast<size_t>(net->num_vertices());
  std::vector<std::vector<int64_t>>& inbox = ws->PrepareSets(n);
  RangeValuesOps ops{net, values, lo, hi, wire, inbox};
  RunConvergecastWave(net, ops);
  const std::vector<int64_t>& result = inbox[static_cast<size_t>(net->root())];
  WSNQ_DCHECK(std::is_sorted(result.begin(), result.end()));
  return result;
}

const std::vector<int64_t>& TopFConvergecast(
    Network* net, const std::vector<int64_t>& values, int64_t lo, int64_t hi,
    int64_t f, bool largest, const WireFormat& wire, WaveWorkspace* ws) {
  WSNQ_CHECK_GE(f, 1);
  const size_t n = static_cast<size_t>(net->num_vertices());
  std::vector<std::vector<int64_t>>& inbox = ws->PrepareSets(n);
  TopFOps ops{net, values, lo, hi, f, largest, wire, inbox};
  RunConvergecastWave(net, ops);
  std::vector<int64_t>& result = inbox[static_cast<size_t>(net->root())];
  // The wave already ordered the root's row most-extreme-first (lost
  // subtrees only drop whole rows), so ascending order is a reversal away.
  if (largest) std::reverse(result.begin(), result.end());
  WSNQ_DCHECK(std::is_sorted(result.begin(), result.end()));
  return result;
}

RootCounts CountsFromCollection(const std::vector<int64_t>& sorted_collection,
                                int64_t threshold, int64_t population) {
  WSNQ_DCHECK(
      std::is_sorted(sorted_collection.begin(), sorted_collection.end()));
  RootCounts counts;
  for (int64_t v : sorted_collection) {
    if (v < threshold) {
      ++counts.l;
    } else if (v == threshold) {
      ++counts.e;
    } else {
      break;
    }
  }
  counts.g = population - counts.l - counts.e;
  return counts;
}

}  // namespace wsnq
