#include "algo/approximate.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wsnq {
namespace {

int UniverseHeight(int64_t range_min, int64_t range_max) {
  const int64_t span = range_max - range_min + 1;
  int height = 1;
  while ((int64_t{1} << height) < span) ++height;
  return height;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Wave Ops of the three summaries (net/wave.h). Row v holds vertex v's
// summary of its subtree, rebuilt every wave from v's own value and its
// children's rows; the rows themselves persist across rounds.

/// Every node uplinks its compressed q-digest.
struct QdigestOps {
  Network* net;
  const std::vector<int64_t>& values;
  int64_t range_min;
  int height;
  int64_t compression;
  const WireFormat& wire;
  std::vector<QDigest>& rows;

  WaveSend Process(int v, WaveLane& /*lane*/) {
    QDigest& digest = rows[static_cast<size_t>(v)];
    digest = QDigest(height, compression);
    if (!net->is_root(v)) {
      digest.Add(values[static_cast<size_t>(v)] - range_min);
    }
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      digest.Merge(rows[static_cast<size_t>(child)]);
    }
    digest.Compress();
    WaveSend send;
    send.payload_bits = digest.EncodedBits(wire);
    return send;
  }
  void OnLost(int v) {
    rows[static_cast<size_t>(v)] = QDigest(height, compression);
  }
};

/// Every node uplinks its GK summary.
struct GkOps {
  Network* net;
  const std::vector<int64_t>& values;
  const WireFormat& wire;
  std::vector<GkSummary>& rows;

  WaveSend Process(int v, WaveLane& /*lane*/) {
    GkSummary& summary = rows[static_cast<size_t>(v)];
    summary.Clear();  // rows keep their buffers across rounds
    if (!net->is_root(v)) summary.Add(values[static_cast<size_t>(v)]);
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      summary.Merge(rows[static_cast<size_t>(child)]);
    }
    WaveSend send;
    send.payload_bits = summary.EncodedBits(wire);
    return send;
  }
  void OnLost(int v) { rows[static_cast<size_t>(v)].Clear(); }
};

/// A node uplinks the sampled values of its subtree iff there are any.
/// `seed` already carries the round, so the draw is a pure function of
/// (seed, round, vertex).
struct SamplingOps {
  Network* net;
  const std::vector<int64_t>& values;
  double probability;
  uint64_t seed;
  const WireFormat& wire;
  std::vector<std::vector<int64_t>>& rows;

  WaveSend Process(int v, WaveLane& /*lane*/) {
    std::vector<int64_t>& sample = rows[static_cast<size_t>(v)];
    if (!net->is_root(v)) {
      const double u =
          static_cast<double>(
              Mix(seed ^ (static_cast<uint64_t>(v) << 20)) >> 11) *
          0x1.0p-53;
      if (u < probability) sample.push_back(values[static_cast<size_t>(v)]);
    }
    for (int child : net->tree().children[static_cast<size_t>(v)]) {
      // Copied into this row's own buffer (see MergeSortedInto).
      auto& theirs = rows[static_cast<size_t>(child)];
      sample.insert(sample.end(), theirs.begin(), theirs.end());
      theirs.clear();
    }
    WaveSend send;
    if (!sample.empty()) {
      send.payload_bits =
          static_cast<int64_t>(sample.size()) * wire.value_bits;
      send.value_count = static_cast<int64_t>(sample.size());
    }
    return send;
  }
  void OnLost(int v) { rows[static_cast<size_t>(v)].clear(); }
};

}  // namespace

QdigestProtocol::QdigestProtocol(int64_t k, int64_t range_min,
                                 int64_t range_max, const WireFormat& wire,
                                 const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      height_(UniverseHeight(range_min, range_max)),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
}

void QdigestProtocol::RunRound(Network* net,
                               const std::vector<int64_t>& values_by_vertex,
                               int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  const size_t n = static_cast<size_t>(net->num_vertices());
  if (rows_.size() != n) {
    rows_.assign(n, QDigest(height_, options_.compression));
  }
  QdigestOps ops{net,
                 values_by_vertex,
                 range_min_,
                 height_,
                 options_.compression,
                 wire_,
                 rows_};
  RunConvergecastWave(net, ops);
  const QDigest& root_digest = rows_[static_cast<size_t>(net->root())];
  if (root_digest.total() == 0) return;  // total loss; keep the old answer
  quantile_ = range_min_ + root_digest.QueryQuantile(k_);
  last_error_bound_ = root_digest.ErrorBound();
  counts_.l = root_digest.EstimateRank(quantile_ - range_min_ - 1);
  counts_.e = root_digest.EstimateRank(quantile_ - range_min_) - counts_.l;
  counts_.g = net->num_sensors() - counts_.l - counts_.e;
}

GkProtocol::GkProtocol(int64_t k, int64_t /*range_min*/,
                       int64_t /*range_max*/, const WireFormat& wire,
                       const Options& options)
    : k_(k), wire_(wire), options_(options) {
  WSNQ_CHECK_GE(k, 1);
}

void GkProtocol::RunRound(Network* net,
                          const std::vector<int64_t>& values_by_vertex,
                          int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  const size_t n = static_cast<size_t>(net->num_vertices());
  if (rows_.size() != n) rows_.assign(n, GkSummary(options_.epsilon));
  GkOps ops{net, values_by_vertex, wire_, rows_};
  RunConvergecastWave(net, ops);
  const GkSummary& root_summary = rows_[static_cast<size_t>(net->root())];
  if (root_summary.total() == 0) return;
  quantile_ = root_summary.QueryQuantile(k_);
  counts_.l = k_ - 1;  // best effort: the summary's band center
  counts_.e = 1;
  counts_.g = net->num_sensors() - k_;
}

SamplingProtocol::SamplingProtocol(int64_t k, int64_t range_min,
                                   int64_t range_max, const WireFormat& wire,
                                   const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_GT(options.probability, 0.0);
  WSNQ_CHECK_LE(options.probability, 1.0);
}

void SamplingProtocol::RunRound(Network* net,
                                const std::vector<int64_t>& values_by_vertex,
                                int64_t round) {
  if (round == 0) net->FloodFromRoot(wire_.counter_bits);

  std::vector<std::vector<int64_t>>& rows =
      ws_.PrepareSets(static_cast<size_t>(net->num_vertices()));
  SamplingOps ops{net,
                  values_by_vertex,
                  options_.probability,
                  options_.seed ^ static_cast<uint64_t>(round),
                  wire_,
                  rows};
  RunConvergecastWave(net, ops);
  std::vector<int64_t>& sample = rows[static_cast<size_t>(net->root())];
  if (sample.empty()) return;
  std::sort(sample.begin(), sample.end());
  // Rank k among |N| maps to rank ~ k * |sample| / |N| in the sample.
  const int64_t sample_rank = std::clamp<int64_t>(
      std::llround(static_cast<double>(k_) *
                   static_cast<double>(sample.size()) /
                   static_cast<double>(net->num_sensors())),
      1, static_cast<int64_t>(sample.size()));
  quantile_ = sample[static_cast<size_t>(sample_rank - 1)];
  counts_.l = k_ - 1;
  counts_.e = 1;
  counts_.g = net->num_sensors() - k_;
}

}  // namespace wsnq
