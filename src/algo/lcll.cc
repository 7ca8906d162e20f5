#include "algo/lcll.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algo/hist_codec.h"
#include "algo/snapshot_bary.h"
#include "util/check.h"
#include "util/trace.h"

namespace wsnq {

LcllProtocol::LcllProtocol(int64_t k, int64_t range_min, int64_t range_max,
                           const WireFormat& wire, const Options& options)
    : k_(k),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(range_min, range_max);
}

int LcllProtocol::BucketId(int64_t value) const {
  if (value < window_lo_) return -1;
  const int64_t offset = value - window_lo_;
  const int64_t idx =
      width_shift_ >= 0 ? offset >> width_shift_ : offset / width_;
  return idx >= buckets_ ? buckets_ : static_cast<int>(idx);
}

int64_t LcllProtocol::AlignWindowLo(int64_t x) const {
  // Clamp into the admissible origin range, then align down to the global
  // w-grid anchored at range_min (slips preserve this alignment, which
  // keeps slip bookkeeping exact). An overhanging top bucket is fine.
  const int64_t max_lo = std::max(range_min_, range_max_ + 1 - span());
  x = std::clamp(x, range_min_, max_lo);
  return range_min_ + (x - range_min_) / width_ * width_;
}

void LcllProtocol::Initialize(Network* net,
                              const std::vector<int64_t>& values) {
  if (options_.buckets > 0) {
    buckets_ = options_.buckets;
  } else {
    // b from the message size, as suggested by [16].
    buckets_ = static_cast<int>(net->packetizer().max_payload_bits /
                                wire_.bucket_count_bits);
  }
  WSNQ_CHECK_GE(buckets_, 2);
  prev_bucket_valid_ = false;
  if (options_.bucket_width > 0) {
    width_ = options_.bucket_width;
  } else {
    const int64_t tau = range_max_ - range_min_ + 1;
    const int64_t b2 =
        static_cast<int64_t>(buckets_) * static_cast<int64_t>(buckets_);
    width_ = std::max<int64_t>(1, (tau + b2 - 1) / b2);
  }
  width_shift_ = PowerOfTwoShift(width_);

  // Query dissemination.
  net->FloodFromRoot(wire_.counter_bits);
  // Initial quantile via a full-range b-ary drill.
  drill_.buckets = buckets_;
  drill_.direct_capacity =
      options_.direct_retrieval
          ? net->packetizer().ValuesPerPacket(wire_.value_bits)
          : 0;
  const DrillResult init =
      BAryDrill(net, values, range_min_, range_max_ + 1,
                /*below_lb=*/0, k_, drill_, wire_, /*less_than_ub=*/-1, &ws_);
  quantile_ = init.quantile;
  counts_ = init.counts;
  // Focus the window on the quantile and learn its histogram.
  Reestablish(net, values, AlignWindowLo(quantile_ - span() / 2));
}

void LcllProtocol::Validate(Network* net,
                            const std::vector<int64_t>& values) {
  // inbox[v]: sparse (bucket id, signed delta) row of v's subtree, sorted
  // by bucket id — the struct-of-arrays form of a per-vertex ordered map,
  // merged bottom-up with a linear two-pointer sweep.
  std::vector<std::vector<std::pair<int, int64_t>>>& inbox =
      ws_.PreparePairs(static_cast<size_t>(net->num_vertices()));

  // Prescan: most rounds most values stay in their bucket, so the wave
  // below would do nothing at most vertices. One flat pass finds the
  // vertices whose bucket moved and flags their root paths; the wave then
  // skips every unflagged vertex (its subtree provably carries no deltas,
  // so it would neither merge nor transmit). The flagged set transmits the
  // identical payloads in the identical post order as the full sweep.
  const size_t n = static_cast<size_t>(net->num_vertices());
  const size_t root = static_cast<size_t>(net->root());
  if (!prev_bucket_valid_ || prev_bucket_window_lo_ != window_lo_ ||
      prev_bucket_.size() != n) {
    prev_bucket_.resize(n);
    for (size_t v = 0; v < n; ++v) {
      prev_bucket_[v] = BucketId(prev_values_[v]);
    }
    prev_bucket_valid_ = true;
    prev_bucket_window_lo_ = window_lo_;
  }
  delta_dirty_.assign(n, 0);
  delta_changed_.assign(n, 0);
  delta_from_.resize(n);  // read only where delta_changed_ is set
  const std::vector<int>& parent = net->tree().parent;
  for (size_t v = 0; v < n; ++v) {
    if (v == root) continue;
    const int to = BucketId(values[v]);
    const int from = prev_bucket_[v];
    if (to == from) continue;
    delta_changed_[v] = 1;
    delta_from_[v] = from;
    prev_bucket_[v] = to;
    for (int u = static_cast<int>(v);
         u >= 0 && !delta_dirty_[static_cast<size_t>(u)];
         u = parent[static_cast<size_t>(u)]) {
      delta_dirty_[static_cast<size_t>(u)] = 1;
    }
  }

  struct Ops {
    LcllProtocol* self;
    Network* net;
    std::vector<std::vector<std::pair<int, int64_t>>>& inbox;
    int64_t entry_bits;
    int64_t dense_bits;

    WaveSend Process(int v, WaveLane& lane) {
      const size_t i = static_cast<size_t>(v);
      if (!self->delta_dirty_[i]) return WaveSend{};
      std::vector<std::pair<int, int64_t>>& deltas = inbox[i];
      if (self->delta_changed_[i]) {
        const int from = self->delta_from_[i];
        const int to = self->prev_bucket_[i];  // prescan stored the new id
        // "The last bucket of the node is reduced by 1 ... the count of
        // the new bucket is increased by one" (§5.1.6).
        if (from < to) {
          deltas.emplace_back(from, -1);
          deltas.emplace_back(to, 1);
        } else {
          deltas.emplace_back(to, 1);
          deltas.emplace_back(from, -1);
        }
      }
      for (int child : net->tree().children[static_cast<size_t>(v)]) {
        std::vector<std::pair<int, int64_t>>& theirs =
            inbox[static_cast<size_t>(child)];
        if (theirs.empty()) continue;
        // Copied into this row's own buffer, never swapped: rows keep their
        // own capacity (see MergeSortedInto).
        if (deltas.empty()) {
          deltas.assign(theirs.begin(), theirs.end());
          theirs.clear();
          continue;
        }
        std::vector<std::pair<int, int64_t>>& merged = lane.pair_scratch;
        merged.clear();
        merged.reserve(deltas.size() + theirs.size());
        size_t a = 0;
        size_t b = 0;
        while (a < deltas.size() && b < theirs.size()) {
          if (deltas[a].first < theirs[b].first) {
            merged.push_back(deltas[a++]);
          } else if (theirs[b].first < deltas[a].first) {
            merged.push_back(theirs[b++]);
          } else {
            const int64_t sum = deltas[a].second + theirs[b].second;
            if (sum != 0) merged.emplace_back(deltas[a].first, sum);
            ++a;
            ++b;
          }
        }
        merged.insert(merged.end(), deltas.begin() + a, deltas.end());
        merged.insert(merged.end(), theirs.begin() + b, theirs.end());
        deltas.assign(merged.begin(), merged.end());
        theirs.clear();
      }
      WaveSend send;
      if (!deltas.empty()) {
        send.payload_bits =
            std::min(static_cast<int64_t>(deltas.size()) * entry_bits,
                     dense_bits);
      }
      return send;
    }
    void OnLost(int v) { inbox[static_cast<size_t>(v)].clear(); }
  };
  Ops ops{this,
          net,
          inbox,
          wire_.bucket_index_bits + wire_.bucket_count_bits,
          static_cast<int64_t>(buckets_ + 2) * wire_.bucket_count_bits};
  RunConvergecastWave(net, ops);
  for (const auto& [bucket, delta] : inbox[static_cast<size_t>(net->root())]) {
    if (bucket < 0) {
      below_ += delta;
    } else if (bucket >= buckets_) {
      above_ += delta;
    } else {
      hist_[static_cast<size_t>(bucket)] += delta;
    }
  }
  if (net->lossy()) {
    // Half-delivered delta pairs can drive counts negative; clamp so the
    // locate logic stays sane (the rank error reflects the damage).
    below_ = std::max<int64_t>(below_, 0);
    above_ = std::max<int64_t>(above_, 0);
    for (int64_t& c : hist_) c = std::max<int64_t>(c, 0);
  } else {
    // Delta validation conserves the population split across the
    // below / window / above regions (§5.1.6 bookkeeping).
    int64_t in_window = 0;
    for (int64_t c : hist_) {
      WSNQ_DCHECK_GE(c, 0);
      in_window += c;
    }
    WSNQ_DCHECK_GE(below_, 0);
    WSNQ_DCHECK_GE(above_, 0);
    WSNQ_DCHECK_EQ(below_ + in_window + above_, net->num_sensors());
  }
}

void LcllProtocol::Reestablish(Network* net,
                               const std::vector<int64_t>& values,
                               int64_t new_window_lo) {
  window_lo_ = new_window_lo;
  // Window announcement.
  net->FloodFromRoot(2 * wire_.bound_bits);
  ++refinements_;

  // Full-network histogram convergecast over the b + 2 logical buckets:
  // bucket 0 is everything below the window, b + 1 everything above it.
  const RootHistogram h = HistogramConvergecast(
      net, values, buckets_ + 2,
      [this](int64_t v) { return BucketId(v) + 1; }, wire_, &ws_);
  below_ = h.count(0);
  above_ = h.count(buckets_ + 1);
  hist_.resize(static_cast<size_t>(buckets_));
  for (int j = 0; j < buckets_; ++j) {
    hist_[static_cast<size_t>(j)] = h.count(j + 1);
  }
}

void LcllProtocol::Slip(Network* net, const std::vector<int64_t>& values,
                        bool down) {
  const int64_t old_lo = window_lo_;
  const int64_t new_lo =
      down ? std::max(range_min_, old_lo - span()) : old_lo + span();
  WSNQ_CHECK_NE(new_lo, old_lo);
  const int64_t new_hi = new_lo + span();

  // Window announcement, then a histogram of the *new* window region only:
  // "the refinement interval of this approach is very selective" (§5.2.1).
  WSNQ_TRACE_EVENT("refinement", "slip", -1, {"down", down ? 1 : 0},
                   {"new_lo", new_lo}, {"new_hi", new_hi});
  net->FloodFromRoot(2 * wire_.bound_bits);
  ++refinements_;
  const BucketLayout layout(new_lo, new_hi, buckets_);
  WSNQ_CHECK_EQ(layout.width(), width_);
  const RootHistogram nh = HistogramConvergecast(
      net, values, layout.num_buckets(),
      [&layout](int64_t v) {
        return layout.Contains(v) ? layout.BucketOf(v) : -1;
      },
      wire_, &ws_);

  std::vector<int64_t> new_hist(static_cast<size_t>(buckets_), 0);
  for (int j = 0; j < layout.num_buckets(); ++j) {
    new_hist[static_cast<size_t>(j)] = nh.count(j);
  }
  if (down) {
    // Values in [new_lo, old_lo) leave the below-boundary; old window
    // buckets at or above new_hi become the above-boundary.
    int64_t moved_from_below = 0;
    for (int j = 0; j < buckets_; ++j) {
      if (new_lo + static_cast<int64_t>(j + 1) * width_ <= old_lo) {
        moved_from_below += new_hist[static_cast<size_t>(j)];
      }
    }
    int64_t moved_to_above = 0;
    for (int j = 0; j < buckets_; ++j) {
      if (old_lo + static_cast<int64_t>(j) * width_ >= new_hi) {
        moved_to_above += hist_[static_cast<size_t>(j)];
      }
    }
    below_ -= moved_from_below;
    above_ += moved_to_above;
  } else {
    // Upward slips never overlap: the old window drops below wholesale.
    int64_t old_window_total = 0;
    for (int64_t c : hist_) old_window_total += c;
    below_ += old_window_total;
    int64_t new_window_total = 0;
    for (int64_t c : new_hist) new_window_total += c;
    above_ -= new_window_total;
  }
  hist_ = std::move(new_hist);
  window_lo_ = new_lo;

  if (net->lossy()) {
    below_ = std::max<int64_t>(below_, 0);
    above_ = std::max<int64_t>(above_, 0);
  } else {
    int64_t in_window = 0;
    for (int64_t c : hist_) in_window += c;
    WSNQ_CHECK_EQ(below_ + in_window + above_, net->num_sensors());
    WSNQ_CHECK_GE(below_, 0);
    WSNQ_CHECK_GE(above_, 0);
  }
}

void LcllProtocol::BestEffortResolve(Network* net,
                                     const std::vector<int64_t>& values) {
  // Re-sync: rebuild the whole histogram around the last known quantile
  // (what a deployed root would do after detecting inconsistent counts),
  // then resolve a rank clamped into whatever actually arrived.
  Reestablish(net, values, AlignWindowLo(quantile_ - span() / 2));
  int64_t in_window = 0;
  for (int64_t c : hist_) in_window += c;
  if (in_window == 0) return;  // nothing to go on; keep the old quantile
  const int64_t rank =
      std::clamp<int64_t>(k_, below_ + 1, below_ + in_window);
  int64_t cl = below_;
  for (int j = 0; j < buckets_; ++j) {
    const int64_t c = hist_[static_cast<size_t>(j)];
    if (cl + c >= rank) {
      ResolveBucket(net, values, j, std::min(cl, k_ - 1));
      return;
    }
    cl += c;
  }
}

void LcllProtocol::ResolveBucket(Network* net,
                                 const std::vector<int64_t>& values, int j,
                                 int64_t cl) {
  if (net->lossy()) cl = std::clamp<int64_t>(cl, 0, k_ - 1);
  const int64_t blo = window_lo_ + static_cast<int64_t>(j) * width_;
  const int64_t bhi = std::min(blo + width_, range_max_ + 1);
  const int64_t in_bucket = hist_[static_cast<size_t>(j)];
  if (width_ == 1) {
    quantile_ = blo;
    counts_.l = cl;
    counts_.e = in_bucket;
    counts_.g = net->num_sensors() - cl - in_bucket;
    return;
  }
  // Over-wide bucket: values can shuffle inside it without any validation
  // delta, so the exact value must be re-resolved whenever it is needed.
  WSNQ_TRACE_SCOPE("refinement", "resolve_bucket", -1, {"bucket", j},
                   {"lo", blo}, {"hi", bhi});
  const DrillResult result = BAryDrill(net, values, blo, bhi, cl, k_, drill_,
                                       wire_, /*less_than_ub=*/-1, &ws_);
  refinements_ += result.rounds;
  quantile_ = result.quantile;
  counts_ = result.counts;
}

void LcllProtocol::RunRound(Network* net,
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

  Validate(net, values_by_vertex);
  prev_values_ = values_by_vertex;

  // Locate the k-th rank; refocus the window first if it escaped. Under
  // message loss the boundary counts can lie (e.g. claim values below a
  // window already at the universe floor); the attempt cap and edge guards
  // divert those cases to BestEffortResolve.
  const int max_attempts =
      static_cast<int>((range_max_ - range_min_ + 1) / span()) + 8;
  for (int attempt = 0;; ++attempt) {
    if (attempt > max_attempts) {
      WSNQ_CHECK(net->lossy());
      BestEffortResolve(net, values_by_vertex);
      return;
    }
    if (k_ <= below_) {
      if (options_.mode == RefineMode::kSlip) {
        if (window_lo_ <= range_min_) {
          WSNQ_CHECK(net->lossy());
          BestEffortResolve(net, values_by_vertex);
          return;
        }
        Slip(net, values_by_vertex, /*down=*/true);
        continue;
      }
      if (window_lo_ <= range_min_) {
        WSNQ_CHECK(net->lossy());
        BestEffortResolve(net, values_by_vertex);
        return;
      }
      // Hierarchical: drill the whole lower boundary region, then zoom out.
      const DrillResult result =
          BAryDrill(net, values_by_vertex, range_min_, window_lo_,
                    /*below_lb=*/0, k_, drill_, wire_, /*less_than_ub=*/-1,
                    &ws_);
      refinements_ += result.rounds;
      quantile_ = result.quantile;
      counts_ = result.counts;
      Reestablish(net, values_by_vertex,
                  AlignWindowLo(quantile_ - span() / 2));
      return;
    }
    int64_t in_window = 0;
    for (int64_t c : hist_) in_window += c;
    if (k_ > below_ + in_window) {
      if (window_lo_ + span() > range_max_) {
        // The window already covers the top of the universe: the missing
        // ranks are a loss artifact.
        WSNQ_CHECK(net->lossy());
        BestEffortResolve(net, values_by_vertex);
        return;
      }
      if (options_.mode == RefineMode::kSlip) {
        Slip(net, values_by_vertex, /*down=*/false);
        continue;
      }
      const DrillResult result = BAryDrill(
          net, values_by_vertex, window_lo_ + span(), range_max_ + 1,
          below_ + in_window, k_, drill_, wire_, /*less_than_ub=*/-1, &ws_);
      refinements_ += result.rounds;
      quantile_ = result.quantile;
      counts_ = result.counts;
      Reestablish(net, values_by_vertex,
                  AlignWindowLo(quantile_ - span() / 2));
      return;
    }
    // Inside the window: find the bucket.
    int64_t cl = below_;
    for (int j = 0; j < buckets_; ++j) {
      const int64_t c = hist_[static_cast<size_t>(j)];
      if (cl + c >= k_) {
        ResolveBucket(net, values_by_vertex, j, cl);
        return;
      }
      cl += c;
    }
    WSNQ_CHECK(false);  // unreachable: rank was inside the window
  }
}

}  // namespace wsnq
