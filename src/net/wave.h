// Subtree-parallel convergecast engine. A convergecast wave is a fold over
// the routing tree's post order; every subtree of that order is a contiguous
// segment, so the wave splits into independent parts at a cut through the
// tree. The engine runs each part as a ThreadPool task that computes protocol
// state into disjoint per-vertex slots and *records* its would-be uplinks;
// the calling thread then replays the recorded sends through the real
// Network in exact serial post order and processes the fold vertices (the
// root plus any split interior vertices) in child order. Every energy debit,
// packet counter, trace byte, and SendObserver callback therefore happens on
// one thread in the identical sequence as the classic serial loop — the
// slot+ordered-fold discipline of docs/hardening.md, applied inside a run.
//
// Deferred send replay is sound only on the reliable medium, where
// SendToParent unconditionally succeeds and protocol logic cannot observe
// transport state mid-wave. With a TransportPolicy installed (loss, churn,
// ARQ) the engine runs the serial post-order loop instead, so outcomes stay
// order-faithful.

#ifndef WSNQ_NET_WAVE_H_
#define WSNQ_NET_WAVE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/spanning_tree.h"
#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wsnq {

/// A partition of the routing tree's post order: `parts` are contiguous
/// index ranges of whole subtrees, `steps` is the serial fold program that
/// interleaves part replays with live fold-vertex processing so that the
/// concatenation of all steps visits every post-order position exactly once,
/// in post order. Deterministic function of (tree, target_parts).
struct SubtreeCut {
  struct Part {
    size_t begin = 0;  ///< first post_order index of the part
    size_t end = 0;    ///< one past the last post_order index
  };
  /// Exactly one of the two fields is active: part >= 0 replays that part,
  /// otherwise `vertex` is processed live on the calling thread.
  struct Step {
    int part = -1;
    int vertex = -1;
  };
  std::vector<Part> parts;
  std::vector<Step> steps;
};

/// Computes a size-balanced cut of `tree` into roughly `target_parts`
/// contiguous parts. Subtrees much larger than the balance target are split
/// recursively at their own children (their tops become fold vertices), so
/// deep path-heavy trees still yield usable parts. Works on the attached
/// vertex set only (repaired trees may detach vertices from post_order).
SubtreeCut ComputeSubtreeCut(const SpanningTree& tree, int target_parts);

/// Per-part scratch handed to every Ops::Process call: merge buffers that
/// persist across waves so steady-state merges allocate nothing. Distinct
/// parts get distinct lanes, so Ops may use them without locking.
struct WaveLane {
  std::vector<int64_t> scratch;
  std::vector<std::pair<int, int64_t>> pair_scratch;
};

namespace wave_internal {

/// One deferred uplink: replayed through Network::SendToParent (preceded by
/// CountValues when value_count > 0) on the calling thread.
struct RecordedSend {
  int vertex = -1;
  int64_t payload_bits = 0;
  int64_t value_count = 0;
};

}  // namespace wave_internal

/// What one processed vertex wants to transmit. payload_bits < 0 means no
/// uplink (the classic loops' "empty aggregate" case); value_count > 0
/// additionally tallies protocol-level values via Network::CountValues.
struct WaveSend {
  int64_t payload_bits = -1;
  int64_t value_count = 0;
};

/// Runs convergecast waves over a cached SubtreeCut. Owns the pool the
/// parts fan out on, plus the per-part send records and merge lanes, reused
/// across waves. One executor serves one Network at a time; install it with
/// Network::set_wave_executor. The cut is recomputed when the network's
/// tree epoch changes (fault-driven repair / reset).
class WaveExecutor {
 public:
  /// Owns a fresh pool of `threads` workers. `target_parts` sizes the cut;
  /// values below 1 are clamped to 1.
  WaveExecutor(int threads, int target_parts)
      : pool_(std::make_unique<ThreadPool>(threads)),
        target_parts_(std::max(1, target_parts)) {}

  WaveExecutor(const WaveExecutor&) = delete;
  WaveExecutor& operator=(const WaveExecutor&) = delete;

  ThreadPool* pool() { return pool_.get(); }
  int target_parts() const { return target_parts_; }

  /// The cut for `net`'s current tree, recomputed on epoch change. Protocol
  /// replays reset the epoch to 0 together with the pristine tree
  /// (Network::ResetAccounting), so equal epochs imply equal trees.
  const SubtreeCut& CutFor(const Network& net) {
    if (epoch_ != net.tree_epoch() ||
        order_size_ != net.tree().post_order.size()) {
      cut_ = ComputeSubtreeCut(net.tree(), target_parts_);
      epoch_ = net.tree_epoch();
      order_size_ = net.tree().post_order.size();
    }
    return cut_;
  }

  /// Per-part send records / merge lanes, resized for `parts` parts.
  /// Capacity persists across waves.
  std::vector<std::vector<wave_internal::RecordedSend>>& Records(
      size_t parts) {
    if (records_.size() < parts) records_.resize(parts);
    return records_;
  }
  std::vector<WaveLane>& Lanes(size_t parts) {
    if (lanes_.size() < parts) lanes_.resize(parts);
    return lanes_;
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int target_parts_;
  int64_t epoch_ = -1;
  size_t order_size_ = 0;
  SubtreeCut cut_;
  std::vector<std::vector<wave_internal::RecordedSend>> records_;
  std::vector<WaveLane> lanes_;
};

/// Drives one convergecast wave. Ops is the per-wave protocol logic:
///
///   WaveSend Process(int v, WaveLane& lane);  // fold v's subtree state
///   void OnLost(int v);                       // clear v's state on a lost
///                                             // uplink (policy runs only)
///
/// Process(v) runs after every child of v has been processed and computes
/// v's merged state into a slot indexed by v (disjoint across vertices, so
/// parts need no locking); its WaveSend describes v's uplink. The engine
/// owns traversal order, send accounting, and NoteConvergecast; Ops must
/// not touch the Network beyond const topology reads.
template <typename Ops>
void RunConvergecastWave(Network* net, Ops&& ops) {
  net->NoteConvergecast();
  const SpanningTree& tree = net->tree();
  const auto process_live = [&](int v, WaveLane& lane) {
    const WaveSend send = ops.Process(v, lane);
    if (net->is_root(v) || send.payload_bits < 0) return;
    if (send.value_count > 0) net->CountValues(send.value_count);
    if (!net->SendToParent(v, send.payload_bits)) ops.OnLost(v);
  };

  WaveExecutor* ex = net->wave_executor();
  if (ex == nullptr || net->transport_policy() != nullptr) {
    // Serial loop: --subtree-parallel off, or a TransportPolicy whose send
    // outcomes may depend on per-link state, which rules out deferred replay.
    WaveLane lane;
    for (int v : tree.post_order) process_live(v, lane);
    return;
  }

  // Reliable medium: parts compute in parallel and record their sends.
  const SubtreeCut& cut = ex->CutFor(*net);
  auto& records = ex->Records(cut.parts.size());
  auto& lanes = ex->Lanes(cut.parts.size());
  const Status status = ex->pool()->ParallelFor(
      static_cast<int64_t>(cut.parts.size()), [&](int64_t p) {
        const SubtreeCut::Part& part = cut.parts[static_cast<size_t>(p)];
        auto& rec = records[static_cast<size_t>(p)];
        rec.clear();
        WaveLane& lane = lanes[static_cast<size_t>(p)];
        for (size_t i = part.begin; i < part.end; ++i) {
          const int v = tree.post_order[i];
          const WaveSend send = ops.Process(v, lane);
          if (send.payload_bits >= 0) {
            rec.push_back({v, send.payload_bits, send.value_count});
          }
        }
        return Status::Ok();
      });
  WSNQ_CHECK(status.ok());

  // Serial fold: replay the recorded sends and process the fold vertices,
  // in post order — the identical accounting sequence as the serial loop.
  WaveLane fold_lane;
  for (const SubtreeCut::Step& step : cut.steps) {
    if (step.part >= 0) {
      for (const wave_internal::RecordedSend& r :
           records[static_cast<size_t>(step.part)]) {
        if (r.value_count > 0) net->CountValues(r.value_count);
        const bool delivered = net->SendToParent(r.vertex, r.payload_bits);
        WSNQ_DCHECK(delivered);  // reliable medium
        (void)delivered;
      }
    } else {
      process_live(step.vertex, fold_lane);
    }
  }
}

}  // namespace wsnq

#endif  // WSNQ_NET_WAVE_H_
