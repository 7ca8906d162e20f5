// Subtree-parallel convergecast engine. A convergecast wave is a fold over
// the routing tree's post order; every subtree of that order is a contiguous
// segment, so the wave splits into independent parts at a cut through the
// tree. The engine runs each part as a ThreadPool task that computes protocol
// state into disjoint per-vertex slots and does the part's own accounting:
// sender and in-part parent energy, packet and value counts. A part is made
// of whole subtrees, so every vertex in it is either a part top, whose
// parent is a fold vertex (the root or a split interior vertex), or has its
// parent in the same part; each vertex's debits thus land in the order the
// serial loop gives them. The calling thread then folds in post order: it
// processes the fold vertices live, debits each part top's send to its
// fold-vertex parent, adds the part's counts, and — only when a trace
// buffer or SendObserver is installed — emits the part's trace events and
// callbacks from its records. Every energy bit, counter, trace byte, and
// callback therefore equals the classic serial loop's — the slot+ordered-
// fold discipline of docs/hardening.md, applied inside a run.
// Network::FloodFromRoot uses the same cut for floods.
//
// Accounting inside parts is sound only on the reliable medium, where
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
#include "util/trace.h"

namespace wsnq {

/// A partition of the routing tree's post order: `parts` are contiguous
/// index ranges of whole subtrees, `steps` is the serial fold program that
/// interleaves part folds with live fold-vertex processing so that the
/// concatenation of all steps visits every post-order position exactly once,
/// in post order. Deterministic function of (tree, target_parts).
struct SubtreeCut {
  struct Part {
    size_t begin = 0;  ///< first post_order index of the part
    size_t end = 0;    ///< one past the last post_order index
  };
  /// Exactly one of the two fields is active: part >= 0 folds that part,
  /// otherwise `vertex` is processed live on the calling thread.
  struct Step {
    int part = -1;
    int vertex = -1;
  };
  std::vector<Part> parts;
  std::vector<Step> steps;
  /// Per vertex id: 1 for fold vertices (the `vertex` of some step), 0
  /// otherwise. A part top is exactly a part vertex whose parent is marked.
  std::vector<char> fold;
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

/// One part's accounting left for the serial fold, reused across waves (a
/// flood uses only `packets`).
struct PartLedger {
  /// A part top's uplink: the receive debit its fold-vertex parent owes.
  struct TopSend {
    int parent = -1;
    int64_t wire_bits = 0;
  };
  /// A part's uplink in post order, kept only while sends are reported.
  struct RecordedSend {
    int vertex = -1;
    int64_t payload_bits = 0;
  };
  std::vector<TopSend> top_sends;
  std::vector<RecordedSend> sends;
  int64_t packets = 0;
  int64_t values = 0;
};

/// The calling thread's lane for serial-loop waves, kept across waves (and
/// across networks) so its merge scratch grows once per thread.
WaveLane& SerialLane();

}  // namespace wave_internal

/// What one processed vertex wants to transmit. payload_bits < 0 means no
/// uplink (the classic loops' "empty aggregate" case); value_count > 0
/// additionally tallies protocol-level values via Network::CountValues.
struct WaveSend {
  int64_t payload_bits = -1;
  int64_t value_count = 0;
};

/// Runs convergecast waves (and Network::FloodFromRoot) over a cached
/// SubtreeCut. Owns the pool the parts fan out on, plus the per-part
/// ledgers and merge lanes and the fold's lane, reused across waves. One
/// executor serves one Network at a time; install it with
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

  /// Per-part ledgers / merge lanes, resized for `parts` parts. Capacity
  /// persists across waves.
  std::vector<wave_internal::PartLedger>& Ledgers(size_t parts) {
    if (ledgers_.size() < parts) ledgers_.resize(parts);
    return ledgers_;
  }
  std::vector<WaveLane>& Lanes(size_t parts) {
    if (lanes_.size() < parts) lanes_.resize(parts);
    return lanes_;
  }
  /// The lane of the fold vertices, processed on the calling thread.
  WaveLane& FoldLane() { return fold_lane_; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int target_parts_;
  int64_t epoch_ = -1;
  size_t order_size_ = 0;
  SubtreeCut cut_;
  std::vector<wave_internal::PartLedger> ledgers_;
  std::vector<WaveLane> lanes_;
  WaveLane fold_lane_;
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
    // outcomes may depend on per-link state, which rules out accounting a
    // part ahead of the rest of the wave.
    WaveLane& lane = wave_internal::SerialLane();
    for (int v : tree.post_order) process_live(v, lane);
    return;
  }

  // Reliable medium: parts compute and account in parallel. A send's
  // receive debit stays in the part unless the parent is a fold vertex.
  const SubtreeCut& cut = ex->CutFor(*net);
  auto& ledgers = ex->Ledgers(cut.parts.size());
  auto& lanes = ex->Lanes(cut.parts.size());
  const Packetizer& packetizer = net->packetizer();
  const bool reporting = net->reporting();
  {
    prof::ScopedTimer timer("net/wave_parts");
    const Status status = ex->pool()->ParallelFor(
        static_cast<int64_t>(cut.parts.size()), [&](int64_t p) {
          const SubtreeCut::Part& part = cut.parts[static_cast<size_t>(p)];
          wave_internal::PartLedger& ledger = ledgers[static_cast<size_t>(p)];
          ledger.top_sends.clear();
          ledger.sends.clear();
          ledger.packets = 0;
          ledger.values = 0;
          WaveLane& lane = lanes[static_cast<size_t>(p)];
          for (size_t i = part.begin; i < part.end; ++i) {
            const int v = tree.post_order[i];
            const WaveSend send = ops.Process(v, lane);
            if (send.payload_bits < 0) continue;
            const PacketizedMessage msg =
                packetizer.Packetize(send.payload_bits);
            net->DebitSend(v, msg.total_bits);
            const int parent = tree.parent[static_cast<size_t>(v)];
            if (cut.fold[static_cast<size_t>(parent)] != 0) {
              ledger.top_sends.push_back({parent, msg.total_bits});
            } else {
              net->DebitRecv(parent, msg.total_bits);
            }
            ledger.packets += msg.packets;
            if (send.value_count > 0) ledger.values += send.value_count;
            if (reporting) ledger.sends.push_back({v, send.payload_bits});
          }
          return Status::Ok();
        });
    WSNQ_CHECK(status.ok());
  }

  // Serial fold in post order: each part's counts and fold-vertex receive
  // debits at its step, the fold vertices live at theirs.
  prof::ScopedTimer timer("net/wave_fold");
  WaveLane& fold_lane = ex->FoldLane();
  for (const SubtreeCut::Step& step : cut.steps) {
    if (step.part < 0) {
      process_live(step.vertex, fold_lane);
      continue;
    }
    const wave_internal::PartLedger& ledger =
        ledgers[static_cast<size_t>(step.part)];
    net->AddPackets(ledger.packets);
    net->CountValues(ledger.values);
    for (const wave_internal::PartLedger::TopSend& top : ledger.top_sends) {
      net->DebitRecv(top.parent, top.wire_bits);
    }
    for (const wave_internal::PartLedger::RecordedSend& r : ledger.sends) {
      net->ReportUplink(r.vertex, r.payload_bits,
                        packetizer.Packetize(r.payload_bits));
    }
  }
}

}  // namespace wsnq

#endif  // WSNQ_NET_WAVE_H_
