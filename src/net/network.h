// The simulated network: topology (radio graph + routing tree) plus per-node
// energy, message, and value accounting. Quantile protocols never touch the
// energy model directly; they express all communication through the three
// primitives below, which debit senders and receivers per §5.1.4:
//
//   SendToParent(v, bits)        one unicast up the tree (convergecast step);
//   BroadcastToChildren(v, bits) one radio transmission heard by all
//                                children (local broadcast);
//   FloodFromRoot(bits)          a full-tree broadcast: the root and every
//                                internal node transmit once, every non-root
//                                node receives once.
//
// Large payloads are fragmented by the Packetizer; every fragment pays the
// message header again. Vertex 0 convention: the root is an ordinary vertex
// id chosen at construction; use is_root()/root().
//
// Faults are pluggable: a TransportPolicy (implemented by fault/FaultPlan)
// decides delivery, retransmission counts, and node liveness per uplink;
// without one installed the network is the paper's reliable medium.

#ifndef WSNQ_NET_NETWORK_H_
#define WSNQ_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/energy_model.h"
#include "net/packetizer.h"
#include "net/radio_graph.h"
#include "net/spanning_tree.h"
#include "util/status.h"

namespace wsnq {

class Network;
class WaveExecutor;

/// Observer of every physical transmission a Network performs. Lives in
/// net/ so the layering stays acyclic (net cannot include core); the
/// metrics-collecting implementation is in core/simulation.cc. Callbacks
/// run synchronously on the simulating thread — implementations need no
/// locking but must be cheap.
class SendObserver {
 public:
  enum class SendKind {
    kUplink,     ///< SendToParent: one unicast up the tree
    kBroadcast,  ///< BroadcastToChildren (flood waves included)
  };

  /// One Send*/Broadcast* call. `packets`/`wire_bits` describe a single
  /// data frame after packetization; under ARQ the frame may go on the air
  /// `data_frames` times (retransmissions = data_frames - 1), answered by
  /// `ack_frames` control frames, over `ticks` of logical airtime. On the
  /// reliable medium data_frames == 1 and ack_frames == 0.
  struct SendInfo {
    SendKind kind = SendKind::kUplink;
    int sender = -1;
    int64_t payload_bits = 0;
    int64_t wire_bits = 0;  ///< on-air bits of one data frame
    int64_t packets = 0;    ///< fragments of one data frame
    bool delivered = true;
    int data_frames = 1;
    int ack_frames = 0;
    int64_t ticks = 0;
  };

  virtual ~SendObserver() = default;

  virtual void OnSend(const SendInfo& info) = 0;
};

/// Per-uplink fault/reliability decisions, consulted by Network for every
/// SendToParent. Lives in net/ for the same layering reason as
/// SendObserver: the implementation (fault/FaultPlan — loss models, churn,
/// ARQ, tree repair) is in src/fault/, which links against net.
class TransportPolicy {
 public:
  /// What one uplink exchange did, for energy and packet accounting. The
  /// counts must satisfy: data_frames >= 1, received counts bounded by
  /// sent counts, no ack without a received data frame, and delivered
  /// exactly when data_frames_received > 0 (DCHECK-enforced by Network).
  struct UplinkOutcome {
    bool delivered = true;
    int data_frames = 1;
    int data_frames_received = 1;
    int ack_frames = 0;
    int ack_frames_received = 0;
    int64_t ticks = 0;
  };

  virtual ~TransportPolicy() = default;

  /// Called once per round before any traffic; may mutate `net` (tree
  /// repair via Network::AdoptTree).
  virtual void OnRoundStart(int64_t round, Network* net) = 0;
  /// Rewinds all fault state so a protocol replay over the same Network
  /// observes the identical fault sequence.
  virtual void OnReset() = 0;
  /// True when delivery is guaranteed; false keeps Network::lossy() true
  /// so protocols retain their best-effort fallbacks.
  virtual bool reliable() const = 0;
  /// True when `v` is crashed this round: it neither sends nor receives.
  virtual bool IsDown(int v) const = 0;
  /// Payload bits of one ack control frame (0 = header-only).
  virtual int64_t AckPayloadBits() const = 0;
  /// Runs one uplink exchange src -> dst (src alive, dst = src's parent).
  virtual UplinkOutcome Uplink(int src, int dst) = 0;
};

/// Topology + accounting context shared by all protocols in one run.
class Network {
 public:
  Network(RadioGraph graph, SpanningTree tree, EnergyModel energy,
          Packetizer packetizer);

  /// Shares an immutable radio graph with other runs / sweep points
  /// (core/scenario_cache.h): the graph is const for the Network's whole
  /// lifetime, so concurrent runs may alias one RadioGraph safely.
  Network(std::shared_ptr<const RadioGraph> graph, SpanningTree tree,
          EnergyModel energy, Packetizer packetizer);

  // Not copyable (accounting identity), movable.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Convenience factory: builds the SPT of `graph` rooted at `root`.
  static StatusOr<Network> Create(RadioGraph graph, int root,
                                  EnergyModel energy, Packetizer packetizer);

  // --- Topology -----------------------------------------------------------

  /// All vertices including the root.
  int num_vertices() const { return graph_->size(); }
  /// |N|: measurement-taking nodes (everything but the root).
  int num_sensors() const { return graph_->size() - 1; }
  int root() const { return tree_.root; }
  bool is_root(int v) const { return v == tree_.root; }
  const SpanningTree& tree() const { return tree_; }
  const RadioGraph& graph() const { return *graph_; }
  const Packetizer& packetizer() const { return packetizer_; }
  const EnergyModel& energy_model() const { return energy_; }

  /// Replaces the routing tree (BuildLiveRoutingTree after node churn) and
  /// bumps the tree epoch. Stateful protocols compare the epoch against
  /// the one they initialized under and re-validate on mismatch instead of
  /// silently miscounting over a stale topology. ResetAccounting restores
  /// the pristine tree (and epoch 0) for the next protocol's replay.
  void AdoptTree(SpanningTree tree);
  int64_t tree_epoch() const { return tree_epoch_; }

  // --- Fault injection (src/fault/) ----------------------------------------

  /// Installs the transport policy consulted for every uplink (owned;
  /// nullptr restores the reliable medium). Installing snapshots the
  /// current tree so ResetAccounting can undo repairs.
  void set_transport_policy(std::unique_ptr<TransportPolicy> policy);
  TransportPolicy* transport_policy() { return policy_.get(); }

  /// True when message delivery is not guaranteed; protocols use this to
  /// swap hard invariant checks for best-effort fallbacks.
  bool lossy() const { return policy_ != nullptr && !policy_->reliable(); }

  // --- Communication primitives (all accounting goes through these) -------

  /// Unicast `payload_bits` from `v` to its parent. No-op for the root.
  /// Returns true iff the message was delivered; on false the caller must
  /// not merge the payload into the parent's state. A crashed or detached
  /// sender transmits nothing (returns false at zero cost).
  bool SendToParent(int v, int64_t payload_bits);

  /// One local broadcast from `v` received by all of its live children.
  /// No-op for leaves and crashed senders.
  void BroadcastToChildren(int v, int64_t payload_bits);

  /// Disseminates `payload_bits` from the root to every node.
  void FloodFromRoot(int64_t payload_bits);

  /// Registers that a convergecast wave is starting; used (with the flood
  /// count) to convert a round's exchanges into TDMA latency
  /// (net/schedule.h). Every convergecast helper calls this once.
  void NoteConvergecast() {
    ++round_convergecasts_;
    ++total_convergecasts_;
  }

  /// Tallies `count` protocol-level transmitted values (metric of §5.1.5);
  /// does not consume energy by itself (the bits were already accounted).
  void CountValues(int64_t count) {
    round_values_ += count;
    total_values_ += count;
  }

  // --- Subtree-parallel accounting (net/wave.h) ----------------------------
  //
  // A reliable-medium transmission split into its pieces, so pool tasks can
  // account disjoint whole subtrees concurrently. The Debit* helpers write
  // only the energy slots of the vertices they name; the shared counters,
  // trace events and observer callbacks stay on the calling thread.

  /// Transmit energy of one frame of `wire_bits` on-air bits, paid by `v`.
  void DebitSend(int v, int64_t wire_bits) {
    Debit(v, static_cast<double>(wire_bits) * send_mj_per_bit_);
  }
  /// Receive energy of one frame of `wire_bits` on-air bits, paid by `v`.
  void DebitRecv(int v, int64_t wire_bits) {
    Debit(v, energy_.RecvCost(wire_bits));
  }
  /// The debits of one reliable-medium broadcast from `v`: `send_cost` to
  /// `v`, `recv_cost` to each child. Returns false (and debits nothing)
  /// for a leaf, which does not transmit.
  bool DebitBroadcast(int v, double send_cost, double recv_cost) {
    const auto& kids = tree_.children[static_cast<size_t>(v)];
    if (kids.empty()) return false;
    Debit(v, send_cost);
    for (int child : kids) Debit(child, recv_cost);
    return true;
  }
  /// Adds on-air `packets` to the round and lifetime counters. Calling
  /// thread only.
  void AddPackets(int64_t packets) {
    round_packets_ += packets;
    total_packets_ += packets;
  }
  /// True when transmissions must be reported: the calling thread has a
  /// trace buffer current, or a SendObserver is installed.
  bool reporting() const;
  /// The trace event and observer callback of one delivered reliable
  /// uplink / one broadcast, without its accounting. Calling thread only.
  void ReportUplink(int v, int64_t payload_bits, const PacketizedMessage& msg);
  void ReportBroadcast(int v, int64_t payload_bits,
                       const PacketizedMessage& msg);

  /// Registers `observer` (nullptr to detach) for every subsequent
  /// transmission. Not owned; the caller must outlive the registration and
  /// detach before destroying the observer.
  void set_send_observer(SendObserver* observer) { observer_ = observer; }

  /// Registers the subtree-parallel wave executor the convergecast engine
  /// (net/wave.h) fans out on; nullptr (the default) keeps the classic
  /// serial wave loop. Not owned; the executor must outlive the
  /// registration.
  void set_wave_executor(WaveExecutor* executor) { wave_executor_ = executor; }
  WaveExecutor* wave_executor() const { return wave_executor_; }

  // --- Round bookkeeping ---------------------------------------------------

  /// Resets the per-round counters, advances the round index, and gives
  /// the transport policy its per-round hook; call at the start of every
  /// round.
  void BeginRound();

  /// Clears all accounting (per-round and lifetime) and rewinds fault
  /// state — including any repaired tree — to the pristine topology; used
  /// to rerun several protocols over the identical scenario, as the
  /// paper's evaluation does. The next BeginRound is round 0 again.
  void ResetAccounting();

  /// Energy drawn by `v` in the current round [mJ].
  double round_energy(int v) const {
    return round_energy_[static_cast<size_t>(v)];
  }
  /// Lifetime energy drawn by `v` [mJ].
  double total_energy(int v) const {
    return total_energy_[static_cast<size_t>(v)];
  }
  /// Max round energy over sensor nodes (the root's infinite supply makes it
  /// irrelevant for hotspot analysis).
  double MaxRoundEnergyOverSensors() const;
  /// Max lifetime energy over sensor nodes.
  double MaxTotalEnergyOverSensors() const;

  int64_t round_packets() const { return round_packets_; }
  int64_t total_packets() const { return total_packets_; }
  int64_t round_values() const { return round_values_; }
  int64_t total_values() const { return total_values_; }
  int64_t round_floods() const { return round_floods_; }
  int64_t total_floods() const { return total_floods_; }
  int64_t round_convergecasts() const { return round_convergecasts_; }
  int64_t total_convergecasts() const { return total_convergecasts_; }

 private:
  void Debit(int v, double mj) {
    round_energy_[static_cast<size_t>(v)] += mj;
    total_energy_[static_cast<size_t>(v)] += mj;
  }

  /// The body of one BroadcastToChildren, with the frame and its radio
  /// costs computed by the caller (once per flood in FloodFromRoot).
  void Broadcast(int v, int64_t payload_bits, const PacketizedMessage& msg,
                 double send_cost, double recv_cost);

  /// FloodFromRoot's debits over the wave executor's cut (reliable medium
  /// only); returns the flood's on-air packets.
  int64_t DebitFloodOverCut(const PacketizedMessage& msg, double send_cost,
                            double recv_cost);

  void ClearRoundCounters();

  /// Immutable; possibly aliased by other Networks (never null).
  std::shared_ptr<const RadioGraph> graph_;
  SpanningTree tree_;
  EnergyModel energy_;
  Packetizer packetizer_;
  /// energy_.SendCostPerBit(rho), evaluated once: every send costs
  /// wire bits x this, the same product EnergyModel::SendCost forms.
  double send_mj_per_bit_;

  std::unique_ptr<TransportPolicy> policy_;
  SpanningTree pristine_tree_;  ///< snapshot for ResetAccounting (policy only)
  int64_t tree_epoch_ = 0;
  int64_t current_round_ = -1;  ///< BeginRound pre-increments: first round is 0

  SendObserver* observer_ = nullptr;        ///< not owned
  WaveExecutor* wave_executor_ = nullptr;  ///< not owned

  std::vector<double> round_energy_;
  std::vector<double> total_energy_;
  int64_t round_packets_ = 0;
  int64_t total_packets_ = 0;
  int64_t round_values_ = 0;
  int64_t total_values_ = 0;
  int64_t round_floods_ = 0;
  int64_t total_floods_ = 0;
  int64_t round_convergecasts_ = 0;
  int64_t total_convergecasts_ = 0;
};

}  // namespace wsnq

#endif  // WSNQ_NET_NETWORK_H_
