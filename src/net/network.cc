#include "net/network.h"

#include <algorithm>
#include <utility>

#include "net/wave.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace wsnq {

Network::Network(RadioGraph graph, SpanningTree tree, EnergyModel energy,
                 Packetizer packetizer)
    : Network(std::make_shared<const RadioGraph>(std::move(graph)),
              std::move(tree), energy, packetizer) {}

Network::Network(std::shared_ptr<const RadioGraph> graph, SpanningTree tree,
                 EnergyModel energy, Packetizer packetizer)
    : graph_(std::move(graph)),
      tree_(std::move(tree)),
      energy_(energy),
      packetizer_(packetizer) {
  WSNQ_CHECK(graph_ != nullptr);
  send_mj_per_bit_ = energy_.SendCostPerBit(graph_->rho());
  WSNQ_CHECK_EQ(graph_->size(), tree_.size());
  round_energy_.assign(static_cast<size_t>(graph_->size()), 0.0);
  total_energy_.assign(static_cast<size_t>(graph_->size()), 0.0);
}

StatusOr<Network> Network::Create(RadioGraph graph, int root,
                                  EnergyModel energy, Packetizer packetizer) {
  StatusOr<SpanningTree> tree = BuildShortestPathTree(graph, root);
  if (!tree.ok()) return tree.status();
  return Network(std::move(graph), std::move(tree).value(), energy,
                 packetizer);
}

void Network::set_transport_policy(std::unique_ptr<TransportPolicy> policy) {
  policy_ = std::move(policy);
  if (policy_ != nullptr) pristine_tree_ = tree_;
}

void Network::AdoptTree(SpanningTree tree) {
  WSNQ_CHECK_EQ(tree.size(), tree_.size());
  WSNQ_CHECK_EQ(tree.root, tree_.root);
  for (int v = 0; v < tree.size(); ++v) {
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent < 0) continue;  // the root, or a detached vertex
    // Acyclic by construction: every attached parent sits one level up.
    WSNQ_DCHECK_EQ(tree.depth[static_cast<size_t>(parent)],
                   tree.depth[static_cast<size_t>(v)] - 1);
  }
  tree_ = std::move(tree);
  ++tree_epoch_;
}

bool Network::SendToParent(int v, int64_t payload_bits) {
  if (is_root(v)) return true;
  const int parent = tree_.parent[static_cast<size_t>(v)];
  const PacketizedMessage msg = packetizer_.Packetize(payload_bits);

  if (policy_ == nullptr) {
    // The paper's reliable medium: one frame, always delivered.
    DebitSend(v, msg.total_bits);
    AddPackets(msg.packets);
    ReportUplink(v, payload_bits, msg);
    DebitRecv(parent, msg.total_bits);
    return true;
  }

  // A crashed node runs no protocol code this round, and a detached one
  // (unreachable after churn without repair to save it) has nobody to talk
  // to: neither transmits, so neither pays.
  if (policy_->IsDown(v) || parent < 0) return false;

  const TransportPolicy::UplinkOutcome o = policy_->Uplink(v, parent);
  WSNQ_DCHECK_GE(o.data_frames, 1);
  WSNQ_DCHECK_LE(o.data_frames_received, o.data_frames);
  // No ack exists for a data frame the parent never received.
  WSNQ_DCHECK_LE(o.ack_frames, o.data_frames_received);
  WSNQ_DCHECK_LE(o.ack_frames_received, o.ack_frames);
  WSNQ_DCHECK_EQ(o.delivered ? 1 : 0, o.data_frames_received > 0 ? 1 : 0);

  const PacketizedMessage ack =
      packetizer_.Packetize(policy_->AckPayloadBits());
  // The sender pays for every data frame it put on the air (lost or not)
  // plus reception of every ack it heard; the parent pays for every data
  // frame it heard plus every ack it sent. A crashed parent hears and
  // sends nothing, so its counts are zero and it is debited nothing.
  Debit(v, static_cast<double>(o.data_frames) *
                   (static_cast<double>(msg.total_bits) * send_mj_per_bit_) +
               static_cast<double>(o.ack_frames_received) *
                   energy_.RecvCost(ack.total_bits));
  Debit(parent, static_cast<double>(o.data_frames_received) *
                        energy_.RecvCost(msg.total_bits) +
                    static_cast<double>(o.ack_frames) *
                        (static_cast<double>(ack.total_bits) *
                         send_mj_per_bit_));
  const int64_t air_packets =
      static_cast<int64_t>(o.data_frames) * msg.packets +
      static_cast<int64_t>(o.ack_frames) * ack.packets;
  round_packets_ += air_packets;
  total_packets_ += air_packets;

  WSNQ_TRACE_EVENT("net", "uplink", v, {"bits", payload_bits},
                   {"packets", msg.packets}, {"lost", o.delivered ? 0 : 1});
  const int dropped = o.data_frames - o.data_frames_received;
  if (dropped > 0) {
    WSNQ_TRACE_EVENT("fault", "drop", v, {"frames", dropped});
  }
  if (o.data_frames > 1) {
    WSNQ_TRACE_EVENT("fault", "retx", v, {"count", o.data_frames - 1},
                     {"ticks", o.ticks});
  }
  if (o.ack_frames > 0) {
    WSNQ_TRACE_EVENT("fault", "ack", parent, {"count", o.ack_frames},
                     {"heard", o.ack_frames_received});
  }
  if (observer_ != nullptr) {
    SendObserver::SendInfo info;
    info.kind = SendObserver::SendKind::kUplink;
    info.sender = v;
    info.payload_bits = payload_bits;
    info.wire_bits = msg.total_bits;
    info.packets = msg.packets;
    info.delivered = o.delivered;
    info.data_frames = o.data_frames;
    info.ack_frames = o.ack_frames;
    info.ticks = o.ticks;
    observer_->OnSend(info);
  }
  return o.delivered;
}

bool Network::reporting() const {
  return observer_ != nullptr || trace::Current() != nullptr;
}

void Network::ReportUplink(int v, int64_t payload_bits,
                           const PacketizedMessage& msg) {
  WSNQ_TRACE_EVENT("net", "uplink", v, {"bits", payload_bits},
                   {"packets", msg.packets}, {"lost", 0});
  if (observer_ != nullptr) {
    SendObserver::SendInfo info;
    info.kind = SendObserver::SendKind::kUplink;
    info.sender = v;
    info.payload_bits = payload_bits;
    info.wire_bits = msg.total_bits;
    info.packets = msg.packets;
    observer_->OnSend(info);
  }
}

void Network::ReportBroadcast(int v, int64_t payload_bits,
                              const PacketizedMessage& msg) {
  WSNQ_TRACE_EVENT(
      "net", "broadcast", v, {"bits", payload_bits}, {"packets", msg.packets},
      {"children",
       static_cast<int64_t>(tree_.children[static_cast<size_t>(v)].size())});
  if (observer_ != nullptr) {
    SendObserver::SendInfo info;
    info.kind = SendObserver::SendKind::kBroadcast;
    info.sender = v;
    info.payload_bits = payload_bits;
    info.wire_bits = msg.total_bits;
    info.packets = msg.packets;
    observer_->OnSend(info);
  }
}

// Defined inline ahead of its two callers so FloodFromRoot's per-vertex
// loop compiles without a call per vertex.
inline void Network::Broadcast(int v, int64_t payload_bits,
                               const PacketizedMessage& msg,
                               double send_cost, double recv_cost) {
  const auto& kids = tree_.children[static_cast<size_t>(v)];
  if (kids.empty()) return;
  if (policy_ != nullptr && policy_->IsDown(v)) return;
  Debit(v, send_cost);
  for (int child : kids) {
    // Crashed children don't hear (or pay for) the beacon.
    if (policy_ != nullptr && policy_->IsDown(child)) continue;
    Debit(child, recv_cost);
  }
  AddPackets(msg.packets);
  ReportBroadcast(v, payload_bits, msg);
}

void Network::BroadcastToChildren(int v, int64_t payload_bits) {
  const PacketizedMessage msg = packetizer_.Packetize(payload_bits);
  Broadcast(v, payload_bits, msg,
            static_cast<double>(msg.total_bits) * send_mj_per_bit_,
            energy_.RecvCost(msg.total_bits));
}

void Network::FloodFromRoot(int64_t payload_bits) {
  prof::ScopedTimer timer("net/flood");
  ++round_floods_;
  ++total_floods_;
  WSNQ_TRACE_SCOPE("net", "flood", -1, {"bits", payload_bits});
  // Every broadcast of a flood carries the same payload, so the packetize
  // and energy math is computed once for the whole flood.
  const PacketizedMessage msg = packetizer_.Packetize(payload_bits);
  const double send_cost =
      static_cast<double>(msg.total_bits) * send_mj_per_bit_;
  const double recv_cost = energy_.RecvCost(msg.total_bits);
  if (wave_executor_ == nullptr || policy_ != nullptr) {
    for (int v : tree_.pre_order) {
      Broadcast(v, payload_bits, msg, send_cost, recv_cost);
    }
    return;
  }
  AddPackets(DebitFloodOverCut(msg, send_cost, recv_cost));
  if (!reporting()) return;
  for (int v : tree_.pre_order) {
    if (!tree_.children[static_cast<size_t>(v)].empty()) {
      ReportBroadcast(v, payload_bits, msg);
    }
  }
}

int64_t Network::DebitFloodOverCut(const PacketizedMessage& msg,
                                   double send_cost, double recv_cost) {
  // Every vertex hears its parent once and then (unless a leaf) transmits
  // once, so its two debits land in the serial pre-order sequence as long
  // as each parent broadcasts before its children. The fold vertices go
  // first, in reverse step order (a fold vertex's step follows every step
  // of its subtree); that also gives every part top its parent's debit.
  // Each part then walks its post-order range backwards, which again puts
  // every parent ahead of its children, and touches only its own
  // vertices' slots.
  const SubtreeCut& cut = wave_executor_->CutFor(*this);
  int64_t packets = 0;
  for (auto step = cut.steps.rbegin(); step != cut.steps.rend(); ++step) {
    if (step->part < 0 && DebitBroadcast(step->vertex, send_cost, recv_cost)) {
      packets += msg.packets;
    }
  }
  auto& ledgers = wave_executor_->Ledgers(cut.parts.size());
  const Status status = wave_executor_->pool()->ParallelFor(
      static_cast<int64_t>(cut.parts.size()), [&](int64_t p) {
        const SubtreeCut::Part& part = cut.parts[static_cast<size_t>(p)];
        int64_t part_packets = 0;
        for (size_t i = part.end; i-- > part.begin;) {
          if (DebitBroadcast(tree_.post_order[i], send_cost, recv_cost)) {
            part_packets += msg.packets;
          }
        }
        ledgers[static_cast<size_t>(p)].packets = part_packets;
        return Status::Ok();
      });
  WSNQ_CHECK(status.ok());
  for (size_t p = 0; p < cut.parts.size(); ++p) packets += ledgers[p].packets;
  return packets;
}

void Network::ResetAccounting() {
  std::fill(total_energy_.begin(), total_energy_.end(), 0.0);
  total_packets_ = 0;
  total_values_ = 0;
  total_floods_ = 0;
  total_convergecasts_ = 0;
  ClearRoundCounters();
  current_round_ = -1;
  if (policy_ != nullptr) {
    policy_->OnReset();  // deterministic fault replay per protocol
    if (tree_epoch_ != 0) {
      tree_ = pristine_tree_;
      tree_epoch_ = 0;
    }
  }
}

void Network::BeginRound() {
  ClearRoundCounters();
  ++current_round_;
  if (policy_ != nullptr) policy_->OnRoundStart(current_round_, this);
}

void Network::ClearRoundCounters() {
  std::fill(round_energy_.begin(), round_energy_.end(), 0.0);
  round_packets_ = 0;
  round_values_ = 0;
  round_floods_ = 0;
  round_convergecasts_ = 0;
}

double Network::MaxRoundEnergyOverSensors() const {
  double best = 0.0;
  for (int v = 0; v < num_vertices(); ++v) {
    if (is_root(v)) continue;
    best = std::max(best, round_energy_[static_cast<size_t>(v)]);
  }
  return best;
}

double Network::MaxTotalEnergyOverSensors() const {
  double best = 0.0;
  for (int v = 0; v < num_vertices(); ++v) {
    if (is_root(v)) continue;
    best = std::max(best, total_energy_[static_cast<size_t>(v)]);
  }
  return best;
}

}  // namespace wsnq
