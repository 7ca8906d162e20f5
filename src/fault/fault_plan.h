// The composable fault plan: link loss + node churn + ARQ + tree repair,
// assembled into the TransportPolicy a Network consults for every uplink.
// Replaces the legacy EnableUplinkLoss Bernoulli stub ("§6 future work")
// with fully deterministic, counter-based fault injection: every decision
// is keyed by (seed, run, round/tick, src, dst), so aggregates, traces,
// and metrics are bit-identical for every --threads value. See
// docs/robustness.md for the model semantics and exactness guarantees.

#ifndef WSNQ_FAULT_FAULT_PLAN_H_
#define WSNQ_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/arq.h"
#include "fault/link_models.h"
#include "fault/node_churn.h"
#include "net/network.h"
#include "net/spanning_tree.h"

namespace wsnq {

/// Everything a scenario needs to know about injected faults; lives in
/// SimulationConfig as `fault` and maps 1:1 onto the CLI fault flags.
struct FaultConfig {
  /// Frame loss probability in [0, 1] on every uplink/ack channel. 0 keeps
  /// the paper's reliable-link assumption.
  double loss = 0.0;
  LossModel loss_model = LossModel::kIid;
  /// Mean Bad-state sojourn in frames (Gilbert–Elliott only).
  double burst_len = 4.0;

  /// Number of non-root nodes that crash (0 = no churn).
  int crash_nodes = 0;
  /// Round the victims go down.
  int64_t crash_round = 5;
  /// Rounds they stay down; <= 0 means they never recover.
  int64_t crash_len = 0;

  /// Rebuild the routing tree over the live vertices on every churn
  /// transition, with the run's own parent-selection policy; protocols
  /// observe the tree-epoch bump and re-validate.
  bool repair = true;

  ArqConfig arq;

  bool enabled() const { return loss > 0.0 || crash_nodes > 0; }
};

/// One run's fault injection, bound to a Network as its transport policy.
/// Owns the logical-tick clock the link chains and ARQ timeouts advance
/// on; OnReset rewinds everything so the compared protocols of one run
/// replay the identical fault sequence. Tree repair rebuilds with
/// `tree_selection` and `tree_salt`, the policy and salt the run's routing
/// tree was built with, so a fully recovered network holds its own tree.
class FaultPlan : public TransportPolicy {
 public:
  FaultPlan(const FaultConfig& config, uint64_t seed, int64_t run,
            int num_vertices, int root, ParentSelection tree_selection,
            uint64_t tree_salt);

  /// Scripted-mode plan for the model checker: frame-loss verdicts come
  /// from `scripted` (owned — it must outlive every later OnReset on the
  /// Network, so the plan keeps it) instead of the hashed LinkLossProcess,
  /// and the crash victims are the explicit `crash_victims` rather than a
  /// keyed draw. `config.crash_round`/`crash_len` still set the window.
  FaultPlan(const FaultConfig& config, uint64_t seed, int64_t run,
            int num_vertices, int root, ParentSelection tree_selection,
            uint64_t tree_salt, std::unique_ptr<FrameLossOracle> scripted,
            const std::vector<int>& crash_victims);

  void OnRoundStart(int64_t round, Network* net) override;
  void OnReset() override;
  /// Faults are live, so delivery is never guaranteed (ARQ's retry budget
  /// is bounded); protocols must keep their lossy-mode fallbacks on. A
  /// scripted plan is never "reliable" — its schedule drops frames even
  /// though config_.loss is 0.
  bool reliable() const override {
    return scripted_ == nullptr && !config_.enabled();
  }
  bool IsDown(int v) const override;
  int64_t AckPayloadBits() const override {
    return config_.arq.ack_payload_bits;
  }
  UplinkOutcome Uplink(int src, int dst) override;

  const FaultConfig& config() const { return config_; }
  int64_t clock() const { return clock_; }

 private:
  FaultConfig config_;
  int num_vertices_;
  int root_;
  ParentSelection tree_selection_;
  uint64_t tree_salt_;
  LinkLossProcess links_;
  /// Non-null in scripted (model-checking) mode; then frame_oracle_ points
  /// here instead of at links_.
  std::unique_ptr<FrameLossOracle> scripted_;
  FrameLossOracle* frame_oracle_ = nullptr;
  NodeChurn churn_;
  int64_t round_ = 0;
  int64_t clock_ = 0;
  /// Liveness snapshot of the previous round, to detect churn transitions
  /// (all-alive before round 0, matching the pristine tree).
  std::vector<char> last_alive_;
};

}  // namespace wsnq

#endif  // WSNQ_FAULT_FAULT_PLAN_H_
