#include "fault/fault_plan.h"

#include <memory>
#include <utility>
#include <vector>

#include "net/spanning_tree.h"
#include "util/check.h"
#include "util/trace.h"

namespace wsnq {

FaultPlan::FaultPlan(const FaultConfig& config, uint64_t seed, int64_t run,
                     int num_vertices, int root,
                     ParentSelection tree_selection, uint64_t tree_salt)
    : config_(config),
      num_vertices_(num_vertices),
      root_(root),
      tree_selection_(tree_selection),
      tree_salt_(tree_salt),
      links_(config.loss_model, config.loss, config.burst_len, seed, run,
             num_vertices),
      churn_(config.crash_nodes, config.crash_round, config.crash_len, seed,
             run, num_vertices, root) {
  frame_oracle_ = &links_;
  last_alive_.assign(static_cast<size_t>(num_vertices), 1);
}

FaultPlan::FaultPlan(const FaultConfig& config, uint64_t seed, int64_t run,
                     int num_vertices, int root,
                     ParentSelection tree_selection, uint64_t tree_salt,
                     std::unique_ptr<FrameLossOracle> scripted,
                     const std::vector<int>& crash_victims)
    : config_(config),
      num_vertices_(num_vertices),
      root_(root),
      tree_selection_(tree_selection),
      tree_salt_(tree_salt),
      links_(config.loss_model, config.loss, config.burst_len, seed, run,
             num_vertices),
      scripted_(std::move(scripted)),
      churn_(crash_victims, config.crash_round, config.crash_len,
             num_vertices, root) {
  WSNQ_CHECK(scripted_ != nullptr);
  frame_oracle_ = scripted_.get();
  last_alive_.assign(static_cast<size_t>(num_vertices), 1);
}

void FaultPlan::OnReset() {
  frame_oracle_->Reset();
  clock_ = 0;
  round_ = 0;
  last_alive_.assign(static_cast<size_t>(num_vertices_), 1);
}

bool FaultPlan::IsDown(int v) const { return churn_.IsDown(v, round_); }

void FaultPlan::OnRoundStart(int64_t round, Network* net) {
  round_ = round;
  if (churn_.victims().empty()) return;

  // Diff liveness against the previous round; only transitions cost work.
  std::vector<char> alive(static_cast<size_t>(num_vertices_), 1);
  bool changed = false;
  for (int v : churn_.victims()) {
    alive[static_cast<size_t>(v)] = churn_.IsDown(v, round) ? 0 : 1;
    if (alive[static_cast<size_t>(v)] != last_alive_[static_cast<size_t>(v)])
      changed = true;
  }
  if (!changed) return;

  for (int v : churn_.victims()) {
    const char now = alive[static_cast<size_t>(v)];
    if (now == last_alive_[static_cast<size_t>(v)]) continue;
    if (now == 0) {
      WSNQ_TRACE_EVENT("fault", "crash", v, {"until", churn_.recover_round()});
    } else {
      WSNQ_TRACE_EVENT("fault", "recover", v, {"down_since",
                                               churn_.crash_round()});
    }
  }
  last_alive_ = alive;

  if (!config_.repair) return;
  // Rebuild the live routing tree under the run's own policy and salt and
  // hand it to the network; the epoch bump makes every stateful protocol
  // re-validate instead of silently miscounting over a stale topology. The
  // plan works in labels throughout: the graph's, the victims', and those
  // of the network's current parents.
  SpanningTree repaired = BuildLiveRoutingTree(net->graph(), root_, alive,
                                               tree_selection_, tree_salt_);
  const std::vector<int>& old_parent = net->tree().parent;
  bool moved = false;
  for (int v = 0; v < num_vertices_; ++v) {
    const int old_vertex =
        old_parent[static_cast<size_t>(net->vertex_of(v))];
    const int old = old_vertex < 0 ? -1 : net->label(old_vertex);
    if (repaired.parent[static_cast<size_t>(v)] != old) {
      WSNQ_TRACE_EVENT("fault", "repair", v,
                       {"parent", repaired.parent[static_cast<size_t>(v)]},
                       {"old_parent", old});
      moved = true;
    }
  }
  if (moved) net->AdoptTree(std::move(repaired));
}

TransportPolicy::UplinkOutcome FaultPlan::Uplink(int src, int dst) {
  WSNQ_DCHECK(!IsDown(src));  // the network gates crashed senders
  const UplinkOutcome outcome = RunStopAndWait(
      config_.arq, frame_oracle_, src, dst, IsDown(dst), &clock_);
  WSNQ_DCHECK_LE(outcome.data_frames - 1, config_.arq.max_retx);
  return outcome;
}

}  // namespace wsnq
