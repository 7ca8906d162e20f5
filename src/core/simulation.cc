#include "core/simulation.h"

#include <algorithm>

#include "algo/oracle.h"
#include "core/metrics_registry.h"
#include "util/check.h"
#include "util/trace.h"

namespace wsnq {
namespace {

/// Routes every Network transmission into a MetricsRegistry: message-kind
/// counters, payload-bit histograms, and per-tree-depth packet counts
/// (net/ cannot include core/, so the implementation lives here).
class MetricsSendObserver : public SendObserver {
 public:
  MetricsSendObserver(const SpanningTree* tree, MetricsRegistry* registry)
      : tree_(tree), registry_(registry) {}

  void OnSend(const SendInfo& info) override {
    const int depth = tree_->depth[static_cast<size_t>(info.sender)];
    if (info.kind == SendKind::kUplink) {
      // Every on-air data frame counts; on the reliable medium
      // data_frames == 1 and these reduce to the classic counters.
      registry_->Inc("uplink_packets", info.packets * info.data_frames);
      registry_->Inc("uplink_messages", 1);
      if (info.delivered) registry_->Inc("uplink_delivered", 1);
      if (!info.delivered) registry_->Inc("uplink_lost", info.packets);
      if (info.data_frames > 1) {
        registry_->Inc("uplink_retx", info.data_frames - 1);
        registry_->Inc(KeyedMetric("depth_retx", depth),
                       info.data_frames - 1);
      }
      if (info.ack_frames > 0) registry_->Inc("arq_acks", info.ack_frames);
      registry_->Observe("uplink_payload_bits", info.payload_bits);
    } else {
      registry_->Inc("broadcast_packets", info.packets);
      registry_->Observe("broadcast_payload_bits", info.payload_bits);
    }
    registry_->Inc(KeyedMetric("depth_packets", depth),
                   info.packets * info.data_frames);
  }

 private:
  const SpanningTree* tree_;
  MetricsRegistry* registry_;
};

}  // namespace

SimulationResult RunSimulation(const Scenario& scenario,
                               QuantileProtocol* protocol, int rounds,
                               bool check_oracle, bool keep_trail,
                               bool collect_metrics) {
  Network* net = scenario.network.get();
  net->ResetAccounting();

  SimulationResult result;
  MetricsSendObserver observer(&net->tree(), &result.metrics);
  if (collect_metrics) net->set_send_observer(&observer);

  WSNQ_TRACE_SET_PROTO(protocol->name());

  double energy_sum = 0.0;
  double rank_error_sum = 0.0;
  double packets_sum = 0.0;
  double values_sum = 0.0;
  double refinements_sum = 0.0;

  const int total_rounds = rounds + 1;  // round 0 is initialization
  for (int64_t round = 0; round < total_rounds; ++round) {
    WSNQ_TRACE_SET_ROUND(round);
    net->BeginRound();
    // A materialized row when ExecuteRun pre-computed the value matrix
    // (every protocol replay then reads identical rows); otherwise computed
    // into the scenario's scratch row.
    const std::vector<int64_t>& values = scenario.ValuesView(round);
    {
      WSNQ_TRACE_SCOPE("round", round == 0 ? "init" : "update", -1);
      protocol->RunRound(net, values, round);
    }

    RoundRecord record;
    record.round = round;
    record.quantile = protocol->quantile();
    record.max_round_energy_mj = net->MaxRoundEnergyOverSensors();
    record.packets = net->round_packets();
    record.values = net->round_values();
    record.refinements = protocol->refinements_last_round();
    if (check_oracle) {
      // One counting pass over the round's row: the reported value is the
      // k-th smallest exactly when l < k <= l + e, i.e. when its rank error
      // is 0. The row is vertex-indexed, so the root's own entry (it has no
      // sensor) is taken back out of the counts.
      const int64_t reported = protocol->quantile();
      RootCounts counts = OracleCounts(values, reported);
      const int64_t root_value = values[static_cast<size_t>(net->root())];
      counts.l -= root_value < reported;
      counts.e -= root_value == reported;
      counts.g -= root_value > reported;
      record.rank_error = OracleRankErrorFromCounts(counts, scenario.k);
      record.correct = record.rank_error == 0;
      if (!record.correct) ++result.errors;
      rank_error_sum += static_cast<double>(record.rank_error);
      result.max_rank_error =
          std::max(result.max_rank_error, record.rank_error);
    }
    energy_sum += record.max_round_energy_mj;
    packets_sum += static_cast<double>(record.packets);
    values_sum += static_cast<double>(record.values);
    refinements_sum += static_cast<double>(record.refinements);
    if (collect_metrics) {
      result.metrics.Inc(
          KeyedMetric("refinements_per_round", record.refinements));
    }
    WSNQ_TRACE_COUNTER("round_packets", record.packets);
    if (keep_trail) result.trail.push_back(record);
  }

  result.rounds = total_rounds;
  result.mean_max_round_energy_mj = energy_sum / total_rounds;
  result.mean_packets = packets_sum / total_rounds;
  result.mean_values = values_sum / total_rounds;
  result.mean_refinements = refinements_sum / total_rounds;
  result.mean_rank_error = rank_error_sum / total_rounds;

  // Lifetime: the hotspot's mean per-round draw exhausts the 30 mJ budget
  // after initial_energy / draw rounds.
  double hotspot_mean = 0.0;
  for (int v = 0; v < net->num_vertices(); ++v) {
    if (net->is_root(v)) continue;
    hotspot_mean =
        std::max(hotspot_mean, net->total_energy(v) / total_rounds);
  }
  result.lifetime_rounds =
      hotspot_mean > 0.0
          ? net->energy_model().initial_energy_mj / hotspot_mean
          : 0.0;

  if (collect_metrics) {
    net->set_send_observer(nullptr);
    result.metrics.Inc("rounds", total_rounds);
    result.metrics.Inc("floods", net->total_floods());
    result.metrics.Inc("convergecasts", net->total_convergecasts());
    // Tree-repair activity: how many times churn forced a re-attachment
    // epoch this run (0 on the reliable medium and under pure loss).
    if (net->tree_epoch() > 0) {
      result.metrics.Inc("repair_epochs", net->tree_epoch());
    }
    // Per-depth lifetime energy: valid because ResetAccounting above zeroed
    // the totals for this protocol's replay.
    const SpanningTree& tree = net->tree();
    for (int v = 0; v < net->num_vertices(); ++v) {
      if (net->is_root(v)) continue;
      result.metrics.Add(
          KeyedMetric("depth_energy_mj",
                      tree.depth[static_cast<size_t>(v)]),
          net->total_energy(v));
    }
  }
  return result;
}

}  // namespace wsnq
