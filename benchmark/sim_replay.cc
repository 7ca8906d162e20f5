#include "sim_replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "algo/oracle.h"
#include "core/scenario_cache.h"
#include "histogram.h"
#include "json_line.h"
#include "net/wave.h"

namespace wsnq {
namespace benchmark {
namespace {

/// Fault-layer counts at the Network's send boundary. Installed only where
/// fault injection is on: there a TransportPolicy has already switched the
/// flood fast path off, which any observer would otherwise do.
class CountingObserver : public SendObserver {
 public:
  void OnSend(const SendInfo& info) override {
    if (info.kind != SendKind::kUplink) return;
    ++uplinks;
    if (info.delivered) ++delivered;
    retx += info.data_frames - 1;
    acks += info.ack_frames;
  }

  int64_t uplinks = 0;
  int64_t delivered = 0;
  int64_t retx = 0;
  int64_t acks = 0;
};

/// Per-protocol counts taken at the RunRound boundary.
struct ProtocolCounts {
  int round_span = -1;
  LatencyHistogram round_hist;
  int64_t round_ns = 0;
  int64_t rounds = 0;
  int64_t waves = 0;         ///< convergecasts + floods
  int64_t vertex_waves = 0;  ///< waves weighted by |V|
  int64_t refinements = 0;
  int64_t packets = 0;
};

}  // namespace

StatusOr<std::string> RunSimReplay(const SimWorkload& workload,
                                   SpanRecorder* recorder) {
  SpanRecorder& rec = *recorder;
  const int pass_span = rec.Intern("pass");
  const int point_span = rec.Intern("point");
  const int run_span = rec.Intern("run");
  const int protocol_span = rec.Intern("protocol");
  const int prepare_span = rec.Intern("core.prepare");
  const int build_span = rec.Intern("core.build");
  const int executor_span = rec.Intern("net.wave_executor");
  const int values_span = rec.Intern("data.materialize_values");
  const int sorted_span = rec.Intern("data.materialize_sorted");
  const int make_span = rec.Intern("algo.make");
  const int reset_span = rec.Intern("net.reset");
  const int begin_span = rec.Intern("net.begin_round");
  const int oracle_span = rec.Intern("algo.oracle");

  std::vector<ProtocolFactory> factories;
  std::vector<ProtocolCounts> counts(workload.protocols.size());
  for (size_t i = 0; i < workload.protocols.size(); ++i) {
    factories.push_back(DefaultFactory(workload.protocols[i]));
    counts[i].round_span =
        rec.Intern("algo." + factories[i].label + ".round");
  }
  CountingObserver observer;
  bool counted = false;
  LatencyHistogram all_rounds;
  int64_t materialized_bytes = 0;

  std::vector<SweepPointResult> results;
  ScenarioCache cache;  // one cache across points, as RunSweep keeps
  const int64_t start_ns = MonotonicNs();
  {
    ScopedSpan pass(&rec, pass_span);
    for (const SweepPoint& point : workload.points) {
      ScopedSpan point_scope(&rec, point_span);
      const SimulationConfig& config = point.config;
      const int total_rounds = config.rounds + 1;
      const bool count_sends = config.fault.enabled();
      counted = counted || count_sends;
      {
        ScopedSpan span(&rec, prepare_span);
        Status status = cache.Prepare(config, workload.runs);
        if (!status.ok()) return status;
      }
      std::vector<AlgorithmAggregate> aggregates(factories.size());
      for (size_t i = 0; i < factories.size(); ++i) {
        aggregates[i].label = factories[i].label;
      }
      for (int run = 0; run < workload.runs; ++run) {
        ScopedSpan run_scope(&rec, run_span, run);
        // Declared before the scenario so the Network never outlives it.
        // One worker: the replay times the cut/record path serially, the
        // same partition RunSweep uses (4 parts per wave thread).
        std::optional<WaveExecutor> executor;
        StatusOr<Scenario> built = Status::Internal("unset");
        {
          ScopedSpan span(&rec, build_span, run);
          built = cache.Build(config, run);
        }
        if (!built.ok()) return built.status();
        Scenario& scenario = built.value();
        if (config.subtree_parallel) {
          ScopedSpan span(&rec, executor_span, run);
          const int threads = ResolveThreads(config.threads);
          const int wave_threads =
              std::max(1, threads / std::max(1, std::min(threads,
                                                         workload.runs)));
          executor.emplace(1, 4 * wave_threads);
          scenario.network->set_wave_executor(&*executor);
        }
        {
          ScopedSpan span(&rec, values_span, run);
          scenario.MaterializeValues(total_rounds);
        }
        {
          ScopedSpan span(&rec, sorted_span, run);
          scenario.MaterializeSortedSensors();
        }
        Network* net = scenario.network.get();
        materialized_bytes += int64_t{total_rounds} *
                              (net->num_vertices() + net->num_sensors()) *
                              static_cast<int64_t>(sizeof(int64_t));
        for (size_t i = 0; i < factories.size(); ++i) {
          ScopedSpan protocol_scope(&rec, protocol_span, run);
          ProtocolCounts& pc = counts[i];
          std::unique_ptr<QuantileProtocol> protocol;
          {
            ScopedSpan span(&rec, make_span, run);
            protocol = factories[i].make(scenario.k,
                                         scenario.source->range_min(),
                                         scenario.source->range_max(),
                                         config.wire);
          }
          {
            ScopedSpan span(&rec, reset_span, run);
            net->ResetAccounting();
          }
          if (count_sends) net->set_send_observer(&observer);
          // The same per-round sums, in the same order, as RunSimulation.
          double energy_sum = 0.0;
          double packets_sum = 0.0;
          int64_t errors = 0;
          for (int64_t round = 0; round < total_rounds; ++round) {
            {
              ScopedSpan span(&rec, begin_span, run, round);
              net->BeginRound();
            }
            const std::vector<int64_t>& values = scenario.ValuesView(round);
            const int index = rec.Begin(pc.round_span, run, round);
            protocol->RunRound(net, values, round);
            rec.End(index);
            const SpanRecorder::Span& s =
                rec.spans()[static_cast<size_t>(index)];
            pc.round_hist.Record(s.end_ns - s.start_ns);
            all_rounds.Record(s.end_ns - s.start_ns);
            pc.round_ns += s.end_ns - s.start_ns;
            const int64_t waves =
                net->round_convergecasts() + net->round_floods();
            pc.waves += waves;
            pc.vertex_waves += waves * net->num_vertices();
            pc.refinements += protocol->refinements_last_round();
            pc.packets += net->round_packets();
            ++pc.rounds;
            energy_sum += net->MaxRoundEnergyOverSensors();
            packets_sum += static_cast<double>(net->round_packets());
            {
              ScopedSpan span(&rec, oracle_span, run, round);
              const std::vector<int64_t>& sorted =
                  *scenario.SortedSensorsView(round);
              // Exact protocols: right value and zero rank error.
              if (protocol->quantile() != OracleKthSorted(sorted, scenario.k) ||
                  OracleRankErrorSorted(sorted, protocol->quantile(),
                                        scenario.k) != 0) {
                ++errors;
              }
            }
          }
          net->set_send_observer(nullptr);
          AlgorithmAggregate& agg = aggregates[i];
          agg.max_round_energy_mj.Add(energy_sum / total_rounds);
          agg.packets.Add(packets_sum / total_rounds);
          agg.errors += errors;
          ++agg.runs;
        }
      }
      results.push_back(SweepPointResult{point.x_value, std::move(aggregates)});
    }
  }
  const double wall_s = static_cast<double>(MonotonicNs() - start_ns) * 1e-9;

  std::string protocols = "[";
  for (size_t i = 0; i < factories.size(); ++i) {
    const ProtocolCounts& pc = counts[i];
    if (protocols.size() > 1) protocols += ",";
    protocols += JsonLine()
                     .Str("label", factories[i].label)
                     .Int("rounds", pc.rounds)
                     .Int("round_ns", pc.round_ns)
                     .Int("waves", pc.waves)
                     .Int("vertex_waves", pc.vertex_waves)
                     .Int("refinements", pc.refinements)
                     .Int("packets", pc.packets)
                     .Raw("round_hist", pc.round_hist.ToJson())
                     .str();
  }
  protocols += "]";

  const SimOutcome outcome = Summarize(workload, results);
  return JsonLine()
      .Raw("outcome", OutcomeJson(outcome, results))
      .Num("wall_s", wall_s)
      .Int("spans", static_cast<int64_t>(rec.spans().size()))
      .Num("span_cost_ns", CalibrateSpanCostNs())
      .Int("cache_hits", cache.hits())
      .Int("cache_misses", cache.misses())
      .Int("materialized_bytes", materialized_bytes)
      .Raw("round_hist", all_rounds.ToJson())
      .Raw("protocols", protocols)
      .Raw("fault", JsonLine()
                        .Int("counted", counted ? 1 : 0)
                        .Int("uplinks", observer.uplinks)
                        .Int("delivered", observer.delivered)
                        .Int("retx", observer.retx)
                        .Int("acks", observer.acks)
                        .str())
      .str();
}

}  // namespace benchmark
}  // namespace wsnq
