// wsnq_sim: command-line driver for the continuous quantile simulator.
//
// Examples:
//   wsnq_sim --algo=IQ --nodes=256 --rounds=250 --runs=5
//   wsnq_sim --algo=HBC,IQ,POS --dataset=pressure --skip=7 --pessimistic
//   wsnq_sim --algo=IQ --trail --rounds=50       # per-round trace
//   wsnq_sim --list                              # available algorithms
//
// Flags (defaults follow the paper's §5.1 setup):
//   --algo=NAME[,NAME...]   algorithms (TAG POS HBC HBC-NTB IQ LCLL-H
//                           LCLL-S SNAPSHOT SWITCH QDIGEST GK SAMPLE)
//   --threads=N             worker threads for multi-run experiments
//                           (0 = auto, 1 = serial; results bit-identical)
//   --subtree-parallel      split each convergecast wave over subtree cuts
//                           of the routing tree (net/wave.h), using threads
//                           left idle by the run-level fan-out; every
//                           output stays bit-identical
//   --dataset=synthetic|pressure
//   --nodes=N --radio=M --phi=F --rounds=R --runs=K --seed=S
//   --values_per_node=M     multi-value nodes (§2; synthetic only)
//   --period=P --noise=PSI  (synthetic)
//   --skip=S --pessimistic  (pressure)
//   --tree=nearest|balanced|random   routing-tree parent selection
//   --loss=P                uplink frame loss probability (0..1)
//   --loss-model=iid|ge     loss process: i.i.d. Bernoulli or bursty
//                           Gilbert-Elliott (stationary loss rate stays P)
//   --burst-len=B           mean burst length in frames (ge only, > 1)
//   --crash-nodes=N         non-root nodes crashed for a window of rounds
//   --crash-round=R         first round of the crash window (default 5)
//   --crash-len=L           window length in rounds (0 = never recover)
//   --no-repair             leave orphaned subtrees detached while crashed
//   --arq                   stop-and-wait ARQ on every uplink unicast
//   --max-retx=N            retransmission budget per message (default 16)
//   --trail                 print per-round records (single run)
//   --csv                   machine-readable output
//   --trace=PATH            structured event trace (.jsonl = JSONL, else
//                           Chrome/Perfetto JSON)
//   --metrics=PATH          long-format metrics CSV (docs/observability.md)
//   --profile[=PATH]        wall-clock stage profile to stderr (and JSON
//                           when a PATH is given)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "fault/fault_cli.h"
#include "util/flags.h"
#include "util/trace.h"

namespace {

using namespace wsnq;

int ListAlgorithms() {
  std::printf("exact:         TAG POS HBC HBC-NTB IQ LCLL-H LCLL-S SNAPSHOT "
              "SWITCH\n");
  std::printf("approximate:   QDIGEST GK\n");
  std::printf("probabilistic: SAMPLE\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("list")) return ListAlgorithms();
  if (flags.Has("help")) {
    std::printf("see the header comment of tools/wsnq_sim.cc or README.md\n");
    return 0;
  }

  SimulationConfig config;
  config.num_sensors = static_cast<int>(flags.GetInt("nodes", 256));
  config.values_per_node =
      static_cast<int>(flags.GetInt("values_per_node", 1));
  config.radio_range = flags.GetDouble("radio", 35.0);
  config.phi = flags.GetDouble("phi", 0.5);
  config.rounds = static_cast<int>(flags.GetInt("rounds", 250));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.fault.loss = flags.GetDouble("loss", 0.0);
  const std::string loss_model = flags.GetString("loss-model", "iid");
  if (loss_model == "ge") {
    config.fault.loss_model = LossModel::kGilbertElliott;
  } else if (loss_model != "iid") {
    std::fprintf(stderr, "unknown --loss-model=%s (iid|ge)\n",
                 loss_model.c_str());
    return 2;
  }
  config.fault.burst_len = flags.GetDouble("burst-len", 4.0);
  config.fault.crash_nodes =
      static_cast<int>(flags.GetInt("crash-nodes", 0));
  config.fault.crash_round = flags.GetInt("crash-round", 5);
  config.fault.crash_len = flags.GetInt("crash-len", 0);
  config.fault.repair = !flags.GetBool("no-repair", false);
  config.fault.arq.enabled = flags.GetBool("arq", false);
  config.fault.arq.max_retx = static_cast<int>(flags.GetInt("max-retx", 16));
  FaultFlagPresence fault_present;
  fault_present.loss = flags.Has("loss");
  fault_present.loss_model = flags.Has("loss-model");
  fault_present.burst_len = flags.Has("burst-len");
  fault_present.crash_nodes = flags.Has("crash-nodes");
  fault_present.crash_round = flags.Has("crash-round");
  fault_present.crash_len = flags.Has("crash-len");
  fault_present.no_repair = flags.Has("no-repair");
  fault_present.arq = flags.Has("arq");
  fault_present.max_retx = flags.Has("max-retx");
  const Status fault_status = ValidateFaultFlags(config.fault, fault_present);
  if (!fault_status.ok()) {
    std::fprintf(stderr, "%s\n", fault_status.ToString().c_str());
    return 2;
  }
  config.synthetic.period_rounds = flags.GetDouble("period", 125.0);
  config.synthetic.noise_percent = flags.GetDouble("noise", 5.0);
  config.pressure.skip = static_cast<int>(flags.GetInt("skip", 0));
  if (flags.GetBool("pessimistic", false)) {
    config.pressure.range_setting =
        PressureTrace::RangeSetting::kPessimistic;
  }
  const std::string tree = flags.GetString("tree", "nearest");
  if (tree == "balanced") {
    config.tree_strategy = ParentSelection::kDegreeBalanced;
  } else if (tree == "random") {
    config.tree_strategy = ParentSelection::kRandom;
  } else if (tree != "nearest") {
    std::fprintf(stderr, "unknown --tree=%s (nearest|balanced|random)\n",
                 tree.c_str());
    return 2;
  }
  const std::string dataset = flags.GetString("dataset", "synthetic");
  if (dataset == "pressure") {
    config.dataset = DatasetKind::kPressure;
    config.pressure.num_stations =
        static_cast<int>(flags.GetInt("nodes", 1022));
  } else if (dataset != "synthetic") {
    std::fprintf(stderr, "unknown --dataset=%s\n", dataset.c_str());
    return 2;
  }

  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  config.threads = static_cast<int>(flags.GetInt("threads", 0));
  config.subtree_parallel =
      flags.GetBool("subtree-parallel", config.subtree_parallel);
  const bool trail = flags.GetBool("trail", false);
  const bool csv = flags.GetBool("csv", false);
  const std::string algo_list = flags.GetString("algo", "IQ");
  const std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string profile_path = flags.GetString("profile", "");
  config.collect_metrics = !metrics_path.empty();

  for (const std::string& err : flags.errors()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (try --help)\n", unused.c_str());
    return 2;
  }

  std::vector<AlgorithmKind> kinds;
  for (const std::string& name : SplitCommas(algo_list)) {
    auto kind = ParseAlgorithmName(name.c_str());
    if (!kind.ok()) {
      std::fprintf(stderr, "%s (use --list)\n",
                   kind.status().ToString().c_str());
      return 2;
    }
    kinds.push_back(kind.value());
  }

  if (!profile_path.empty()) {
    prof::Enable();
  }
  if (!trace_path.empty()) trace::InstallGlobalSink(trace_path);

  if (trail) {
    // Single-run per-round trace of the first algorithm, run through the
    // run driver like every experiment.
    SimulationResult result;
    const Status status = ForEachRun(
        config, /*runs=*/1, /*cache=*/nullptr, [&](int, Scenario& scenario) {
          auto protocol = MakeProtocol(kinds[0], scenario.k,
                                       scenario.source->range_min(),
                                       scenario.source->range_max(),
                                       config.wire);
          result = RunSimulation(scenario, protocol.get(), config.rounds,
                                 /*keep_trail=*/true, config.collect_metrics);
          return Status::Ok();
        });
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    MetricsCsv metrics;
    if (!metrics.Open(metrics_path)) {
      return FinishObservability(1, profile_path);
    }
    AlgorithmAggregate aggregate;
    aggregate.label = AlgorithmName(kinds[0]);
    aggregate.metrics = result.metrics;
    metrics.AddRows("sim", dataset, "trail", "0", aggregate);
    std::printf(csv ? "round,quantile,hotspot_mj,packets,values,refinements,"
                      "rank_error\n"
                    : "%-6s %-10s %-12s %-8s %-8s %-12s %s\n",
                "round", "quantile", "hotspot_mJ", "packets", "values",
                "refinements", "rank_err");
    for (const RoundRecord& r : result.trail) {
      std::printf(csv ? "%lld,%lld,%.6f,%lld,%lld,%lld,%lld\n"
                      : "%-6lld %-10lld %-12.6f %-8lld %-8lld %-12lld %lld\n",
                  static_cast<long long>(r.round),
                  static_cast<long long>(r.quantile), r.max_round_energy_mj,
                  static_cast<long long>(r.packets),
                  static_cast<long long>(r.values),
                  static_cast<long long>(r.refinements),
                  static_cast<long long>(r.rank_error));
    }
    return FinishObservability(0, profile_path);
  }

  auto aggregates = RunExperiment(config, kinds, runs);
  if (!aggregates.ok()) {
    std::fprintf(stderr, "%s\n", aggregates.status().ToString().c_str());
    return FinishObservability(1, profile_path);
  }
  MetricsCsv metrics;
  if (!metrics.Open(metrics_path)) return FinishObservability(1, profile_path);
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    metrics.AddRows("sim", dataset, "runs", std::to_string(runs), agg);
  }
  std::printf(csv ? "algo,max_energy_mj,lifetime_rounds,packets,values,"
                    "refinements,mean_rank_error,errors\n"
                  : "%-9s %14s %16s %10s %10s %12s %10s %7s\n",
              "algo", "max_energy_mJ", "lifetime_rounds", "packets",
              "values", "refinements", "rank_err", "errors");
  for (const AlgorithmAggregate& agg : aggregates.value()) {
    std::printf(csv ? "%s,%.6f,%.1f,%.1f,%.1f,%.2f,%.3f,%lld\n"
                    : "%-9s %14.6f %16.1f %10.1f %10.1f %12.2f %10.3f "
                      "%7lld\n",
                agg.label.c_str(), agg.max_round_energy_mj.mean(),
                agg.lifetime_rounds.mean(), agg.packets.mean(),
                agg.values.mean(), agg.refinements.mean(),
                agg.rank_error.mean(), static_cast<long long>(agg.errors));
  }
  return FinishObservability(0, profile_path);
}
