// Shared scaffolding of the figure-reproduction benches: default paper
// configuration (§5.1.7), common command-line flags, and the sweep loop
// that prints one report row per (x-value, algorithm).

#ifndef WSNQ_BENCH_BENCH_COMMON_H_
#define WSNQ_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "util/flags.h"
#include "util/trace.h"

namespace wsnq {
namespace bench {

/// Observability outputs shared by all benches, filled by
/// ParseCommonFlags and consumed by FinishObservability and MetricsCsv
/// (core/report.h).
struct CommonOptions {
  std::string trace_path;    ///< --trace=PATH (empty: no trace)
  std::string metrics_path;  ///< --metrics=PATH (empty: no metrics CSV)
  std::string profile_path;  ///< --profile[=PATH] ("true": stderr only)
};

/// The file outputs a bench can feed besides the profile, which every
/// bench reports. Benches built on RunSweep or RunExperiment feed both; a
/// hand-rolled bench that folds no run traces or writes no aggregate rows
/// turns the matching field off, and ParseCommonFlags then rejects that
/// flag instead of accepting it and writing nothing.
struct Outputs {
  bool trace = true;    ///< run traces reach trace::GlobalSink()
  bool metrics = true;  ///< aggregates go through MetricsCsv::AddRows
};

/// Outputs of a bench that only reports its profile.
inline constexpr Outputs kProfileOnly{.trace = false, .metrics = false};

inline CommonOptions& Options() {
  static CommonOptions options;
  return options;
}

/// The paper's default synthetic configuration (Table 2 defaults).
inline SimulationConfig DefaultSyntheticConfig() {
  SimulationConfig config;
  config.num_sensors = 256;
  config.radio_range = 35.0;
  config.rounds = RoundsFromEnv(250);
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  return config;
}

/// Parses the flags every bench shares into `config`:
///   --threads=N      worker threads for multi-run experiments (0 = auto via
///                    WSNQ_THREADS / hardware concurrency, 1 = serial); the
///                    aggregate rows are bit-identical for every value.
///   --subtree-parallel[=BOOL]
///                    split each convergecast wave over subtree cuts of the
///                    routing tree, using threads left idle by the run-level
///                    fan-out (net/wave.h); every output stays bit-identical
///                    to the serial wave for any thread count.
///   --trace=PATH     structured event trace (.jsonl = JSONL, else
///                    Chrome/Perfetto JSON).
///   --metrics=PATH   long-format metrics CSV (docs/observability.md).
///   --profile[=PATH] wall-clock stage profile to stderr (plus JSON when a
///                    PATH is given).
/// --trace and --metrics exist only where `outputs` says the bench feeds
/// them. Returns false (after printing to stderr) on malformed values or
/// unknown flags, so typos fail the bench instead of silently running
/// defaults. Every bench that calls this returns through
/// FinishObservability.
inline bool ParseCommonFlags(int argc, const char* const* argv,
                             SimulationConfig* config,
                             Outputs outputs = {}) {
  FlagParser flags(argc, argv);
  config->threads =
      static_cast<int>(flags.GetInt("threads", config->threads));
  config->subtree_parallel =
      flags.GetBool("subtree-parallel", config->subtree_parallel);
  std::string supported = "--threads=N --subtree-parallel[=BOOL]";
  if (outputs.trace) {
    Options().trace_path = flags.GetString("trace", "");
    supported += " --trace=PATH";
  }
  if (outputs.metrics) {
    Options().metrics_path = flags.GetString("metrics", "");
    supported += " --metrics=PATH";
  }
  Options().profile_path = flags.GetString("profile", "");
  supported += " --profile[=PATH]";
  config->collect_metrics = !Options().metrics_path.empty();
  bool ok = true;
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "flag error: %s\n", error.c_str());
    ok = false;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s (supported: %s)\n",
                 unused.c_str(), supported.c_str());
    ok = false;
  }
  if (!ok) return false;
  if (!Options().profile_path.empty()) prof::Enable();
  if (!Options().trace_path.empty()) {
    trace::InstallGlobalSink(Options().trace_path);
  }
  return true;
}

/// FinishObservability (core/report.h) with the --profile path parsed by
/// ParseCommonFlags. RunSweep calls this; hand-rolled benches return
/// through it.
inline int FinishObservability(int code) {
  return wsnq::FinishObservability(code, Options().profile_path);
}

/// Runs one x-axis sweep over labeled protocol factories and prints rows.
/// `configure` mutates the base config for a given x-value. The points go
/// through the batched core RunSweep (core/experiment.h), which shares one
/// ScenarioCache across all of them — topology-invariant sweeps (fig7's
/// period, fig8's noise) build their deployments once; stdout is identical
/// to the historical per-point loop. Prints a timing footer to stderr (see
/// PrintTimingFooter) so wall clock under --threads can be recorded without
/// touching the deterministic stdout.
inline int RunSweep(
    const std::string& figure, const std::string& dataset,
    const std::string& x_name, const std::vector<std::string>& x_values,
    const SimulationConfig& base,
    const std::vector<ProtocolFactory>& factories,
    const std::function<void(const std::string&, SimulationConfig*)>&
        configure) {
  const int runs = RunsFromEnv(20);
  const auto start = std::chrono::steady_clock::now();
  MetricsCsv metrics;
  if (!metrics.Open(Options().metrics_path)) return FinishObservability(1);
  std::vector<SweepPoint> points;
  points.reserve(x_values.size());
  for (const std::string& x : x_values) {
    SweepPoint point{x, base};
    configure(x, &point.config);
    points.push_back(std::move(point));
  }
  auto sweep = wsnq::RunSweep(points, factories, runs);
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep %s failed: %s\n", x_name.c_str(),
                 sweep.status().ToString().c_str());
    return FinishObservability(1);
  }
  int64_t total_errors = 0;
  PrintReportHeader();
  for (const SweepPointResult& point : sweep.value()) {
    for (const AlgorithmAggregate& agg : point.aggregates) {
      PrintReportRow(figure, dataset, x_name, point.x_value, agg);
      total_errors += agg.errors;
      metrics.AddRows(figure, dataset, x_name, point.x_value, agg);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintTimingFooter(figure, ResolveThreads(base.threads), runs, wall_seconds);
  if (total_errors != 0) {
    std::fprintf(stderr, "ORACLE MISMATCHES: %lld\n",
                 static_cast<long long>(total_errors));
    return FinishObservability(1);
  }
  return FinishObservability(0);
}

/// Convenience overload over registry algorithms with default options.
inline int RunSweep(
    const std::string& figure, const std::string& dataset,
    const std::string& x_name, const std::vector<std::string>& x_values,
    const SimulationConfig& base, const std::vector<AlgorithmKind>& algorithms,
    const std::function<void(const std::string&, SimulationConfig*)>&
        configure) {
  std::vector<ProtocolFactory> factories;
  factories.reserve(algorithms.size());
  for (AlgorithmKind kind : algorithms) {
    factories.push_back(DefaultFactory(kind));
  }
  return RunSweep(figure, dataset, x_name, x_values, base, factories,
                  configure);
}

}  // namespace bench
}  // namespace wsnq

#endif  // WSNQ_BENCH_BENCH_COMMON_H_
