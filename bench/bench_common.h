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
#include "perf/bench_harness.h"
#include "perf/stage_collector.h"
#include "util/flags.h"
#include "util/trace.h"

namespace wsnq {
namespace bench {

/// Observability outputs shared by all benches, filled by
/// ParseCommonFlags and consumed by RunSweep.
struct CommonOptions {
  std::string trace_path;    ///< --trace=PATH (empty: no trace)
  std::string metrics_path;  ///< --metrics=PATH (empty: no metrics CSV)
  std::string profile_path;  ///< --profile[=PATH] ("true": stderr only)
  int reps = 1;              ///< --reps=N
  int warmup = 0;            ///< --warmup=N
};

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
///                    Chrome/Perfetto JSON; needs -DWSNQ_TRACING=ON).
///   --metrics=PATH   long-format metrics CSV (docs/observability.md).
///   --profile[=PATH] wall-clock stage profile to stderr (plus JSON when a
///                    PATH is given); attaches the perf::StageCollector so
///                    stages carry hardware-counter/alloc deltas where the
///                    host provides them.
///   --reps=N         measured repetitions of the sweep computation
///                    (default 1). Rows print once (rep 0); the "# bench"
///                    stderr line reports median/MAD/CV over the reps, so
///                    stdout stays byte-identical.
///   --warmup=N       unmeasured warmup repetitions before the first
///                    measured one (default 0).
/// Returns false (after printing to stderr) on malformed values or unknown
/// flags, so typos fail the bench instead of silently running defaults.
inline bool ParseCommonFlags(int argc, const char* const* argv,
                             SimulationConfig* config) {
  FlagParser flags(argc, argv);
  config->threads =
      static_cast<int>(flags.GetInt("threads", config->threads));
  config->subtree_parallel =
      flags.GetBool("subtree-parallel", config->subtree_parallel);
  Options().trace_path = flags.GetString("trace", "");
  Options().metrics_path = flags.GetString("metrics", "");
  Options().profile_path = flags.GetString("profile", "");
  Options().reps = static_cast<int>(flags.GetInt("reps", 1));
  Options().warmup = static_cast<int>(flags.GetInt("warmup", 0));
  config->collect_metrics = !Options().metrics_path.empty();
  bool ok = true;
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "flag error: %s\n", error.c_str());
    ok = false;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr,
                 "unknown flag: --%s (supported: --threads=N "
                 "--subtree-parallel[=BOOL] --trace=PATH --metrics=PATH "
                 "--profile[=PATH] --reps=N --warmup=N)\n",
                 unused.c_str());
    ok = false;
  }
  if (!ok) return false;
  if (!Options().profile_path.empty()) {
    prof::Enable();
    // Attach counters/alloc accounting to the prof:: spans. The status
    // line says whether this host grants perf_event_open; stderr, so
    // deterministic stdout is untouched.
    std::fprintf(stderr, "%s\n", perf::InstallStageCollector().c_str());
  }
  if (!Options().trace_path.empty()) {
    if (!trace::CompiledIn()) {
      std::fprintf(stderr,
                   "warning: this build has WSNQ_TRACING off; --trace will "
                   "write an empty trace (reconfigure with "
                   "-DWSNQ_TRACING=ON)\n");
    }
    trace::InstallGlobalSink(Options().trace_path);
  }
  return true;
}

/// Writes the trace file and profile report configured by
/// ParseCommonFlags; returns `code`, downgraded to 1 on a failed write.
/// RunSweep calls this; hand-rolled benches (fig4_iq_trace) call it before
/// returning.
inline int FinishObservability(int code) {
  const Status trace_status = trace::FlushGlobalSink();
  if (!trace_status.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 trace_status.ToString().c_str());
    if (code == 0) code = 1;
  }
  prof::ReportToStderr();
  const std::string& profile = Options().profile_path;
  if (!profile.empty() && profile != "true") {
    const Status profile_status = prof::WriteJson(profile);
    if (!profile_status.ok()) {
      std::fprintf(stderr, "profile write failed: %s\n",
                   profile_status.ToString().c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
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
  std::FILE* metrics_out = nullptr;
  if (!Options().metrics_path.empty()) {
    metrics_out = std::fopen(Options().metrics_path.c_str(), "w");
    if (metrics_out == nullptr) {
      std::fprintf(stderr, "cannot open --metrics=%s\n",
                   Options().metrics_path.c_str());
      return FinishObservability(1);
    }
    PrintMetricsCsvHeader(metrics_out);
  }
  std::vector<SweepPoint> points;
  points.reserve(x_values.size());
  for (const std::string& x : x_values) {
    SweepPoint point{x, base};
    configure(x, &point.config);
    points.push_back(std::move(point));
  }
  // Repetition protocol (perf/bench_harness.h): the sweep computation runs
  // `warmup` unmeasured times, then `reps` measured times. Only the FIRST
  // invocation prints rows — the computation is deterministic, so every
  // rep would yield identical rows, and printing once keeps stdout
  // byte-identical to the single-shot (--reps=1, the default) behavior.
  // The robust per-rep statistics go to stderr as a "# bench" line for
  // bench_snapshot.py.
  const perf::BenchHarness harness(Options().warmup, Options().reps);
  int64_t total_errors = 0;
  bool printed = false;
  const auto sweep_once = [&]() -> int {
    auto sweep = wsnq::RunSweep(points, factories, runs);
    if (!sweep.ok()) {
      std::fprintf(stderr, "sweep %s failed: %s\n", x_name.c_str(),
                   sweep.status().ToString().c_str());
      return 1;
    }
    if (printed) return 0;  // warmup or repeat rep: compute only
    printed = true;
    PrintReportHeader();
    for (const SweepPointResult& point : sweep.value()) {
      for (const AlgorithmAggregate& agg : point.aggregates) {
        PrintReportRow(figure, dataset, x_name, point.x_value, agg);
        total_errors += agg.errors;
        if (metrics_out != nullptr) {
          PrintMetricsCsvRows(metrics_out, figure, dataset, x_name,
                              point.x_value, agg);
        }
      }
    }
    return 0;
  };
  int sweep_code = 0;
  const perf::RepStats rep_stats = harness.Measure(sweep_once, &sweep_code);
  if (sweep_code != 0) {
    if (metrics_out != nullptr) std::fclose(metrics_out);
    return FinishObservability(1);
  }
  if (metrics_out != nullptr) std::fclose(metrics_out);
  std::fprintf(stderr,
               "# bench figure=%s reps=%d warmup=%d median_s=%.6f "
               "mad_s=%.6f min_s=%.6f max_s=%.6f mean_s=%.6f cv=%.4f\n",
               figure.c_str(), rep_stats.reps, harness.warmup(),
               rep_stats.median_s, rep_stats.mad_s, rep_stats.min_s,
               rep_stats.max_s, rep_stats.mean_s, rep_stats.cv);
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
