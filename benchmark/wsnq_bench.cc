// wsnq_bench: the benchmark's simulator runner and traced replays
// (benchmark/README.md). benchmark/run.py starts one fresh process per
// repetition; each prints "# ready" once its inputs are loaded, then does
// its one piece of work and prints a single JSON line.
//
//   wsnq_bench --workload-file=PATH             one RunSweep pass
//   wsnq_bench --workload-file=PATH --setup-only
//   wsnq_bench --workload-file=PATH --replay --spans=PATH
//   wsnq_bench --serve-replay --subs-file=PATH --spans=PATH --nodes=N
//              --seed=S --shards=N --threads=N --connections=N --rounds=N
//              --subscribe-rounds=N --check-every=N
//
// The pass is one call to the public RunSweep with the default protocol
// factories and nothing timed inside it; the replays record a span around
// every layer call instead.

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "json_line.h"
#include "serve_replay.h"
#include "sim_replay.h"
#include "sim_workload.h"
#include "spans.h"
#include "util/flags.h"

namespace {

using namespace wsnq;
using benchmark::MonotonicNs;

int Fail(const Status& status) {
  std::fprintf(stderr, "wsnq_bench: %s\n", status.ToString().c_str());
  return 1;
}

void Ready() {
  std::printf("# ready\n");
  std::fflush(stdout);
}

int RunPass(const benchmark::SimWorkload& workload, bool setup_only) {
  std::vector<ProtocolFactory> factories;
  for (AlgorithmKind kind : workload.protocols) {
    factories.push_back(DefaultFactory(kind));
  }
  Ready();
  if (setup_only) return 0;
  const int64_t start = MonotonicNs();
  StatusOr<std::vector<SweepPointResult>> results =
      RunSweep(workload.points, factories, workload.runs);
  const double wall_s = static_cast<double>(MonotonicNs() - start) * 1e-9;
  if (!results.ok()) return Fail(results.status());
  const benchmark::SimOutcome outcome =
      benchmark::Summarize(workload, results.value());
  std::printf("%s\n",
              benchmark::JsonLine()
                  .Num("wall_s", wall_s)
                  .Raw("outcome", benchmark::OutcomeJson(outcome,
                                                         results.value()))
                  .Num("peak_rss_mb", benchmark::PeakRssMb())
                  .str()
                  .c_str());
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload_file = flags.GetString("workload-file", "");
  const std::string spans_path = flags.GetString("spans", "");
  const bool setup_only = flags.GetBool("setup-only", false);
  const bool replay = flags.GetBool("replay", false);
  const bool serve_replay = flags.GetBool("serve-replay", false);
  benchmark::ServeReplayOptions serve;
  serve.subs_path = flags.GetString("subs-file", "");
  serve.nodes = static_cast<int>(flags.GetInt("nodes", serve.nodes));
  serve.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  serve.shards = static_cast<int>(flags.GetInt("shards", serve.shards));
  serve.threads = static_cast<int>(flags.GetInt("threads", serve.threads));
  serve.connections =
      static_cast<int>(flags.GetInt("connections", serve.connections));
  serve.rounds = flags.GetInt("rounds", 0);
  serve.subscribe_rounds = flags.GetInt("subscribe-rounds", 1);
  serve.check_every = flags.GetInt("check-every", serve.check_every);
  for (const std::string& error : flags.errors()) {
    return Fail(Status::InvalidArgument(error));
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    return Fail(Status::InvalidArgument("unknown flag --" + unused));
  }

  benchmark::SpanRecorder recorder;
  StatusOr<std::string> report = Status::Internal("unset");
  if (serve_replay) {
    if (serve.rounds < 1 || serve.subscribe_rounds < 1 ||
        serve.check_every < 1 || serve.connections < 1 || serve.nodes < 2) {
      return Fail(Status::InvalidArgument("bad --serve-replay options"));
    }
    Ready();
    report = benchmark::RunServeReplay(serve, &recorder);
  } else {
    StatusOr<benchmark::SimWorkload> workload =
        benchmark::LoadSimWorkload(workload_file);
    if (!workload.ok()) return Fail(workload.status());
    if (!replay) return RunPass(workload.value(), setup_only);
    Ready();
    report = benchmark::RunSimReplay(workload.value(), &recorder);
  }
  if (!report.ok()) return Fail(report.status());
  if (!spans_path.empty()) {
    const Status written = recorder.WriteJsonl(spans_path);
    if (!written.ok()) return Fail(written);
  }
  std::printf("%s\n", report.value().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
