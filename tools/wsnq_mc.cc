// wsnq_mc: bounded-exhaustive model checker of the fault schedule space
// (docs/robustness.md "Model checking").
//
// Examples:
//   wsnq_mc --nodes=8 --max-drops=2                      # CI smoke bounds
//   wsnq_mc --nodes=12 --max-drops=3 --max-crashes=1     # ROADMAP bounds
//   wsnq_mc --replay=tests/mc_regressions/arq_exactness_two_drops.json
//
// Flags:
//   --nodes=N         total vertices, sensors + root (default 8, bound 12)
//   --rounds=R        rounds per schedule incl. initialization (default 4)
//   --radio=M --seed=S --phi=F --period=P --noise=PSI    scenario knobs
//   --algo=NAME[,..]  protocols to check (default: the six exact ones)
//   --max-drops=D     drop budget of the crash-free subspace (default 2)
//   --max-crashes=C   0 or 1 crashed node (default 0)
//   --crash-max-drops=D'   drop budget inside crashed subspaces (default 1)
//   --crash-lens=L[,..]    crash window lengths (default 1,2)
//   --no-arq          check the unreliable transport (drops go unrepaired;
//                     only the structural invariants are asserted)
//   --max-retx=N      ARQ retransmission budget (default 16)
//   --threads=N       workers (0 = auto; counts bit-identical regardless)
//   --stats=PATH      write exploration statistics as JSON
//   --repro-dir=DIR   write each minimized counterexample as DIR/<name>.json
//   --replay=PATH     replay one archived repro instead of enumerating
//
// Exit status: 0 = explored clean (or replay clean), 1 = violations found
// (minimized; written to --repro-dir when given), 2 = bad flags.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "mc/model_check.h"
#include "mc/runner.h"
#include "mc/schedule.h"
#include "util/flags.h"

namespace {

using namespace wsnq;

int WriteFile(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return 0;
}

int Replay(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open --replay=%s\n", path.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, got);
  }
  std::fclose(in);

  auto repro = ReproFromJson(text);
  if (!repro.ok()) {
    std::fprintf(stderr, "%s\n", repro.status().ToString().c_str());
    return 2;
  }
  auto result = ReplayRepro(repro.value());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
  std::printf("replay %s: algo=%s %s frames=%lld applied_drops=%d\n",
              path.c_str(), AlgorithmName(repro.value().algo),
              ScheduleToString(repro.value().schedule).c_str(),
              static_cast<long long>(result.value().frames_sent),
              result.value().applied_drops);
  if (result.value().violated) {
    const McViolation& v = result.value().violation;
    std::printf("VIOLATION %s at round %lld: %s\n", v.invariant.c_str(),
                static_cast<long long>(v.round), v.detail.c_str());
    return 1;
  }
  std::printf("clean: every invariant held\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf("see the header comment of tools/wsnq_mc.cc\n");
    return 0;
  }

  McOptions options;
  options.nodes = static_cast<int>(flags.GetInt("nodes", 8));
  options.rounds = static_cast<int>(flags.GetInt("rounds", 4));
  options.radio_range = flags.GetDouble("radio", 80.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.phi = flags.GetDouble("phi", 0.5);
  options.period_rounds = flags.GetDouble("period", 10.0);
  options.noise_percent = flags.GetDouble("noise", 15.0);
  options.max_drops = static_cast<int>(flags.GetInt("max-drops", 2));
  options.max_crashes = static_cast<int>(flags.GetInt("max-crashes", 0));
  options.crash_max_drops =
      static_cast<int>(flags.GetInt("crash-max-drops", 1));
  options.arq = !flags.GetBool("no-arq", false);
  options.max_retx = static_cast<int>(flags.GetInt("max-retx", 16));
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  const std::string algo_list = flags.GetString("algo", "");
  const std::string crash_lens = flags.GetString("crash-lens", "");
  const std::string stats_path = flags.GetString("stats", "");
  const std::string repro_dir = flags.GetString("repro-dir", "");
  const std::string replay_path = flags.GetString("replay", "");

  for (const std::string& err : flags.errors()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (try --help)\n", unused.c_str());
    return 2;
  }
  if (options.nodes < 2 || options.rounds < 1 || options.max_drops < 0 ||
      options.max_crashes < 0 || options.max_crashes > 1 ||
      options.crash_max_drops < 0) {
    std::fprintf(stderr,
                 "bounds out of range: need nodes >= 2, rounds >= 1, "
                 "max-drops >= 0, max-crashes in {0, 1}\n");
    return 2;
  }
  if (!algo_list.empty()) {
    for (const std::string& name : SplitCommas(algo_list)) {
      auto kind = ParseAlgorithmName(name.c_str());
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 2;
      }
      options.algorithms.push_back(kind.value());
    }
  }
  if (!crash_lens.empty()) {
    options.crash_lens.clear();
    for (const std::string& raw : SplitCommas(crash_lens)) {
      char* end = nullptr;
      const long long v = std::strtoll(raw.c_str(), &end, 10);
      if (end == raw.c_str() || *end != '\0' || v < 0) {
        std::fprintf(stderr, "bad --crash-lens entry '%s'\n", raw.c_str());
        return 2;
      }
      options.crash_lens.push_back(v);
    }
  }

  if (!replay_path.empty()) return Replay(replay_path);

  auto report = RunModelCheck(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  const McStats& stats = report.value().stats;
  std::printf(
      "model check: nodes=%d rounds=%d D=%d C=%d D'=%d algos=%lld\n",
      options.nodes, options.rounds, options.max_drops, options.max_crashes,
      options.crash_max_drops,
      static_cast<long long>(
          options.algorithms.empty()
              ? static_cast<int64_t>(PaperAlgorithms().size())
              : static_cast<int64_t>(options.algorithms.size())));
  std::printf(
      "explored=%lld pruned=%lld naive_total=%lld (subspaces=%lld, "
      "crash_specs=%lld, max_frames=%lld)\n",
      static_cast<long long>(stats.explored),
      static_cast<long long>(stats.pruned),
      static_cast<long long>(stats.naive_total),
      static_cast<long long>(stats.subspaces),
      static_cast<long long>(stats.crash_specs),
      static_cast<long long>(stats.max_frames));
  std::printf("states: distinct=%lld duplicate=%lld\n",
              static_cast<long long>(stats.distinct_states),
              static_cast<long long>(stats.duplicate_states));
  if (!stats_path.empty()) {
    if (WriteFile(stats_path, StatsToJson(options, stats)) != 0) return 2;
  }

  if (report.value().repros.empty()) {
    std::printf("violations: 0 — every invariant held on every schedule\n");
    return 0;
  }
  std::printf("violations: %lld (%zu minimized)\n",
              static_cast<long long>(stats.violations),
              report.value().repros.size());
  int repro_index = 0;
  for (const McRepro& repro : report.value().repros) {
    std::printf("  [%d] %s algo=%s %s\n      %s\n", repro_index,
                repro.invariant.c_str(), AlgorithmName(repro.algo),
                ScheduleToString(repro.schedule).c_str(),
                repro.detail.c_str());
    if (!repro_dir.empty()) {
      const std::string path = repro_dir + "/" + repro.invariant + "_" +
                               std::to_string(repro_index) + ".json";
      if (WriteFile(path, ReproToJson(repro)) != 0) return 2;
      std::printf("      written to %s\n", path.c_str());
    }
    ++repro_index;
  }
  return 1;
}
