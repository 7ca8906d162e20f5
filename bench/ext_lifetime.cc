// Extension bench: measured lifetime curves. The paper's lifetime metric
// stops at the first battery death; here batteries actually drain, dead
// nodes drop out, the tree heals, and the query re-initializes over the
// survivors — so we can report when 1 / 10% / 25% of the network is gone
// and how many exact answers the network produced before thinning to half.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"
#include "core/lifetime.h"
#include "util/stats.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace wsnq;
  SimulationConfig config;
  config.num_sensors = 128;  // smaller net -> battery game ends sooner
  config.radio_range = 40.0;
  config.synthetic.period_rounds = 125;
  config.synthetic.noise_percent = 5;
  if (!bench::ParseCommonFlags(argc, argv, &config, bench::kProfileOnly)) {
    return 2;
  }
  const int runs = RunsFromEnv(10);
  LifetimeOptions options;
  options.max_rounds = 20000;

  std::printf("%-10s %-9s %12s %12s %12s %12s %12s %10s\n", "figure",
              "algo", "first_death", "p10_death", "p25_death",
              "exact_rounds", "total_rounds", "epochs");
  ThreadPool pool(std::min<int>(ResolveThreads(config.threads), runs));
  for (AlgorithmKind kind : PaperAlgorithms()) {
    RunningStat first, p10, p25, exact, total, epochs;
    // Runs fan out over the pool into index-addressed slots; the fold
    // below walks them in run order, matching the serial path exactly.
    std::vector<LifetimeResult> per_run(static_cast<size_t>(runs));
    const Status status = pool.ParallelFor(runs, [&](int64_t run) -> Status {
      auto result =
          RunLifetimeSimulation(config, kind, static_cast<int>(run), options);
      if (!result.ok()) return result.status();
      per_run[static_cast<size_t>(run)] = std::move(result).value();
      return Status::Ok();
    });
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return bench::FinishObservability(1);
    }
    for (const LifetimeResult& r : per_run) {
      if (r.first_death_round >= 0) {
        first.Add(static_cast<double>(r.first_death_round));
      }
      if (r.p10_death_round >= 0) {
        p10.Add(static_cast<double>(r.p10_death_round));
      }
      if (r.p25_death_round >= 0) {
        p25.Add(static_cast<double>(r.p25_death_round));
      }
      exact.Add(static_cast<double>(r.exact_rounds));
      total.Add(static_cast<double>(r.total_rounds));
      epochs.Add(static_cast<double>(r.reinit_epochs));
    }
    std::printf("%-10s %-9s %12.0f %12.0f %12.0f %12.0f %12.0f %10.1f\n",
                "ext-life", AlgorithmName(kind), first.mean(), p10.mean(),
                p25.mean(), exact.mean(), total.mean(), epochs.mean());
  }
  return bench::FinishObservability(0);
}
