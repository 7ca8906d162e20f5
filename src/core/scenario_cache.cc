#include "core/scenario_cache.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wsnq {
namespace internal {

namespace {

/// Formats into a std::string; doubles use the hexfloat conversion (%a) at
/// the call sites so key equality is bit-exact, never rounded.
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

std::string SyntheticDeploymentKey(const SimulationConfig& config, int run) {
  return Format("syn-deploy|seed=%llu|run=%d|n=%d|vpn=%d|w=%a|h=%a|rho=%a",
                static_cast<unsigned long long>(config.seed), run,
                config.num_sensors, config.values_per_node, config.area_width,
                config.area_height, config.radio_range);
}

std::string SyntheticSourceKey(const SimulationConfig& config, int run) {
  // The trace reads the deployment's normalized positions and a seed
  // derived from (config.seed, run) — both covered by the deployment key
  // prefix. config.synthetic.seed is overridden by BuildScenario and
  // deliberately absent.
  return SyntheticDeploymentKey(config, run) +
         Format("|src|rmin=%lld|rmax=%lld|per=%a|noise=%a|amp=%a",
                static_cast<long long>(config.synthetic.range_min),
                static_cast<long long>(config.synthetic.range_max),
                config.synthetic.period_rounds, config.synthetic.noise_percent,
                config.synthetic.amplitude_fraction);
}

std::string PressureTraceKey(const SimulationConfig& config) {
  const PressureTrace::Options& p = config.pressure;
  // BuildScenario sizes the trace to exactly config.rounds + 2; the key must
  // use that *effective* round count, because the generator draws the whole
  // regional series before the per-station terms — every sample depends on
  // how many samples exist.
  const int64_t effective_rounds = config.rounds + 2;
  // The stored trace is canonical (BuildScenario folds skip into max_skip),
  // so only the coverage stride shapes the sample grid: every skip point a
  // sweep's max_skip covers hits the same trace, SOM placement, and trees.
  const int coverage = std::max(p.skip, p.max_skip);
  return Format("pt|seed=%llu|st=%d|rounds=%lld|cov=%d|range=%d|mean=%a|"
                "tsig=%a|ttau=%a|ptau=%a|osig=%a|ssig=%a|stau=%a|damp=%a|"
                "spd=%a",
                static_cast<unsigned long long>(config.seed), p.num_stations,
                static_cast<long long>(effective_rounds), coverage,
                static_cast<int>(p.range_setting), p.mean_pressure,
                p.trend_sigma, p.trend_tau_samples, p.pressure_tau_samples,
                p.station_offset_sigma, p.station_sigma, p.station_tau_samples,
                p.diurnal_amplitude, p.samples_per_day);
}

std::string PressureWorkloadKey(const SimulationConfig& config) {
  return PressureTraceKey(config) +
         Format("|sb=%d", config.pressure_scale_bits);
}

std::string PressureDeploymentKey(const SimulationConfig& config) {
  // The SOM features are the trace's first measurements, so the placement
  // inherits the full trace key. Skip points under one coverage stride
  // share the sample grid and therefore the placement; distinct coverages
  // do not — the generator's draw order makes even sample 0 depend on the
  // grid size.
  return PressureTraceKey(config) + Format("|deploy|w=%a|h=%a|rho=%a",
                                           config.area_width,
                                           config.area_height,
                                           config.radio_range);
}

std::string RoutingTreeKey(const std::string& deployment_key, int root,
                           ParentSelection strategy, uint64_t salt) {
  return deployment_key +
         Format("|tree|root=%d|strat=%d|salt=%llu", root,
                static_cast<int>(strategy),
                static_cast<unsigned long long>(salt));
}

}  // namespace internal

/// Staging store of one run built on the pool: lookups read the run's own
/// builds and then the cache's map (nobody writes it during the fan-out);
/// builds and lookup counts stay here until the calling thread merges
/// them in run-index order.
class ScenarioCache::RunStage final : public internal::ArtifactStore {
 public:
  explicit RunStage(const ScenarioCache& owner) : cache(owner) {}

  std::shared_ptr<const void> Get(const std::string& key) const override {
    for (const auto& [built_key, value] : built) {
      if (built_key == key) {
        ++hits;
        return value;
      }
    }
    std::shared_ptr<const void> value = cache.Find(key);
    ++(value != nullptr ? hits : misses);
    return value;
  }

  void Put(const std::string& key,
           std::shared_ptr<const void> value) override {
    built.emplace_back(key, std::move(value));
  }

  const ScenarioCache& cache;
  /// This run's builds, in build order.
  std::vector<std::pair<std::string, std::shared_ptr<const void>>> built;
  mutable int64_t hits = 0;
  mutable int64_t misses = 0;
  Status status;
};

Status ScenarioCache::Prepare(const SimulationConfig& config, int runs,
                              ThreadPool* pool) {
  sealed_ = false;
  const Status status = PrepareRuns(config, runs, pool);
  sealed_ = true;
  return status;
}

Status ScenarioCache::PrepareRuns(const SimulationConfig& config, int runs,
                                  ThreadPool* pool) {
  // Build (and discard) full scenarios: every shareable artifact a run
  // needs is offered to the store as a side effect, in the order the
  // storeless BuildScenario(config, run) would build it. Without a pool
  // every run goes straight into the map. With one, only run 0 does: it
  // builds every run-invariant artifact (pressure workload, SOM graph), so
  // the staged runs find those instead of each building its own.
  const int serial_runs = pool == nullptr ? runs : std::min(runs, 1);
  for (int run = 0; run < serial_runs; ++run) {
    Status status = BuildScenario(config, run, this).status();
    if (!status.ok()) return status;
  }
  if (serial_runs >= runs) return Status::Ok();

  std::vector<RunStage> stages;
  stages.reserve(static_cast<size_t>(runs - 1));
  for (int run = 1; run < runs; ++run) stages.emplace_back(*this);
  // Every stage finishes even past a failure; the merge below stops where
  // the serial pass would have.
  (void)pool->ParallelFor(runs - 1, [&](int64_t i) {
    RunStage& stage = stages[static_cast<size_t>(i)];
    stage.status =
        BuildScenario(config, static_cast<int>(i) + 1, &stage).status();
    return Status::Ok();
  });
  // ParallelFor has returned, so no stage reads the map any more.
  for (const RunStage& stage : stages) {
    Merge(stage);
    if (!stage.status.ok()) return stage.status;
  }
  return Status::Ok();
}

void ScenarioCache::Merge(const RunStage& stage) {
  AssertPreparePhase();
  hits_.fetch_add(stage.hits, std::memory_order_relaxed);
  misses_.fetch_add(stage.misses, std::memory_order_relaxed);
  for (const auto& [key, value] : stage.built) {
    // First build wins. Two staged runs building one key would also show
    // as more misses than the serial pass counts (the serial pass's later
    // run hits instead), which tests/scenario_cache_test.cc pins.
    entries_.emplace(key, value);
  }
}

void ScenarioCache::Evict(std::span<const SimulationConfig> ahead,
                          int runs) {
  std::vector<std::string> roots;
  for (const SimulationConfig& config : ahead) {
    roots.push_back(internal::PressureTraceKey(config));
    for (int run = 0; run < runs; ++run) {
      roots.push_back(internal::SyntheticDeploymentKey(config, run));
    }
  }
  // At a '|' boundary only: "rho=0x1.18p+5" is a string prefix of
  // "rho=0x1.18p+50".
  const auto extends_a_root = [&](const std::string& key) {
    return std::any_of(roots.begin(), roots.end(), [&](const std::string& r) {
      return key.starts_with(r) &&
             (key.size() == r.size() || key[r.size()] == '|');
    });
  };
  sealed_ = false;
  AssertPreparePhase();
  std::erase_if(entries_, [&](const auto& entry) {
    return !extends_a_root(entry.first);
  });
  sealed_ = true;
}

StatusOr<Scenario> ScenarioCache::Build(const SimulationConfig& config,
                                        int run) {
  return BuildScenario(config, run, this);
}

void ScenarioCache::AssertPreparePhase() {
  // The dynamic half of the phase capability: mutation is only legal while
  // unsealed, i.e. inside Prepare() on its calling thread.
  WSNQ_DCHECK(!sealed_);
}

std::shared_ptr<const void> ScenarioCache::Find(const std::string& key) const {
  AssertReadPhase();
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const void> ScenarioCache::Get(const std::string& key) const {
  std::shared_ptr<const void> value = Find(key);
  (value != nullptr ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return value;
}

void ScenarioCache::Put(const std::string& key,
                        std::shared_ptr<const void> value) {
  if (sealed_) {
    // Read-only phase: the builder keeps its fresh artifact; the map stays
    // untouched so concurrent Gets need no locking.
    sealed_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  AssertPreparePhase();
  entries_.emplace(key, std::move(value));  // first build wins
}

}  // namespace wsnq
