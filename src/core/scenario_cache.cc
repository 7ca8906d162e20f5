#include "core/scenario_cache.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

Status ScenarioCache::Prepare(const SimulationConfig& config, int runs) {
  for (int run = 0; run < runs; ++run) {
    Status status = Build(config, run).status();
    if (!status.ok()) return status;
  }
  return Status::Ok();
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
  MutexLock lock(mu_);
  std::erase_if(entries_, [&](const auto& entry) {
    return !extends_a_root(entry.first);
  });
}

StatusOr<Scenario> ScenarioCache::Build(const SimulationConfig& config,
                                        int run) {
  return BuildScenario(config, run, this);
}

StatusOr<std::shared_ptr<const void>> ScenarioCache::GetOrBuild(
    const std::string& key, const Builder& build) {
  MutexLock lock(mu_);
  const auto [it, first] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (!first) {
    ++hits_;
    while (!entry.done) built_.Wait(lock);
  } else {
    // The key is ours: build it unlocked so other keys proceed, and let
    // this key's later callers wait on `done`.
    ++misses_;
    lock.Unlock();
    StatusOr<std::shared_ptr<const void>> built = build();
    lock.Lock();
    entry.done = true;
    if (built.ok()) {
      entry.value = std::move(built).value();
    } else {
      entry.status = built.status();
    }
    built_.NotifyAll();
  }
  if (!entry.status.ok()) return entry.status;
  return entry.value;
}

int64_t ScenarioCache::size() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t ScenarioCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

int64_t ScenarioCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

}  // namespace wsnq
