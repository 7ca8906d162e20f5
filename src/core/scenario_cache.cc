#include "core/scenario_cache.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/check.h"

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
  sealed_ = false;
  for (int run = 0; run < runs; ++run) {
    // Build (and discard) the full scenario: every shareable artifact the
    // run needs lands in the map as a side effect, in the order the
    // storeless BuildScenario(config, run) would build it.
    StatusOr<Scenario> scenario = BuildScenario(config, run, this);
    if (!scenario.ok()) {
      sealed_ = true;
      return scenario.status();
    }
  }
  sealed_ = true;
  return Status::Ok();
}

StatusOr<Scenario> ScenarioCache::Build(const SimulationConfig& config,
                                        int run) {
  return BuildScenario(config, run, this);
}

void ScenarioCache::AssertPreparePhase() {
  // The dynamic half of the phase capability: mutation is only legal while
  // unsealed, i.e. inside the serial Prepare() pass.
  WSNQ_DCHECK(!sealed_);
}

std::shared_ptr<const void> ScenarioCache::Get(const std::string& key) const {
  AssertReadPhase();
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
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
