#include "serve/field_catalog.h"

#include "util/check.h"

namespace wsnq {
namespace serve {

uint64_t FieldHash(const std::string& name) {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

SimulationConfig ResolveField(const SimulationConfig& base,
                              const std::string& name) {
  WSNQ_CHECK(!name.empty());
  const uint64_t h = FieldHash(name);
  SimulationConfig config = base;
  config.dataset = DatasetKind::kSynthetic;
  // Workload-only variation: these parameters enter the synthetic-source
  // cache key but not the syn-deploy key, so all fields alias one
  // deployment (placement + radio graph + tree) in the ScenarioCache.
  config.synthetic.period_rounds =
      80.0 + static_cast<double>(h % 160);
  config.synthetic.noise_percent =
      1.0 + static_cast<double>((h >> 16) % 80) / 10.0;
  config.synthetic.amplitude_fraction =
      0.15 + static_cast<double>((h >> 32) % 21) / 100.0;
  // Serving streams never run the metrics registry on the hot path;
  // subscriptions carry their own ranks.
  config.collect_metrics = false;
  return config;
}

}  // namespace serve
}  // namespace wsnq
