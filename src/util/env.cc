#include "util/env.h"

#include <cstdlib>

namespace wsnq {

std::optional<std::string> GetEnv(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-time config read
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

int PositiveIntFromEnv(const char* name, int fallback) {
  const std::optional<std::string> raw = GetEnv(name);
  if (!raw.has_value() || raw->empty()) return fallback;
  const int parsed = std::atoi(raw->c_str());
  return parsed > 0 ? parsed : fallback;
}

}  // namespace wsnq
