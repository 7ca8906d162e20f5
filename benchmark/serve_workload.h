// serve-10k inputs and the client-side answer oracle, shared by the load
// client (wsnq_bench_client) and the traced broker replay (wsnq_bench
// --serve-replay). benchmark/run.py generates the subscription file from the
// seed: one "<field> <rank_permille>" line per subscription, in send order.

#ifndef WSNQ_BENCHMARK_SERVE_WORKLOAD_H_
#define WSNQ_BENCHMARK_SERVE_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/scenario.h"
#include "serve/wire.h"
#include "util/status.h"

namespace wsnq {
namespace benchmark {

StatusOr<std::vector<serve::SubscribeRequest>> LoadSubscriptions(
    const std::string& path);

/// The daemon's base config for `--nodes`/`--seed` (tools/wsnq_served.cc
/// sets exactly these two fields on a default SimulationConfig).
SimulationConfig ServeBaseConfig(int nodes, uint64_t seed);

/// Exact k-th smallest sensor value of a field at a broker round, computed
/// independently of the broker: ResolveField -> BuildScenario(config, 0) ->
/// the round's sensor snapshot -> OracleKthSorted. Scenarios are cached per
/// field; the sorted snapshot is cached for the most recent round only.
class FieldOracle {
 public:
  explicit FieldOracle(const SimulationConfig& base) : base_(base) {}

  /// Builds (or reuses) the field's scenario and its sorted snapshot of
  /// `round` — the data-layer half of a check.
  Status Prepare(const std::string& field, int64_t round);

  /// Prepare, then the rank-`rank` order statistic.
  StatusOr<int64_t> Kth(const std::string& field, int64_t round,
                        int64_t rank);

 private:
  struct Field {
    Scenario scenario;
    int64_t round = -1;
    std::vector<int64_t> sorted;
  };

  SimulationConfig base_;
  std::map<std::string, Field> fields_;
};

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_SERVE_WORKLOAD_H_
