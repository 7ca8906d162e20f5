#include "serve_workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "algo/oracle.h"
#include "serve/field_catalog.h"

namespace wsnq {
namespace benchmark {

StatusOr<std::vector<serve::SubscribeRequest>> LoadSubscriptions(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read subscription file " + path);
  std::vector<serve::SubscribeRequest> subs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    serve::SubscribeRequest request;
    int64_t permille = 0;
    if (!(fields >> request.field >> permille) || permille < 1 ||
        permille > 1000) {
      return Status::InvalidArgument("bad subscription line: " + line);
    }
    request.rank_permille = static_cast<uint32_t>(permille);
    subs.push_back(request);
  }
  if (subs.empty()) return Status::InvalidArgument("no subscriptions");
  return subs;
}

SimulationConfig ServeBaseConfig(int nodes, uint64_t seed) {
  SimulationConfig base;
  base.num_sensors = nodes;
  base.seed = seed;
  return base;
}

Status FieldOracle::Prepare(const std::string& field, int64_t round) {
  auto it = fields_.find(field);
  if (it == fields_.end()) {
    StatusOr<Scenario> scenario =
        BuildScenario(serve::ResolveField(base_, field), 0);
    if (!scenario.ok()) return scenario.status();
    it = fields_.emplace(field, Field{std::move(scenario).value(), -1, {}})
             .first;
  }
  Field& f = it->second;
  if (f.round != round) {
    f.sorted = SensorValues(*f.scenario.network,
                            f.scenario.ValuesByVertex(round));
    std::sort(f.sorted.begin(), f.sorted.end());
    f.round = round;
  }
  return Status::Ok();
}

StatusOr<int64_t> FieldOracle::Kth(const std::string& field, int64_t round,
                                   int64_t rank) {
  Status status = Prepare(field, round);
  if (!status.ok()) return status;
  const std::vector<int64_t>& sorted = fields_.at(field).sorted;
  if (rank < 1 || rank > static_cast<int64_t>(sorted.size())) {
    return Status::OutOfRange("rank outside the field's sensor count");
  }
  return OracleKthSorted(sorted, rank);
}

}  // namespace benchmark
}  // namespace wsnq
