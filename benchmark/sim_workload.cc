#include "sim_workload.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "json_line.h"

namespace wsnq {
namespace benchmark {
namespace {

StatusOr<double> ParseNumber(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("bad number for " + key + ": " + text);
  }
  return value;
}

Status ApplyPointKey(const std::string& key, const std::string& value,
                     SweepPoint* point) {
  SimulationConfig& c = point->config;
  if (key == "x") {
    point->x_value = value;
    return Status::Ok();
  }
  if (key == "loss_model") {
    if (value == "iid") {
      c.fault.loss_model = LossModel::kIid;
    } else if (value == "ge") {
      c.fault.loss_model = LossModel::kGilbertElliott;
    } else {
      return Status::InvalidArgument("loss_model must be iid or ge");
    }
    return Status::Ok();
  }
  StatusOr<double> number = ParseNumber(key, value);
  if (!number.ok()) return number.status();
  const double v = number.value();
  if (key == "nodes") {
    c.num_sensors = static_cast<int>(v);
  } else if (key == "rho") {
    c.radio_range = v;
  } else if (key == "rounds") {
    c.rounds = static_cast<int>(v);
  } else if (key == "seed") {
    c.seed = static_cast<uint64_t>(v);
  } else if (key == "threads") {
    c.threads = static_cast<int>(v);
  } else if (key == "subtree_parallel") {
    c.subtree_parallel = v != 0.0;
  } else if (key == "period") {
    c.synthetic.period_rounds = v;
  } else if (key == "noise") {
    c.synthetic.noise_percent = v;
  } else if (key == "loss") {
    c.fault.loss = v;
  } else if (key == "burst") {
    c.fault.burst_len = v;
  } else if (key == "arq") {
    c.fault.arq.enabled = v != 0.0;
  } else {
    return Status::InvalidArgument("unknown point key: " + key);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SimWorkload> LoadSimWorkload(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read workload file " + path);
  SimWorkload workload;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string token;
    tokens >> token;
    if (token == "point") {
      SweepPoint point;
      while (tokens >> token) {
        const size_t eq = token.find('=');
        if (eq == std::string::npos) {
          return Status::InvalidArgument("expected key=value: " + token);
        }
        Status status =
            ApplyPointKey(token.substr(0, eq), token.substr(eq + 1), &point);
        if (!status.ok()) return status;
      }
      workload.points.push_back(point);
      continue;
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "runs") {
      workload.runs = std::atoi(value.c_str());
    } else if (key == "protocols") {
      std::istringstream names(value);
      std::string name;
      while (std::getline(names, name, ',')) {
        StatusOr<AlgorithmKind> kind = ParseAlgorithmName(name.c_str());
        if (!kind.ok()) return kind.status();
        workload.protocols.push_back(kind.value());
      }
    } else {
      return Status::InvalidArgument("unknown workload key: " + key);
    }
  }
  if (workload.points.empty() || workload.protocols.empty() ||
      workload.runs < 1) {
    return Status::InvalidArgument(
        "workload needs runs >= 1, protocols and at least one point");
  }
  return workload;
}

SimOutcome Summarize(const SimWorkload& workload,
                     const std::vector<SweepPointResult>& results) {
  SimOutcome outcome;
  int64_t cells = 0;
  for (size_t p = 0; p < results.size(); ++p) {
    const SimulationConfig& config = workload.points[p].config;
    const int64_t rounds_per_run = int64_t{config.rounds} + 1;
    for (const AlgorithmAggregate& agg : results[p].aggregates) {
      outcome.hotspot_mj += agg.max_round_energy_mj.mean();
      outcome.packets_per_round += agg.packets.mean();
      outcome.errors += agg.errors;
      const int64_t rounds = rounds_per_run * agg.runs;
      outcome.protocol_rounds += rounds;
      outcome.vertex_rounds +=
          rounds * config.num_sensors * config.values_per_node;
      ++cells;
    }
  }
  if (cells > 0) {
    outcome.hotspot_mj /= static_cast<double>(cells);
    outcome.packets_per_round /= static_cast<double>(cells);
  }
  return outcome;
}

std::string OutcomeJson(const SimOutcome& outcome,
                        const std::vector<SweepPointResult>& results) {
  std::string cells = "[";
  for (const SweepPointResult& point : results) {
    for (const AlgorithmAggregate& agg : point.aggregates) {
      if (cells.size() > 1) cells += ",";
      cells += JsonLine()
                   .Str("x", point.x_value)
                   .Str("protocol", agg.label)
                   .Num("hotspot_mj", agg.max_round_energy_mj.mean())
                   .Num("packets_per_round", agg.packets.mean())
                   .Int("errors", agg.errors)
                   .str();
    }
  }
  return JsonLine()
      .Num("hotspot_mj", outcome.hotspot_mj)
      .Num("packets_per_round", outcome.packets_per_round)
      .Int("errors", outcome.errors)
      .Int("protocol_rounds", outcome.protocol_rounds)
      .Int("vertex_rounds", outcome.vertex_rounds)
      .Raw("cells", cells + "]")
      .str();
}

}  // namespace benchmark
}  // namespace wsnq
