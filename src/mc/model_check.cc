#include "mc/model_check.h"

#include <string>
#include <utility>
#include <vector>

#include "mc/enumerate.h"
#include "mc/minimize.h"
#include "mc/runner.h"
#include "mc/schedule.h"

namespace wsnq {

StatusOr<McReport> RunModelCheck(const McOptions& options) {
  StatusOr<EnumerationResult> enumeration = RunEnumeration(options);
  if (!enumeration.ok()) return enumeration.status();

  McReport report;
  report.stats = enumeration.value().stats;
  if (enumeration.value().violations.empty()) return report;

  // Minimize serially over one reusable context — violations are the rare
  // path, and serial probes keep the minimization order deterministic.
  StatusOr<McContext> context = BuildMcContext(options);
  if (!context.ok()) return context.status();
  for (const McViolation& violation : enumeration.value().violations) {
    const McViolation minimal =
        MinimizeViolation(&context.value(), options, violation);
    McRepro repro;
    repro.invariant = minimal.invariant;
    repro.algo = minimal.algo;
    repro.options = options;
    repro.schedule = minimal.schedule;
    repro.detail = minimal.detail;
    report.repros.push_back(repro);
  }
  return report;
}

StatusOr<ScheduleResult> ReplayRepro(const McRepro& repro) {
  StatusOr<McContext> context = BuildMcContext(repro.options);
  if (!context.ok()) return context.status();
  // The root is drawn with the deployment, so only now can a victim be
  // checked against it; the sink never crashes.
  const Network& net = *context.value().scenario.network;
  if (repro.schedule.crash.victim == net.label(net.root())) {
    return Status::InvalidArgument(
        "repro: crash victim " + std::to_string(repro.schedule.crash.victim) +
        " is the root");
  }
  return RunSchedule(&context.value(), repro.options, repro.algo,
                     repro.schedule);
}

std::string StatsToJson(const McOptions& options, const McStats& stats) {
  std::string out = "{\n";
  out += "  \"nodes\": " + std::to_string(options.nodes) + ",\n";
  out += "  \"rounds\": " + std::to_string(options.rounds) + ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"max_drops\": " + std::to_string(options.max_drops) + ",\n";
  out += "  \"max_crashes\": " + std::to_string(options.max_crashes) + ",\n";
  out += "  \"crash_max_drops\": " + std::to_string(options.crash_max_drops) +
         ",\n";
  out += "  \"subspaces\": " + std::to_string(stats.subspaces) + ",\n";
  out += "  \"crash_specs\": " + std::to_string(stats.crash_specs) + ",\n";
  out += "  \"explored\": " + std::to_string(stats.explored) + ",\n";
  out += "  \"pruned\": " + std::to_string(stats.pruned) + ",\n";
  out += "  \"naive_total\": " + std::to_string(stats.naive_total) + ",\n";
  out += "  \"max_frames\": " + std::to_string(stats.max_frames) + ",\n";
  out += "  \"distinct_states\": " + std::to_string(stats.distinct_states) +
         ",\n";
  out += "  \"duplicate_states\": " + std::to_string(stats.duplicate_states) +
         ",\n";
  out += "  \"violations\": " + std::to_string(stats.violations) + "\n";
  out += "}\n";
  return out;
}

}  // namespace wsnq
