// Traced replay of a simulator workload: the same inputs as the untraced
// RunSweep pass, fed serially through the layer functions RunSweep uses
// (ScenarioCache::Prepare/Build, WaveExecutor, Scenario::Materialize*,
// factory make, Network::ResetAccounting/BeginRound,
// QuantileProtocol::RunRound, OracleKthSorted/OracleRankErrorSorted), one
// call at a time, with a span around each call.

#ifndef WSNQ_BENCHMARK_SIM_REPLAY_H_
#define WSNQ_BENCHMARK_SIM_REPLAY_H_

#include <string>

#include "sim_workload.h"
#include "spans.h"
#include "util/status.h"

namespace wsnq {
namespace benchmark {

/// Replays `workload` into `recorder`; returns the replay's JSON report
/// (outcome, per-span self times, per-protocol and fault-layer counts).
StatusOr<std::string> RunSimReplay(const SimWorkload& workload,
                                   SpanRecorder* recorder);

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_SIM_REPLAY_H_
