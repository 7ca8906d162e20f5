// Simulator workload inputs and the deterministic outcome both the untraced
// pass and the traced replay report. benchmark/run.py generates the input
// file from the workload name and seed; the programs see only that file.
//
// Input format, one item per line ('#' starts a comment):
//
//   runs=20
//   protocols=TAG,POS,HBC,IQ,LCLL-H,LCLL-S
//   point x=128 nodes=128 rho=35 rounds=250 seed=7 threads=4 ...
//
// Point keys: x (report label), nodes, rho, rounds, seed, threads,
// subtree_parallel, period, noise, loss, loss_model (iid|ge), burst, arq.
// Unset keys keep SimulationConfig's defaults.

#ifndef WSNQ_BENCHMARK_SIM_WORKLOAD_H_
#define WSNQ_BENCHMARK_SIM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/experiment.h"
#include "util/status.h"

namespace wsnq {
namespace benchmark {

struct SimWorkload {
  std::vector<SweepPoint> points;
  std::vector<AlgorithmKind> protocols;
  int runs = 1;
};

StatusOr<SimWorkload> LoadSimWorkload(const std::string& path);

/// Deterministic result of one pass over a workload.
struct SimOutcome {
  /// Mean over (point, protocol) of max_round_energy_mj.mean() [mJ].
  double hotspot_mj = 0.0;
  /// Mean over (point, protocol) of packets.mean().
  double packets_per_round = 0.0;
  /// Oracle mismatches (AlgorithmAggregate::errors), summed.
  int64_t errors = 0;
  /// Protocol rounds simulated: points x runs x protocols x (rounds + 1).
  int64_t protocol_rounds = 0;
  /// Vertex-rounds: protocol rounds weighted by the point's |N|.
  int64_t vertex_rounds = 0;
};

/// Folds RunSweep-shaped results into the outcome. Both the untraced pass
/// and the replay call this on identically accumulated aggregates, which is
/// what lets run.py compare their hotspot/packet values exactly.
SimOutcome Summarize(const SimWorkload& workload,
                     const std::vector<SweepPointResult>& results);

/// JSON object with the outcome plus per-(point, protocol)
/// hotspot/packets/errors; doubles round-trip exactly.
std::string OutcomeJson(const SimOutcome& outcome,
                        const std::vector<SweepPointResult>& results);

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_SIM_WORKLOAD_H_
