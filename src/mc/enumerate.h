// Bounded-exhaustive enumeration of the fault schedule space.
//
// The canonical space is DFS-generated: starting from the empty schedule,
// a schedule with drops d_1 < ... < d_j is extended by every next ordinal
// d_{j+1} in (d_j, frames_sent(d_1..d_j)). Prefix determinism — a drop at
// ordinal o cannot change any frame before o — makes this sound and
// complete: every enumerated drop hits a frame the run actually sends, and
// every schedule whose drops all hit sent frames is reached exactly once.
// Schedules containing an unreachable drop (a frame never sent cannot be
// dropped) are exactly the ones pruned; the report quantifies them against
// the naive mask space sum_j C(F_cap, j).
//
// Parallelization: work splits into tasks of (protocol, crash spec,
// first-drop range); each task explores its DFS subtrees serially over a
// privately built scenario and writes into an index-addressed slot, and
// the caller folds slots in task order — explored/pruned/distinct counts
// are bit-identical for every --threads value.

#ifndef WSNQ_MC_ENUMERATE_H_
#define WSNQ_MC_ENUMERATE_H_

#include <cstdint>
#include <vector>

#include "mc/mc.h"
#include "util/status.h"

namespace wsnq {

/// Every crash spec of the bounded space: no-crash first, then (victim
/// ascending x crash_round ascending x crash_lens in option order) when
/// max_crashes >= 1. Rounds are [1, rounds - 1] so both the crash and (for
/// short windows) the recovery transition fall inside the horizon.
/// Victims and `root` are labels (net/network.h).
std::vector<McCrashSpec> EnumerateCrashSpecs(const McOptions& options,
                                             int num_vertices, int root);

/// What one enumeration observed, folded deterministically.
struct EnumerationResult {
  McStats stats;
  /// First violations, in deterministic (protocol, crash spec, DFS) order;
  /// capped at kMaxViolations to bound a badly broken run.
  std::vector<McViolation> violations;

  static constexpr int kMaxViolations = 32;
};

/// Explores the full bounded space under `options`. Fails only on
/// scenario-construction errors (e.g. a disconnected placement).
StatusOr<EnumerationResult> RunEnumeration(const McOptions& options);

}  // namespace wsnq

#endif  // WSNQ_MC_ENUMERATE_H_
