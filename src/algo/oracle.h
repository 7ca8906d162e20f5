// Centralized ground truth: exact order statistics over a snapshot. Used by
// the run loop's exactness check (core/simulation.cc counts one value row
// per round through OracleCounts + OracleRankErrorFromCounts), by the test
// suite to verify every protocol's answer and bookkeeping, and by
// protocols' internal assertions in debug builds. Performs no communication.

#ifndef WSNQ_ALGO_ORACLE_H_
#define WSNQ_ALGO_ORACLE_H_

#include <cstdint>
#include <vector>

#include "algo/protocol.h"
#include "net/network.h"

namespace wsnq {

/// Exact k-th smallest (1-based rank) of `sensor_values`.
/// Precondition: 1 <= k <= sensor_values.size().
int64_t OracleKth(const std::vector<int64_t>& sensor_values, int64_t k);

/// Exact (l, e, g) of `threshold` over `sensor_values`: one branchless
/// pass, no copy.
RootCounts OracleCounts(const std::vector<int64_t>& sensor_values,
                        int64_t threshold);

/// Rank error of reporting the value whose (l, e) counts are `counts` as
/// the k-th smallest: 0 when some occurrence has rank k (l < k <= l + e,
/// i.e. the value is exactly the k-th smallest), else the distance from k
/// to the nearest rank the value could take (§6's rank-error notion for
/// lossy links). The one definition every OracleRankError* shares.
int64_t OracleRankErrorFromCounts(const RootCounts& counts, int64_t k);

/// Rank error of reporting `reported` as the k-th smallest of
/// `sensor_values` (OracleRankErrorFromCounts over OracleCounts).
int64_t OracleRankError(const std::vector<int64_t>& sensor_values,
                        int64_t reported, int64_t k);

/// OracleKth over an ascending-sorted snapshot: O(1) instead of a copy
/// plus selection. Values are integers, so sorted[k-1] is exactly the
/// value nth_element selects. Kept for the benchmark's hand-written
/// replay only (benchmark/sim_replay.cc, benchmark/serve_workload.cc); the
/// run loop counts instead of sorting. Deleted once that replay calls
/// RunSweep itself (ROADMAP.md, "Per-phase wall time from the real run
/// loop").
int64_t OracleKthSorted(const std::vector<int64_t>& sorted_sensor_values,
                        int64_t k);

/// OracleRankError over an ascending-sorted snapshot: two binary searches
/// give the same (l, e) counts a linear scan would. Benchmark replay only,
/// like OracleKthSorted.
int64_t OracleRankErrorSorted(
    const std::vector<int64_t>& sorted_sensor_values, int64_t reported,
    int64_t k);

/// Extracts the sensor measurements (every vertex except the root) from a
/// per-vertex value vector.
std::vector<int64_t> SensorValues(const Network& net,
                                  const std::vector<int64_t>& values_by_vertex);

}  // namespace wsnq

#endif  // WSNQ_ALGO_ORACLE_H_
