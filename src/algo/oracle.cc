#include "algo/oracle.h"

#include <algorithm>

#include "util/check.h"

namespace wsnq {

int64_t OracleKth(const std::vector<int64_t>& sensor_values, int64_t k) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(k, static_cast<int64_t>(sensor_values.size()));
  std::vector<int64_t> copy = sensor_values;
  std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end());
  return copy[static_cast<size_t>(k - 1)];
}

RootCounts OracleCounts(const std::vector<int64_t>& sensor_values,
                        int64_t threshold) {
  RootCounts counts;
  for (const int64_t v : sensor_values) {
    counts.l += v < threshold;
    counts.e += v == threshold;
  }
  counts.g = static_cast<int64_t>(sensor_values.size()) - counts.l - counts.e;
  return counts;
}

int64_t OracleRankErrorFromCounts(const RootCounts& counts, int64_t k) {
  if (k <= counts.l) return counts.l + 1 - k;  // reported sits too high
  if (k > counts.l + counts.e) return k - (counts.l + counts.e);  // too low
  return 0;
}

int64_t OracleRankError(const std::vector<int64_t>& sensor_values,
                        int64_t reported, int64_t k) {
  return OracleRankErrorFromCounts(OracleCounts(sensor_values, reported), k);
}

int64_t OracleRankErrorOfRow(const std::vector<int64_t>& values_by_vertex,
                             int root, int64_t reported, int64_t k) {
  RootCounts counts = OracleCounts(values_by_vertex, reported);
  const int64_t root_value = values_by_vertex[static_cast<size_t>(root)];
  counts.l -= root_value < reported;
  counts.e -= root_value == reported;
  counts.g -= root_value > reported;
  return OracleRankErrorFromCounts(counts, k);
}

int64_t OracleKthSorted(const std::vector<int64_t>& sorted_sensor_values,
                        int64_t k) {
  WSNQ_CHECK_GE(k, 1);
  WSNQ_CHECK_LE(k, static_cast<int64_t>(sorted_sensor_values.size()));
  WSNQ_DCHECK(std::is_sorted(sorted_sensor_values.begin(),
                             sorted_sensor_values.end()));
  return sorted_sensor_values[static_cast<size_t>(k - 1)];
}

int64_t OracleRankErrorSorted(
    const std::vector<int64_t>& sorted_sensor_values, int64_t reported,
    int64_t k) {
  const auto lo = std::lower_bound(sorted_sensor_values.begin(),
                                   sorted_sensor_values.end(), reported);
  const auto hi = std::upper_bound(lo, sorted_sensor_values.end(), reported);
  RootCounts counts;
  counts.l = lo - sorted_sensor_values.begin();
  counts.e = hi - lo;
  counts.g = sorted_sensor_values.end() - hi;
  return OracleRankErrorFromCounts(counts, k);
}

std::vector<int64_t> SensorValues(
    const Network& net, const std::vector<int64_t>& values_by_vertex) {
  std::vector<int64_t> sensors;
  sensors.reserve(static_cast<size_t>(net.num_sensors()));
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (!net.is_root(v)) {
      sensors.push_back(values_by_vertex[static_cast<size_t>(v)]);
    }
  }
  return sensors;
}

}  // namespace wsnq
