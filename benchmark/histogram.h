// Log-linear latency histogram shared by the benchmark programs: exact
// below 64 ns, then 64 equal-width buckets per power of two, so any
// percentile read back from it is within one bucket (<= 1/64 relative) of
// the exact order statistic. Buckets are emitted self-describing as
// [lower_ns, upper_ns, count] triples, so benchmark/benchstats.py reads them
// without knowing the bucket scheme.

#ifndef WSNQ_BENCHMARK_HISTOGRAM_H_
#define WSNQ_BENCHMARK_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace wsnq {
namespace benchmark {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int64_t kSub = int64_t{1} << kSubBits;
  static constexpr int64_t kMaxNs = int64_t{1} << 40;  // ~18 minutes
  static constexpr size_t kBuckets = static_cast<size_t>(kSub) * 36;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  /// Records one sample [ns], clamped to [0, kMaxNs].
  void Record(int64_t ns) {
    ++counts_[Index(ns < 0 ? 0 : (ns > kMaxNs ? kMaxNs : ns))];
    ++total_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  int64_t total() const { return total_; }

  static size_t Index(int64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int k = std::bit_width(static_cast<uint64_t>(v)) - 1;
    const int g = k - kSubBits;
    return static_cast<size_t>(g * kSub + (v >> g));
  }
  static int64_t Lower(size_t index) {
    const int64_t i = static_cast<int64_t>(index);
    if (i < 2 * kSub) return i;
    const int g = static_cast<int>(i / kSub) - 1;
    return (i - g * kSub) << g;
  }
  static int64_t Upper(size_t index) {
    const int64_t i = static_cast<int64_t>(index);
    if (i < 2 * kSub) return i + 1;
    const int g = static_cast<int>(i / kSub) - 1;
    return (i - g * kSub + 1) << g;
  }

  /// Sparse JSON array of [lower_ns, upper_ns, count] for non-empty buckets.
  std::string ToJson() const {
    std::string out(1, '[');
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      out.append(out.size() > 1 ? ",[" : "[").append(std::to_string(Lower(i)));
      out.append(",").append(std::to_string(Upper(i))).append(",");
      out.append(std::to_string(counts_[i])).append("]");
    }
    out.push_back(']');
    return out;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace benchmark
}  // namespace wsnq

#endif  // WSNQ_BENCHMARK_HISTOGRAM_H_
