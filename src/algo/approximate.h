// The other two classes of the paper's §3.1 taxonomy, built from scratch so
// the exact protocols have something to be compared against
// (bench/ext_approx_tradeoff):
//
//  * approximate algorithms — bounded-size quantile summaries aggregated up
//    the tree: QdigestProtocol (Shrivastava et al. [26]) and GkProtocol
//    (Greenwald & Khanna [10]); deterministic rank error bounds;
//  * probabilistic algorithms — SamplingProtocol (cf. [1, 4, 14]): every
//    node reports its value with probability p, the root reads the quantile
//    off the sample; no hard bound, but concentration makes large errors
//    unlikely.
//
// All three implement QuantileProtocol but do NOT promise exactness;
// measure them with the rank-error metric, not the oracle-equality check.

#ifndef WSNQ_ALGO_APPROXIMATE_H_
#define WSNQ_ALGO_APPROXIMATE_H_

#include <cstdint>
#include <vector>

#include "algo/common.h"
#include "algo/protocol.h"
#include "sketch/gk_summary.h"
#include "sketch/qdigest.h"

namespace wsnq {

/// Per-round q-digest aggregation.
class QdigestProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Compression parameter k of the q-digest; error <= N * height / k.
    int64_t compression = 32;
  };

  QdigestProtocol(int64_t k, int64_t range_min, int64_t range_max,
                  const WireFormat& wire, const Options& options);

  const char* name() const override { return "QDIGEST"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return quantile_; }
  RootCounts root_counts() const override { return counts_; }

  /// Worst-case absolute rank error of the last answer.
  int64_t last_error_bound() const { return last_error_bound_; }

 private:
  int64_t k_;
  int64_t range_min_;
  int height_;
  WireFormat wire_;
  Options options_;
  int64_t quantile_ = 0;
  int64_t last_error_bound_ = 0;
  RootCounts counts_;
  /// Per-vertex digest rows of the convergecast wave.
  std::vector<QDigest> rows_;
};

/// Per-round Greenwald-Khanna summary aggregation.
class GkProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Summary error parameter; rank error <= epsilon * |N| per merge
    /// level in the worst case.
    double epsilon = 0.05;
  };

  GkProtocol(int64_t k, int64_t range_min, int64_t range_max,
             const WireFormat& wire, const Options& options);

  const char* name() const override { return "GK"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return quantile_; }
  RootCounts root_counts() const override { return counts_; }

 private:
  int64_t k_;
  WireFormat wire_;
  Options options_;
  int64_t quantile_ = 0;
  RootCounts counts_;
  /// Per-vertex summary rows of the convergecast wave.
  std::vector<GkSummary> rows_;
};

/// Per-round Bernoulli sampling (probabilistic).
class SamplingProtocol : public QuantileProtocol {
 public:
  struct Options {
    /// Inclusion probability of every node's measurement.
    double probability = 0.25;
    /// Seed of the (deterministic, per-node/round) sampling hash.
    uint64_t seed = 99;
  };

  SamplingProtocol(int64_t k, int64_t range_min, int64_t range_max,
                   const WireFormat& wire, const Options& options);

  const char* name() const override { return "SAMPLE"; }
  void RunRound(Network* net, const std::vector<int64_t>& values_by_vertex,
                int64_t round) override;
  int64_t quantile() const override { return quantile_; }
  RootCounts root_counts() const override { return counts_; }

 private:
  int64_t k_;
  WireFormat wire_;
  Options options_;
  int64_t quantile_ = 0;
  RootCounts counts_;
  WaveWorkspace ws_;
};

}  // namespace wsnq

#endif  // WSNQ_ALGO_APPROXIMATE_H_
