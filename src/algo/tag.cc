#include "algo/tag.h"

#include "util/check.h"
#include "util/trace.h"

namespace wsnq {

void TagProtocol::RunRound(Network* net,
                           const std::vector<int64_t>& values_by_vertex,
                           int64_t round) {
  if (round == 0) {
    // Query dissemination: broadcast k into the tree once.
    net->FloodFromRoot(wire_.counter_bits);
  }
  WSNQ_TRACE_SCOPE("validation", "collect_k_smallest", -1, {"k", k_});
  const std::vector<int64_t>& collected =
      CollectKSmallest(net, values_by_vertex, k_, wire_, &ws_);
  if (!net->lossy()) {
    WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), k_);
  }
  quantile_ = BestEffortKth(collected, k_, quantile_);
  counts_ = CountsFromCollection(collected, quantile_, net->num_sensors());
  if (!net->lossy()) {
    // A complete TAG collection certifies the exact rank: the reported
    // quantile was observed (e >= 1) and its rank brackets k.
    WSNQ_DCHECK(CountsConserved(counts_, net->num_sensors()));
    WSNQ_DCHECK_GE(counts_.e, 1);
    WSNQ_DCHECK(CountsValid(counts_, k_));
  }
}

}  // namespace wsnq
