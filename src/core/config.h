// Scenario configuration: everything §5.1 fixes or sweeps, in one struct.

#ifndef WSNQ_CORE_CONFIG_H_
#define WSNQ_CORE_CONFIG_H_

#include <cstdint>

#include "algo/common.h"
#include "data/pressure_trace.h"
#include "data/synthetic_trace.h"
#include "fault/fault_plan.h"
#include "net/energy_model.h"
#include "net/packetizer.h"
#include "net/spanning_tree.h"

namespace wsnq {

/// Which measurement workload drives the simulation.
enum class DatasetKind {
  kSynthetic,  ///< §5.1.2: noise-image field + sinusoid + noise
  kPressure,   ///< §5.1.3: air-pressure traces + SOM placement
};

/// One full scenario (§5.1): deployment, radio, workload, and query.
struct SimulationConfig {
  // Deployment (§5.1.1 / Table 2).
  int num_sensors = 256;
  /// Measurements per physical node (§2: "additional values could be
  /// interpreted as received from artificial child nodes"). Each extra
  /// value materializes as a colocated vertex, so |N| =
  /// num_sensors * values_per_node and the quantile spans all values.
  /// Synthetic dataset only.
  int values_per_node = 1;
  double area_width = 200.0;
  double area_height = 200.0;
  double radio_range = 35.0;
  /// Parent-selection policy of the routing tree (§5.1.1 uses the
  /// shortest-path tree; the alternatives are [23]-style ablations).
  ParentSelection tree_strategy = ParentSelection::kNearest;

  // Query: rank k = max(1, floor(phi * |N|)); phi = 0.5 is the median.
  double phi = 0.5;

  /// Update rounds after the initialization round (§5.1.7: 250).
  int rounds = 250;

  DatasetKind dataset = DatasetKind::kSynthetic;
  SyntheticTrace::Options synthetic;
  PressureTrace::Options pressure;
  /// Pressure measurements are rescaled onto [0, 2^pressure_scale_bits - 1]
  /// (§5.2.5; see data/range_scaler.h).
  int pressure_scale_bits = 16;

  EnergyModel energy;
  Packetizer packetizer;
  WireFormat wire;

  /// Fault injection — the §6 future-work experiment, grown into a full
  /// subsystem (src/fault/, docs/robustness.md): per-link loss (i.i.d. or
  /// Gilbert–Elliott bursty), scheduled node churn with tree repair, and
  /// stop-and-wait ARQ. Defaults keep the paper's reliable-link
  /// assumption; `fault.loss > 0` without ARQ trades exactness for a
  /// measured rank error, with ARQ buys it back in retransmit energy.
  FaultConfig fault;

  /// Master seed; runs derive their own streams from it.
  uint64_t seed = 1;

  /// Worker threads for multi-run experiments (core/experiment.h): runs
  /// fan out over the deterministic pool in util/thread_pool.h and are
  /// folded back in run order, so results are bit-identical for every
  /// value. 0 = auto (WSNQ_THREADS env var, else hardware concurrency);
  /// 1 = serial (a size-1 pool runs every run inline in index order).
  int threads = 0;

  /// Partition every convergecast wave at a balanced cut of the routing
  /// tree's subtrees and simulate the parts as independent pool tasks
  /// (net/wave.h), replaying recorded sends in exact serial post order.
  /// Aggregates, metrics, and traces are bit-identical to the serial sweep
  /// for every thread count and partition choice; off by default.
  bool subtree_parallel = false;

  /// Verify every round's answer against the centralized oracle (cheap;
  /// leave on outside micro-benchmarks).
  bool check_oracle = true;

  /// Fill SimulationResult::metrics with per-depth energy/packet
  /// breakdowns, payload-bit histograms, and refinement-round
  /// distributions (core/metrics_registry.h; exported via --metrics).
  /// Off by default — the default runs pay nothing for the registry.
  bool collect_metrics = false;

  int64_t RankK() const {
    const int64_t k = static_cast<int64_t>(phi * num_sensors);
    return k < 1 ? 1 : (k > num_sensors ? num_sensors : k);
  }
};

}  // namespace wsnq

#endif  // WSNQ_CORE_CONFIG_H_
