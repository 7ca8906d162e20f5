// The round-driven simulation loop: feeds measurements to a protocol round
// by round, accounts communication through the scenario's Network, verifies
// exactness against the centralized oracle, and aggregates §5.1.5's
// metrics.

#ifndef WSNQ_CORE_SIMULATION_H_
#define WSNQ_CORE_SIMULATION_H_

#include "algo/protocol.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/scenario.h"

namespace wsnq {

/// Runs `protocol` for `rounds` update rounds (plus the initialization
/// round 0) over `scenario`, checking every round's answer against the
/// exactness oracle. Resets the network accounting first, so
/// several protocols can be replayed over one scenario. Set `keep_trail`
/// to retain per-round records (Fig. 4-style traces); set
/// `collect_metrics` to fill SimulationResult::metrics with per-depth
/// energy/packet breakdowns, payload-bit histograms, and the
/// refinement-round distribution (core/metrics_registry.h).
SimulationResult RunSimulation(const Scenario& scenario,
                               QuantileProtocol* protocol, int rounds,
                               bool keep_trail = false,
                               bool collect_metrics = false);

}  // namespace wsnq

#endif  // WSNQ_CORE_SIMULATION_H_
