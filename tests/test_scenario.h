// Shared helpers for protocol-level tests: deterministic small scenarios
// and a scripted value feed whose measurements the test controls exactly.

#ifndef WSNQ_TESTS_TEST_SCENARIO_H_
#define WSNQ_TESTS_TEST_SCENARIO_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/placement.h"
#include "net/radio_graph.h"
#include "util/rng.h"

namespace wsnq {
namespace testing_support {

/// A line network 0 - 1 - ... - (n-1) rooted at `root`.
inline Network MakeLineNetwork(int n, int root = 0) {
  std::vector<Point2D> points;
  for (int i = 0; i < n; ++i) points.push_back({i * 10.0, 0.0});
  auto net = Network::Create(RadioGraph(std::move(points), 10.5), root,
                             EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// A random connected 2-D network.
inline Network MakeRandomNetwork(int sensors, uint64_t seed,
                                 double rho = 60.0) {
  Rng rng(seed);
  auto placement = ConnectedPlacement(sensors + 1, 200.0, 200.0, rho, &rng);
  auto net = Network::Create(RadioGraph(std::move(placement).value(), rho),
                             /*root=*/0, EnergyModel{}, Packetizer{});
  return std::move(net).value();
}

/// Per-vertex measurement script: values[round][vertex]; the root's column
/// is ignored by protocols.
using ValueScript = std::vector<std::vector<int64_t>>;

}  // namespace testing_support
}  // namespace wsnq

#endif  // WSNQ_TESTS_TEST_SCENARIO_H_
