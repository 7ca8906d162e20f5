// Node placement strategies (§5.1.1 of the paper): nodes are distributed in
// a rectangular area; the physical neighbourhood is every node within radio
// range rho. Placement is retried until the resulting unit-disk graph is
// connected, as the paper assumes every node can reach the root.

#ifndef WSNQ_NET_PLACEMENT_H_
#define WSNQ_NET_PLACEMENT_H_

#include <vector>

#include "net/geometry.h"
#include "util/rng.h"
#include "util/status.h"

namespace wsnq {

/// Uniform-random positions of `count` nodes in [0,width] x [0,height].
std::vector<Point2D> UniformPlacement(int count, double width, double height,
                                      Rng* rng);

/// Jittered-grid positions: a regular ceil(sqrt(count))^2 grid with uniform
/// jitter of +-jitter_fraction of a cell. Gives connected topologies at much
/// smaller radio ranges than pure uniform placement.
std::vector<Point2D> JitteredGridPlacement(int count, double width,
                                           double height,
                                           double jitter_fraction, Rng* rng);

/// True iff the unit-disk graph over `points` with range `rho` is connected:
/// exactly RadioGraph(points, rho).IsConnected(), without building the
/// graph's adjacency lists.
bool IsConnected(const std::vector<Point2D>& points, double rho);

/// Draws uniform placements until one is connected under range `rho`
/// (at most `max_attempts` draws). Falls back to a jittered grid — which is
/// connected for any rho >= ~1.5 cell diagonals — and finally fails if even
/// that is disconnected.
StatusOr<std::vector<Point2D>> ConnectedPlacement(int count, double width,
                                                  double height, double rho,
                                                  Rng* rng,
                                                  int max_attempts = 50);

}  // namespace wsnq

#endif  // WSNQ_NET_PLACEMENT_H_
