#include "net/placement.h"

#include <cmath>
#include <utility>
#include <vector>

#include "net/radio_graph.h"
#include "util/check.h"

namespace wsnq {

std::vector<Point2D> UniformPlacement(int count, double width, double height,
                                      Rng* rng) {
  WSNQ_CHECK_GT(count, 0);
  std::vector<Point2D> points(static_cast<size_t>(count));
  for (auto& p : points) {
    p.x = rng->UniformDouble(0.0, width);
    p.y = rng->UniformDouble(0.0, height);
  }
  return points;
}

std::vector<Point2D> JitteredGridPlacement(int count, double width,
                                           double height,
                                           double jitter_fraction, Rng* rng) {
  WSNQ_CHECK_GT(count, 0);
  const int side = static_cast<int>(std::ceil(std::sqrt(count)));
  const double cell_w = width / side;
  const double cell_h = height / side;
  std::vector<Point2D> points;
  points.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int gx = i % side;
    const int gy = i / side;
    const double jx = rng->UniformDouble(-jitter_fraction, jitter_fraction);
    const double jy = rng->UniformDouble(-jitter_fraction, jitter_fraction);
    points.push_back({(gx + 0.5 + jx) * cell_w, (gy + 0.5 + jy) * cell_h});
  }
  return points;
}

bool IsConnected(const std::vector<Point2D>& points, double rho) {
  // The same search as RadioGraph::IsConnected, over the grid scan that
  // builds RadioGraph's adjacency, but without materializing the
  // adjacency: a rejected placement attempt costs one scan, and the
  // search stops as soon as every vertex is reached.
  const internal::RadioGrid grid(points, rho);
  const int n = static_cast<int>(points.size());
  if (n <= 1) return true;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int visited = 1;
  while (!stack.empty() && visited < n) {
    const int v = stack.back();
    stack.pop_back();
    grid.ForEachInRange(
        v, [&](int u) { return !seen[static_cast<size_t>(u)]; },
        [&](int u) {
          seen[static_cast<size_t>(u)] = 1;
          ++visited;
          stack.push_back(u);
        });
  }
  return visited == n;
}

StatusOr<std::vector<Point2D>> ConnectedPlacement(int count, double width,
                                                  double height, double rho,
                                                  Rng* rng, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<Point2D> points = UniformPlacement(count, width, height, rng);
    if (IsConnected(points, rho)) return points;
  }
  for (double jitter : {0.25, 0.1, 0.04, 0.0}) {
    std::vector<Point2D> grid =
        JitteredGridPlacement(count, width, height, jitter, rng);
    if (IsConnected(grid, rho)) return grid;
  }
  return Status::FailedPrecondition(
      "could not generate a connected topology: radio range too small for "
      "the requested node density");
}

}  // namespace wsnq
