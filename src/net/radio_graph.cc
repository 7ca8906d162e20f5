#include "net/radio_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace wsnq {
namespace internal {

RadioGrid::RadioGrid(const std::vector<Point2D>& points, double rho)
    : points_(&points), rho_sq_(rho * rho) {
  WSNQ_CHECK_GT(rho, 0.0);
  const int n = static_cast<int>(points.size());
  if (n == 0) return;

  // Bounding box and grid with cell size >= rho: the +-1-cell neighbour
  // scan only needs the cell to be at least rho wide, so a degenerate rho
  // (orders of magnitude below the point spread) widens the cell instead
  // of requesting a grid with more cells than memory — with rho = 0.001
  // over a 200 m area, cell size rho would mean 4e10 cells and an int
  // overflow in cols * rows.
  double max_x = points[0].x;
  double max_y = points[0].y;
  min_x_ = points[0].x;
  min_y_ = points[0].y;
  for (const auto& p : points) {
    min_x_ = std::min(min_x_, p.x);
    max_x = std::max(max_x, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_y = std::max(max_y, p.y);
  }
  const int64_t max_cells = std::max<int64_t>(64, 4 * static_cast<int64_t>(n));
  cell_ = rho;
  auto grid_dim = [](double span, double cell_size) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(span / cell_size)) + 1);
  };
  while (grid_dim(max_x - min_x_, cell_) * grid_dim(max_y - min_y_, cell_) >
         max_cells) {
    cell_ *= 2.0;
  }
  cols_ = static_cast<int>(grid_dim(max_x - min_x_, cell_));
  rows_ = static_cast<int>(grid_dim(max_y - min_y_, cell_));

  // Counting sort of the vertices into flat per-cell ranges.
  const size_t num_cells =
      static_cast<size_t>(cols_) * static_cast<size_t>(rows_);
  std::vector<int> cell_of(static_cast<size_t>(n));
  cell_start_.assign(num_cells + 1, 0);
  for (int v = 0; v < n; ++v) {
    const Point2D& p = points[static_cast<size_t>(v)];
    cell_of[static_cast<size_t>(v)] = CellY(p) * cols_ + CellX(p);
    ++cell_start_[static_cast<size_t>(cell_of[static_cast<size_t>(v)]) + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  std::vector<int> fill(cell_start_.begin(), cell_start_.end() - 1);
  members_.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const size_t c = static_cast<size_t>(cell_of[static_cast<size_t>(v)]);
    members_[static_cast<size_t>(fill[c]++)] = v;
  }
}

int RadioGrid::CellX(const Point2D& p) const {
  return std::clamp(static_cast<int>((p.x - min_x_) / cell_), 0, cols_ - 1);
}

int RadioGrid::CellY(const Point2D& p) const {
  return std::clamp(static_cast<int>((p.y - min_y_) / cell_), 0, rows_ - 1);
}

}  // namespace internal

RadioGraph::RadioGraph(std::vector<Point2D> points, double rho)
    : points_(std::move(points)), rho_(rho) {
  const internal::RadioGrid grid(points_, rho);
  const int n = size();
  // Each in-range pair is tested once, from its smaller end. v ascends, so
  // the edges come out grouped by ascending smaller end.
  std::vector<std::pair<int, int>> edges;
  std::vector<int> degree(static_cast<size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    grid.ForEachInRange(
        v, [v](int u) { return u > v; },
        [&](int u) {
          edges.emplace_back(v, u);
          ++degree[static_cast<size_t>(v)];
          ++degree[static_cast<size_t>(u)];
        });
  }
  // Exact-size lists, allocated in vertex order.
  adjacency_.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    adjacency_[static_cast<size_t>(v)].reserve(
        static_cast<size_t>(degree[static_cast<size_t>(v)]));
  }
  // Every list first gets its smaller neighbours, in ascending order ...
  for (const auto& [v, u] : edges) {
    adjacency_[static_cast<size_t>(u)].push_back(v);
  }
  // ... and mirroring those edges in ascending u appends the larger
  // neighbours in ascending order, so no list needs sorting. While u is
  // processed its own list still holds only its smaller neighbours: the
  // larger ones arrive when they are processed, later.
  for (int u = 0; u < n; ++u) {
    const size_t smaller = adjacency_[static_cast<size_t>(u)].size();
    for (size_t i = 0; i < smaller; ++i) {
      const int v = adjacency_[static_cast<size_t>(u)][i];
      adjacency_[static_cast<size_t>(v)].push_back(u);
    }
  }
}

bool RadioGraph::IsConnected() const {
  const int n = size();
  if (n <= 1) return true;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int visited = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int u : neighbors(v)) {
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

}  // namespace wsnq
