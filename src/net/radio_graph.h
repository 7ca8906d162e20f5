// The physical communication graph G_p of §2: an undirected unit-disk graph
// whose vertices are node positions and whose edges connect every pair of
// nodes within radio range rho. Adjacency is built with a uniform spatial
// grid, so construction is O(V + E) in expectation.

#ifndef WSNQ_NET_RADIO_GRAPH_H_
#define WSNQ_NET_RADIO_GRAPH_H_

#include <cstddef>
#include <vector>

#include "net/geometry.h"

namespace wsnq {

namespace internal {

/// Uniform grid over a point set with cells at least rho wide, so every
/// pair within range lies in the same or an adjacent cell. The one
/// neighbour scan behind both RadioGraph's adjacency and the placement
/// connectivity check (net/placement.h), which therefore agree by
/// construction. Borrows `points`; they must outlive the grid.
class RadioGrid {
 public:
  RadioGrid(const std::vector<Point2D>& points, double rho);

  /// Calls visit(u) for every u != v with keep(u) and
  /// SquaredDistance(point v, point u) <= rho^2. `keep` is asked first, so
  /// it can spare the distance test.
  template <typename Keep, typename Visit>
  void ForEachInRange(int v, Keep keep, Visit visit) const {
    const Point2D& p = (*points_)[static_cast<size_t>(v)];
    const int cx = CellX(p);
    const int cy = CellY(p);
    for (int ny = cy - 1; ny <= cy + 1; ++ny) {
      if (ny < 0 || ny >= rows_) continue;
      for (int nx = cx - 1; nx <= cx + 1; ++nx) {
        if (nx < 0 || nx >= cols_) continue;
        const size_t cell = static_cast<size_t>(ny * cols_ + nx);
        for (int i = cell_start_[cell]; i < cell_start_[cell + 1]; ++i) {
          const int u = members_[static_cast<size_t>(i)];
          if (u == v || !keep(u)) continue;
          if (SquaredDistance(p, (*points_)[static_cast<size_t>(u)]) <=
              rho_sq_) {
            visit(u);
          }
        }
      }
    }
  }

 private:
  int CellX(const Point2D& p) const;
  int CellY(const Point2D& p) const;

  const std::vector<Point2D>* points_;
  double rho_sq_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_ = 1.0;
  int cols_ = 0;
  int rows_ = 0;
  /// Cell c holds members_[cell_start_[c], cell_start_[c + 1]).
  std::vector<int> cell_start_;
  std::vector<int> members_;
};

}  // namespace internal

/// Immutable unit-disk graph over a set of positions.
class RadioGraph {
 public:
  /// Builds the graph; O(V + E) expected using grid bucketing.
  RadioGraph(std::vector<Point2D> points, double rho);

  int size() const { return static_cast<int>(points_.size()); }
  double rho() const { return rho_; }
  const Point2D& point(int v) const { return points_[static_cast<size_t>(v)]; }
  const std::vector<Point2D>& points() const { return points_; }

  /// Neighbours of `v` (all u != v with dist(u, v) <= rho), ascending.
  const std::vector<int>& neighbors(int v) const {
    return adjacency_[static_cast<size_t>(v)];
  }

  /// True iff the graph is connected (BFS from vertex 0).
  bool IsConnected() const;

 private:
  std::vector<Point2D> points_;
  double rho_;
  std::vector<std::vector<int>> adjacency_;
};

}  // namespace wsnq

#endif  // WSNQ_NET_RADIO_GRAPH_H_
