// The logical routing tree G_l of §2: the physical edge set is reduced to a
// shortest-path tree rooted at the sink (§5.1.1). Shortest paths are by hop
// count; among equal-hop parent candidates the geometrically nearest one is
// chosen, which keeps per-link transmit distances (and thus the distance-
// dependent energy term) small.

#ifndef WSNQ_NET_SPANNING_TREE_H_
#define WSNQ_NET_SPANNING_TREE_H_

#include <cstdint>
#include <vector>

#include "net/radio_graph.h"
#include "util/status.h"

namespace wsnq {

/// A rooted spanning tree over the vertices of a RadioGraph.
struct SpanningTree {
  int root = 0;
  /// parent[v]; parent[root] == -1.
  std::vector<int> parent;
  /// children[v], sorted ascending.
  std::vector<std::vector<int>> children;
  /// Hop distance from the root.
  std::vector<int> depth;
  /// Vertices in post order (every child precedes its parent); the natural
  /// schedule for convergecasts.
  std::vector<int> post_order;
  /// Vertices in pre order (every parent precedes its children); the natural
  /// schedule for broadcasts.
  std::vector<int> pre_order;

  int size() const { return static_cast<int>(parent.size()); }
  bool IsLeaf(int v) const { return children[static_cast<size_t>(v)].empty(); }
};

/// Builds the shortest-path tree of `graph` rooted at `root`.
/// Fails if the graph is not connected.
StatusOr<SpanningTree> BuildShortestPathTree(const RadioGraph& graph,
                                             int root);

/// How a node picks its parent among the min-hop candidates. All
/// strategies yield hop-optimal trees; they differ in load shape — [23]'s
/// observation that the routing tree itself is a tuning knob.
enum class ParentSelection {
  /// Geometrically nearest candidate (lowest per-link transmit energy).
  kNearest,
  /// Candidate with the fewest children so far (spreads reception load
  /// off hotspot parents).
  kDegreeBalanced,
  /// Uniformly random candidate (the unengineered baseline).
  kRandom,
};

/// Builds a hop-optimal routing tree with the given parent-selection
/// policy. `seed` matters only for kRandom. Fails if disconnected.
StatusOr<SpanningTree> BuildRoutingTree(const RadioGraph& graph, int root,
                                        ParentSelection selection,
                                        uint64_t seed = 0);

/// BFS hop distance of every vertex from `root` over the vertices with
/// `alive[v] != 0` (all vertices when `alive` is null); -1 when the vertex
/// is dead or cut off from the root by dead vertices.
std::vector<int> LiveHopDepths(const RadioGraph& graph, int root,
                               const std::vector<char>* alive);

/// BuildRoutingTree restricted to the live subgraph: the routing tree
/// rebuilt after node churn. `root` must be alive. Vertices with no live
/// path to the root are detached (parent -1, depth 0, no children, absent
/// from pre/post order), so protocols iterating the traversal orders never
/// visit them. With every vertex alive the result equals BuildRoutingTree.
SpanningTree BuildLiveRoutingTree(const RadioGraph& graph, int root,
                                  const std::vector<char>& alive,
                                  ParentSelection selection,
                                  uint64_t seed = 0);

}  // namespace wsnq

#endif  // WSNQ_NET_SPANNING_TREE_H_
