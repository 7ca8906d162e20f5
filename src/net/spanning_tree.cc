#include "net/spanning_tree.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "net/geometry.h"
#include "util/check.h"
#include "util/rng.h"

namespace wsnq {
namespace {

// The one tree-building body behind BuildRoutingTree and
// BuildLiveRoutingTree: picks parents over the vertices with `depth >= 0`
// (LiveHopDepths), then fills children and the traversal orders over the
// attached vertices only. Detached vertices (depth -1) end with parent -1
// and depth 0.
SpanningTree BuildFromDepths(const RadioGraph& graph, int root,
                             std::vector<int> depth,
                             ParentSelection selection, uint64_t seed) {
  const int n = graph.size();
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(static_cast<size_t>(n), -1);
  Rng rng(seed ^ 0x5eed7ee5eed7ee5ULL);
  // Process nodes level by level so kDegreeBalanced sees up-to-date child
  // counts; within a level, ascending vertex id (deterministic).
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (depth[static_cast<size_t>(v)] >= 0) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int da = depth[static_cast<size_t>(a)];
    const int db = depth[static_cast<size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  });
  std::vector<int> child_count(static_cast<size_t>(n), 0);

  std::vector<int> candidates;
  for (int v : order) {
    if (v == root) continue;
    // Dead and cut-off neighbors sit at depth -1, never one level up.
    candidates.clear();
    for (int u : graph.neighbors(v)) {
      if (depth[static_cast<size_t>(u)] == depth[static_cast<size_t>(v)] - 1) {
        candidates.push_back(u);
      }
    }
    WSNQ_CHECK(!candidates.empty());  // v is reachable, so a parent exists
    int best = candidates.front();
    switch (selection) {
      case ParentSelection::kNearest: {
        double best_d = SquaredDistance(graph.point(v), graph.point(best));
        for (int u : candidates) {
          const double d = SquaredDistance(graph.point(v), graph.point(u));
          if (d < best_d) {
            best = u;
            best_d = d;
          }
        }
        break;
      }
      case ParentSelection::kDegreeBalanced: {
        for (int u : candidates) {
          if (child_count[static_cast<size_t>(u)] <
              child_count[static_cast<size_t>(best)]) {
            best = u;
          }
        }
        break;
      }
      case ParentSelection::kRandom: {
        best = candidates[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(candidates.size()) - 1))];
        break;
      }
    }
    tree.parent[static_cast<size_t>(v)] = best;
    ++child_count[static_cast<size_t>(best)];
    // The tree is acyclic by construction: the parent sits one level up.
    WSNQ_DCHECK_EQ(depth[static_cast<size_t>(best)],
                   depth[static_cast<size_t>(v)] - 1);
  }

  // Children in ascending id (the vertex loop visits them in that order).
  tree.children.assign(static_cast<size_t>(n), {});
  for (int v = 0; v < n; ++v) {
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent >= 0) tree.children[static_cast<size_t>(parent)].push_back(v);
  }
  for (int& d : depth) d = std::max(d, 0);
  tree.depth = std::move(depth);

  tree.pre_order.reserve(order.size());
  tree.post_order.reserve(order.size());
  std::vector<std::pair<int, size_t>> stack;  // (vertex, next child index)
  stack.emplace_back(root, 0);
  tree.pre_order.push_back(root);
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    const auto& kids = tree.children[static_cast<size_t>(v)];
    if (idx < kids.size()) {
      const int child = kids[idx++];
      tree.pre_order.push_back(child);
      stack.emplace_back(child, 0);
    } else {
      tree.post_order.push_back(v);
      stack.pop_back();
    }
  }
  WSNQ_CHECK_EQ(tree.post_order.size(), order.size());
  return tree;
}

}  // namespace

std::vector<int> LiveHopDepths(const RadioGraph& graph, int root,
                               const std::vector<char>* alive) {
  std::vector<int> depth(static_cast<size_t>(graph.size()), -1);
  std::queue<int> frontier;
  frontier.push(root);
  depth[static_cast<size_t>(root)] = 0;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (int u : graph.neighbors(v)) {
      if (depth[static_cast<size_t>(u)] < 0 &&
          (alive == nullptr || (*alive)[static_cast<size_t>(u)] != 0)) {
        depth[static_cast<size_t>(u)] = depth[static_cast<size_t>(v)] + 1;
        frontier.push(u);
      }
    }
  }
  return depth;
}

StatusOr<SpanningTree> BuildRoutingTree(const RadioGraph& graph, int root,
                                        ParentSelection selection,
                                        uint64_t seed) {
  WSNQ_CHECK_GE(root, 0);
  WSNQ_CHECK_LT(root, graph.size());
  std::vector<int> depth = LiveHopDepths(graph, root, nullptr);
  for (int d : depth) {
    if (d < 0) {
      return Status::FailedPrecondition(
          "radio graph is not connected; cannot build routing tree");
    }
  }
  return BuildFromDepths(graph, root, std::move(depth), selection, seed);
}

SpanningTree BuildLiveRoutingTree(const RadioGraph& graph, int root,
                                  const std::vector<char>& alive,
                                  ParentSelection selection, uint64_t seed) {
  WSNQ_CHECK_GE(root, 0);
  WSNQ_CHECK_LT(root, graph.size());
  WSNQ_CHECK_EQ(static_cast<int>(alive.size()), graph.size());
  WSNQ_CHECK(alive[static_cast<size_t>(root)] != 0);  // the sink never dies
  return BuildFromDepths(graph, root, LiveHopDepths(graph, root, &alive),
                         selection, seed);
}

SpanningTree RelabelTree(const SpanningTree& tree,
                         const std::vector<int>& id_of) {
  const size_t n = tree.parent.size();
  WSNQ_CHECK_EQ(id_of.size(), n);
  const auto rename = [&](int x) {
    return x < 0 ? x : id_of[static_cast<size_t>(x)];
  };
  std::vector<size_t> from(n);
  for (size_t v = 0; v < n; ++v) from[static_cast<size_t>(id_of[v])] = v;
  SpanningTree out;
  out.root = rename(tree.root);
  out.parent.resize(n);
  out.depth.resize(n);
  out.children.resize(n);
  // In new-id order, so the children lists are allocated in that order too.
  for (size_t to = 0; to < n; ++to) {
    const size_t v = from[to];
    out.parent[to] = rename(tree.parent[v]);
    out.depth[to] = tree.depth[v];
    std::vector<int>& kids = out.children[to];
    kids.reserve(tree.children[v].size());
    for (int child : tree.children[v]) kids.push_back(rename(child));
  }
  out.post_order.reserve(tree.post_order.size());
  for (int v : tree.post_order) out.post_order.push_back(rename(v));
  out.pre_order.reserve(tree.pre_order.size());
  for (int v : tree.pre_order) out.pre_order.push_back(rename(v));
  return out;
}

StatusOr<SpanningTree> BuildShortestPathTree(const RadioGraph& graph,
                                             int root) {
  return BuildRoutingTree(graph, root, ParentSelection::kNearest);
}

}  // namespace wsnq
