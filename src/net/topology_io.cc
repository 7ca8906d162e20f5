#include "net/topology_io.h"

#include <fstream>

#include "net/geometry.h"
#include "net/spanning_tree.h"

namespace wsnq {

Status WriteTopologyDot(const Network& network, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const SpanningTree tree = RelabelTree(network.tree(), network.labels());
  const RadioGraph& graph = network.graph();
  out << "digraph wsnq {\n";
  out << "  // root = " << tree.root << "\n";
  for (int v = 0; v < network.num_vertices(); ++v) {
    const Point2D& p = graph.point(v);
    out << "  n" << v << " [pos=\"" << p.x << ',' << p.y << "!\""
        << (v == tree.root ? ", shape=doublecircle" : "") << "];\n";
  }
  for (int v = 0; v < network.num_vertices(); ++v) {
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent >= 0) out << "  n" << v << " -> n" << parent << ";\n";
  }
  for (int v = 0; v < network.num_vertices(); ++v) {
    for (int u : graph.neighbors(v)) {
      if (u <= v) continue;  // one direction per physical edge
      if (tree.parent[static_cast<size_t>(v)] == u ||
          tree.parent[static_cast<size_t>(u)] == v) {
        continue;  // already drawn as a tree edge
      }
      out << "  n" << v << " -> n" << u
          << " [style=dashed, dir=none, color=gray];\n";
    }
  }
  out << "}\n";
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Status WriteTreeCsv(const Network& network, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "child,parent,distance_m,depth\n";
  const SpanningTree tree = RelabelTree(network.tree(), network.labels());
  const RadioGraph& graph = network.graph();
  for (int v = 0; v < network.num_vertices(); ++v) {
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent < 0) continue;
    out << v << ',' << parent << ','
        << Distance(graph.point(v), graph.point(parent)) << ','
        << tree.depth[static_cast<size_t>(v)] << "\n";
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace wsnq
