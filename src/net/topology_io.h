// Topology export: Graphviz DOT for visual inspection of the routing tree
// and a CSV edge list for external analysis. Nodes are named by label, the
// placement index of net/network.h, whatever the Network's layout.

#ifndef WSNQ_NET_TOPOLOGY_IO_H_
#define WSNQ_NET_TOPOLOGY_IO_H_

#include <string>

#include "net/network.h"
#include "util/status.h"

namespace wsnq {

/// Writes the routing tree as a DOT digraph: nodes carry positions (as
/// `pos` attributes usable by neato), tree edges are solid, remaining
/// radio edges dashed.
Status WriteTopologyDot(const Network& network, const std::string& path);

/// Writes "child,parent,distance_m,depth" rows, one per tree edge.
Status WriteTreeCsv(const Network& network, const std::string& path);

}  // namespace wsnq

#endif  // WSNQ_NET_TOPOLOGY_IO_H_
