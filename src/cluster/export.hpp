// Structure export for inspection and debugging.
//
// `toDot` renders the cluster architecture as Graphviz: tree edges solid
// (the CNet), non-tree radio edges dotted, heads as double circles,
// gateways as boxes, members as plain circles, with depth/slot labels.
// `toSummary` is a one-screen text digest used by examples.
#pragma once

#include <string>

#include "cluster/cnet.hpp"

namespace dsn {

struct DotOptions {
  bool includeRadioEdges = true;  ///< dotted non-tree G edges
};

/// Graphviz (dot language) rendering of the structure.
std::string toDot(const ClusterNet& net, const DotOptions& options = {});

/// Short human-readable digest (sizes, heights, degrees, slots).
std::string toSummary(const ClusterNet& net);

}  // namespace dsn
