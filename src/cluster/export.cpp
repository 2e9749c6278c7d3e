#include "cluster/export.hpp"

#include <sstream>

#include "cluster/backbone.hpp"

namespace dsn {

std::string toDot(const ClusterNet& net, const DotOptions& options) {
  std::ostringstream os;
  os << "graph cnet {\n"
     << "  layout=twopi;\n"
     << "  node [fontsize=10];\n";

  for (NodeId v : net.netNodes()) {
    os << "  n" << v << " [label=\"" << v << "\\nd" << net.depth(v);
    if (net.isBackbone(v)) {
      os << "\\nb" << net.bSlot(v) << " l" << net.lSlot(v) << " u"
         << net.uSlot(v);
    }
    os << "\"";
    switch (net.status(v)) {
      case NodeStatus::kClusterHead:
        os << ", shape=doublecircle";
        break;
      case NodeStatus::kGateway:
        os << ", shape=box";
        break;
      case NodeStatus::kPureMember:
        os << ", shape=circle";
        break;
    }
    if (v == net.root()) os << ", style=filled, fillcolor=lightblue";
    os << "];\n";
  }

  // Tree edges.
  for (NodeId v : net.netNodes()) {
    if (v == net.root()) continue;
    os << "  n" << net.parent(v) << " -- n" << v << ";\n";
  }

  if (options.includeRadioEdges) {
    for (NodeId v : net.netNodes()) {
      for (NodeId u : net.graph().neighbors(v)) {
        if (u <= v || !net.contains(u)) continue;
        // Skip edges already drawn as tree edges.
        if (net.parent(u) == v || net.parent(v) == u) continue;
        os << "  n" << v << " -- n" << u << " [style=dotted];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string toSummary(const ClusterNet& net) {
  const BackboneStats s = computeBackboneStats(net);
  std::ostringstream os;
  os << "CNet(G): " << s.networkSize << " nodes, " << s.clusterCount
     << " clusters, backbone " << s.backboneSize << " (height "
     << s.backboneHeight << "), h=" << s.cnetHeight << ", D=" << s.degreeG
     << ", d=" << s.degreeBackbone << ", Delta=" << s.maxLSlot
     << ", delta=" << s.maxBSlot;
  return os.str();
}

}  // namespace dsn
