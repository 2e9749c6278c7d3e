#include "testkit/reference_radio.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "broadcast/runner_detail.hpp"
#include "broadcast/tdm.hpp"
#include "radio/simulator.hpp"
#include "util/error.hpp"

namespace dsn::testkit {

CffPlan buildCffPlan(const ClusterNet& net, NodeId source,
                     std::uint64_t payload,
                     const ProtocolOptions& options) {
  DSN_REQUIRE(net.contains(source), "plan source must be in the net");
  const Graph& g = net.graph();

  std::vector<NodeId> path;
  for (NodeId v = source; v != kInvalidNode; v = net.parent(v))
    path.push_back(v);
  const Round floodStart = static_cast<Round>(path.size()) - 1;

  const TimeSlot window = net.rootMaxUSlot();
  const TdmMap tdm(window == 0 ? 1 : window, options.channels);

  CffPlan plan;
  plan.channels = options.channels;
  plan.scheduleLength =
      floodStart + static_cast<Round>(net.height() + 1) * tdm.windowLength();
  plan.maxRounds =
      options.maxRounds > 0 ? options.maxRounds : plan.scheduleLength + 4;

  for (NodeId v : net.netNodes()) {
    if (!g.isAlive(v)) continue;
    plan.intended.push_back(v);
    CffNodeConfig nc;
    nc.self = v;
    nc.depth = net.depth(v);
    nc.slot = net.isBackbone(v) ? net.uSlot(v) : kNoSlot;
    nc.window = window;
    nc.channels = options.channels;
    nc.floodStart = floodStart;
    nc.isSource = v == source;
    nc.payload = payload;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] == v && i + 1 < path.size()) {
        nc.pathIndex = static_cast<int>(i);
        nc.pathNext = path[i + 1];
      }
    }
    plan.configs.push_back(nc);
  }
  return plan;
}

namespace {

/// Drives one reference CffNodeProtocol object per plan node through the
/// simulator, mirroring each object's first delivery into the swarm's
/// delivery columns for the run's stats.
class CffObjectSwarm final : public PayloadSwarm {
 public:
  CffObjectSwarm(std::size_t nodeCount, const CffPlan& plan)
      : PayloadSwarm(nodeCount), nodes_(nodeCount) {
    for (const CffNodeConfig& nc : plan.configs) {
      nodes_[nc.self] = std::make_unique<CffNodeProtocol>(nc);
      addHolder(nc.self, nc.isSource, nc.payload);
    }
  }

  Action onRound(NodeId v, Round r) override { return nodes_[v]->onRound(r); }
  void onReceive(NodeId v, const Message& m, Round r, Channel c) override {
    nodes_[v]->onReceive(m, r, c);
    if (nodes_[v]->hasPayload())
      takePayload(v, m.payload, nodes_[v]->payloadRound());
  }
  bool isDone(NodeId v) const override { return nodes_[v]->isDone(); }
  Round nextWake(NodeId v, Round now) const override {
    return nodes_[v]->nextWake(now);
  }

 private:
  std::vector<std::unique_ptr<CffNodeProtocol>> nodes_;
};

}  // namespace

BroadcastRun runCffPlan(const ClusterNet& net, const CffPlan& plan,
                        const ProtocolOptions& options) {
  const Graph& g = net.graph();
  return detail::runPayloadSwarm(
      g, detail::simConfig(plan.channels, plan.maxRounds, options),
      std::make_unique<CffObjectSwarm>(g.size(), plan), plan.intended,
      plan.intended, plan.scheduleLength, options);
}

ReferenceRun runCffPlanReference(const Graph& g, const CffPlan& plan) {
  // The reference resolver rescans whole neighborhoods every round; use
  // the flat CSR snapshot (identical neighbor order) for the scan.
  const CsrView& csr = g.csrView();
  std::vector<std::unique_ptr<CffNodeProtocol>> protocols(g.size());
  for (const CffNodeConfig& nc : plan.configs)
    protocols[nc.self] = std::make_unique<CffNodeProtocol>(nc);

  ReferenceRun out;
  out.intended = plan.intended.size();
  out.deliveryRound.assign(g.size(), -1);

  const auto allDone = [&] {
    for (NodeId v = 0; v < g.size(); ++v)
      if (protocols[v] && !protocols[v]->isDone()) return false;
    return true;
  };

  std::vector<Action> actions(g.size());
  for (Round r = 0; r < plan.maxRounds; ++r) {
    if (allDone()) {
      out.completed = true;
      out.rounds = r;
      break;
    }

    for (NodeId v = 0; v < g.size(); ++v) {
      actions[v] = Action::sleep();
      if (protocols[v]) actions[v] = protocols[v]->onRound(r);
      if (actions[v].type == Action::Type::kTransmit) ++out.transmissions;
    }

    // First-principles resolution: for every listener and every channel it
    // is tuned to, walk its whole neighborhood and count transmitters on
    // that channel. Exactly one means delivery; two or more, collision.
    struct Pending {
      NodeId receiver;
      NodeId transmitter;
      Channel channel;
    };
    std::vector<Pending> deliveries;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (actions[v].type != Action::Type::kListen) continue;
      const bool wideBand = actions[v].channel == kAllChannels;
      const Channel lo = wideBand ? 0 : actions[v].channel;
      const Channel hi = wideBand
                             ? static_cast<Channel>(plan.channels - 1)
                             : actions[v].channel;
      for (Channel c = lo; c <= hi; ++c) {
        NodeId only = kInvalidNode;
        std::size_t count = 0;
        for (NodeId u : csr.neighbors(v)) {
          if (actions[u].type == Action::Type::kTransmit &&
              actions[u].channel == c) {
            ++count;
            only = u;
          }
        }
        if (count == 1) deliveries.push_back({v, only, c});
        if (count >= 2) ++out.collisions;
      }
    }
    for (const Pending& d : deliveries)
      protocols[d.receiver]->onReceive(actions[d.transmitter].message, r,
                                       d.channel);

    out.rounds = r + 1;
  }
  if (!out.completed && out.rounds == plan.maxRounds)
    out.completed = allDone();

  for (NodeId v : plan.intended) {
    if (protocols[v] && protocols[v]->hasPayload()) {
      ++out.delivered;
      out.deliveryRound[v] = protocols[v]->payloadRound();
    }
  }
  return out;
}

bool injectCffSlotCollision(CffPlan& plan, const ClusterNet& net) {
  const Graph& g = net.graph();
  std::unordered_map<NodeId, std::size_t> index;
  for (std::size_t i = 0; i < plan.configs.size(); ++i)
    index.emplace(plan.configs[i].self, i);

  for (const CffNodeConfig& nc : plan.configs) {
    // Path relays and the source get the payload outside their flood
    // window; only a pure window listener is guaranteed starved by the
    // corruption.
    if (nc.depth == 0 || nc.isSource || nc.pathIndex >= 0) continue;
    std::vector<std::size_t> providers;
    for (NodeId u : g.neighbors(nc.self)) {
      auto it = index.find(u);
      if (it == index.end()) continue;
      const CffNodeConfig& pc = plan.configs[it->second];
      if (pc.depth == nc.depth - 1 && pc.slot != kNoSlot)
        providers.push_back(it->second);
    }
    if (providers.size() < 2) continue;
    // All providers now share one slot: they transmit in the same round
    // on the same channel, so this listener hears only noise.
    const TimeSlot shared = plan.configs[providers.front()].slot;
    for (std::size_t i : providers) plan.configs[i].slot = shared;
    return true;
  }
  return false;
}

std::vector<std::string> checkTraceConsistency(const Trace& trace,
                                               const Graph& g,
                                               Channel channelCount) {
  using obs::FrType;
  std::vector<std::string> issues;
  if (trace.droppedEvents() > 0) return issues;  // partial view: skip

  const auto hasType = [](const obs::FrEvent& e, FrType t) {
    return e.type == static_cast<std::uint8_t>(t);
  };
  // (round, transmitter) -> channel of the on-air transmission.
  std::map<std::pair<std::uint32_t, NodeId>, Channel> onAir;
  for (const obs::FrEvent& e : trace.events()) {
    if (!hasType(e, FrType::kTransmit)) continue;
    if (e.channel >= channelCount) {
      std::ostringstream os;
      os << "transmit by " << e.node << " at round " << e.round
         << " on out-of-range channel " << unsigned{e.channel};
      issues.push_back(os.str());
    }
    onAir[{e.round, e.node}] = e.channel;
  }

  const auto neighborsOnAir = [&](NodeId v, std::uint32_t r, Channel c) {
    std::vector<NodeId> hits;
    for (NodeId u : g.neighbors(v)) {
      auto it = onAir.find({r, u});
      if (it != onAir.end() && it->second == c) hits.push_back(u);
    }
    return hits;
  };

  for (const obs::FrEvent& e : trace.events()) {
    if (hasType(e, FrType::kDelivery)) {
      std::ostringstream os;
      if (onAir.count({e.round, e.node})) {
        os << "node " << e.node << " both transmitted and received at round "
           << e.round;
        issues.push_back(os.str());
        continue;
      }
      const auto hits = neighborsOnAir(e.node, e.round, e.channel);
      if (hits.size() != 1) {
        os << "receive at node " << e.node << " round " << e.round
           << " channel " << unsigned{e.channel} << " backed by "
           << hits.size()
           << " on-air neighbor transmissions (need exactly 1)";
        issues.push_back(os.str());
      } else if (hits.front() != e.data) {
        os << "receive at node " << e.node << " round " << e.round
           << " names transmitter " << e.data << " but " << hits.front()
           << " was on air";
        issues.push_back(os.str());
      }
    } else if (hasType(e, FrType::kCollision)) {
      const auto hits = neighborsOnAir(e.node, e.round, e.channel);
      if (hits.size() < 2) {
        std::ostringstream os;
        os << "collision at node " << e.node << " round " << e.round
           << " channel " << unsigned{e.channel} << " backed by only "
           << hits.size() << " on-air neighbor transmissions (need >= 2)";
        issues.push_back(os.str());
      }
    }
  }
  return issues;
}

}  // namespace dsn::testkit
