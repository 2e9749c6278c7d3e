// What the two slotted schemes (CFF, Algorithm 1; iCFF, Algorithm 2)
// share: per-node delivery state, the admitted wave, and its one-shot run.
//
// Both algorithms take a frame the same way — the first data or control
// frame a node hears delivers the payload — and report delivery the same
// way. SlottedSwarm implements onReceive once over the delivery columns
// of PayloadSwarm; CffSwarm and IcffSwarm add their schedule columns and
// duty flags. A wave is admitted against a net's schedule as of now by
// admitCffWave or admitIcffWave; runCffBroadcast,
// runImprovedCffBroadcast, runMulticast and InFlightBroadcast all run
// what those return, so their admissions cannot drift apart.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/run_result.hpp"

namespace dsn {

class ClusterNet;

/// A slotted wave's swarm: the first data or control frame a member
/// hears delivers the payload.
class SlottedSwarm : public PayloadSwarm {
 public:
  void onReceive(NodeId v, const Message& m, Round r,
                 Channel channel) final;

 protected:
  using PayloadSwarm::PayloadSwarm;
};

/// One slotted wave admitted against a net's schedule as of now.
struct SlottedWave {
  /// The static TDM schedule length in rounds.
  Round schedule = 0;
  std::unique_ptr<SlottedSwarm> swarm;
  /// Live net members; the swarm drives exactly these.
  std::vector<NodeId> members;
  /// Members that want the payload: all of them, except in a multicast.
  std::vector<NodeId> intended;
};

/// Simulator configuration of a wave with `schedule` rounds: the
/// options' channels, trace and scheduling, and a round budget of
/// options.maxRounds or, when that is 0, schedule + 4.
SimConfig slottedSimConfig(Round schedule, const ProtocolOptions& options);

/// Runs an admitted wave to completion on a fresh simulator over the
/// net's graph, with the failure plan of `options`.
BroadcastRun runSlottedWave(const ClusterNet& net, SlottedWave wave,
                            const ProtocolOptions& options);

namespace detail {

/// A wave's source->root tree path: `nodes` from the source up to the
/// root, and `indexOf[v]`, v's position on it (-1 off the path and for
/// the root, which relays nothing).
struct SourcePath {
  std::vector<NodeId> nodes;
  std::vector<int> indexOf;

  /// Rounds the relay up the path takes (= depth of the source).
  Round hops() const { return static_cast<Round>(nodes.size()) - 1; }
  /// The hop after position `index`, or kInvalidNode off the path.
  NodeId nextAfter(int index) const {
    return index >= 0 ? nodes[static_cast<std::size_t>(index) + 1]
                      : kInvalidNode;
  }
};

SourcePath sourcePath(const ClusterNet& net, NodeId source);

}  // namespace detail

}  // namespace dsn
