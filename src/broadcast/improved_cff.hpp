// Improved Collision-Free Flooding — Algorithm 2 (paper Section 3.3) and
// the multicast variant built on it (Section 3.4).
//
// Two phases after the source->root relay:
//   Step 1 — flood only the backbone BT(G) depth by depth using b-slots
//            (window δ per depth, δ·(H+1) rounds, H = backbone height);
//   Step 2 — ONE shared window of Δ rounds in which every backbone node
//            transmits at its l-slot, delivering to all pure members.
// Completion δ·h + Δ (+ source path); backbone awake <= 2δ + 1, members
// awake <= Δ (Theorem 1). With k channels everything shrinks by 1/k.
//
// Multicast: nodes relay only when the group is in their relay-list
// (kPrunedRelay) — the paper's scheme, which can starve a receiver whose
// unique-slot provider was pruned (see DESIGN.md §4 and the T2 bench) —
// or everywhere (kFullFlood), which degenerates to a broadcast that only
// group members consume.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/run_result.hpp"
#include "broadcast/slotted_swarm.hpp"
#include "broadcast/tdm.hpp"
#include "cluster/cnet.hpp"

namespace dsn {

enum class MulticastMode : std::uint8_t {
  kPrunedRelay,  ///< paper-literal relay-list pruning
  kFullFlood,    ///< no pruning; group members just filter on receipt
};

/// Run-wide schedule constants of one Algorithm-2 broadcast or multicast.
struct IcffSwarmConfig {
  /// δ and Δ as known at the root: the b- and l-window slot counts.
  TimeSlot bWindow = 0;
  TimeSlot lWindow = 0;
  Channel channels = 1;
  /// Step-1 start (= depth of the source).
  Round backboneStart = 0;
  GroupId group = kNoGroup;
  std::uint64_t payload = 0;
};

/// The whole network's Algorithm-2 (and multicast) state, keyed by node
/// id: a handful of bytes per node in flat arrays.
class IcffSwarm final : public SlottedSwarm {
 public:
  IcffSwarm(const IcffSwarmConfig& cfg, std::size_t nodeCount);

  /// Registers node `v` with its static schedule knowledge: depth,
  /// backbone status and b/l-slots (kNoSlot = silent), position on the
  /// source->root relay path (-1 = off-path) and the next hop on it,
  /// whether it retransmits (multicast pruning: relay-list hit) and
  /// whether it wants the payload (broadcast: everyone; multicast: group
  /// members). Nodes that neither want, relay nor serve the path sleep
  /// throughout.
  void addMember(NodeId v, Depth depth, bool backbone, TimeSlot bSlot,
                 TimeSlot lSlot, int pathIndex, NodeId pathNext,
                 bool isSource, bool relays, bool wantsPayload);
  /// Sets the backbone height H: step 2 starts at
  /// backboneStart + (H+1)·win(δ). Only the running schedule reads it,
  /// so the admission hands it over after the pass that adds the members.
  void setBackboneHeight(int height) { backboneHeight_ = height; }

  Action onRound(NodeId v, Round r) override;
  bool isDone(NodeId v) const override;
  Round nextWake(NodeId v, Round now) const override;

 private:
  static constexpr std::uint8_t kPathSent = 2;
  static constexpr std::uint8_t kBSent = 4;
  static constexpr std::uint8_t kLSent = 8;
  static constexpr std::uint8_t kMissed = 16;
  static constexpr std::uint8_t kIdle = 32;
  static constexpr std::uint8_t kBackbone = 64;

  Round leafWindowStart() const;
  Round bListenStart(NodeId v) const;
  Round bListenEnd(NodeId v) const;
  Round bTransmitRound(NodeId v) const;
  Round lTransmitRound(NodeId v) const;

  IcffSwarmConfig cfg_;
  int backboneHeight_ = 0;
  TdmMap bTdm_;
  TdmMap lTdm_;
  // Hot per-node schedule state, indexed by node id.
  std::vector<Depth> depth_;
  std::vector<TimeSlot> bSlot_;
  std::vector<TimeSlot> lSlot_;
  std::vector<std::int32_t> pathIndex_;
  std::vector<NodeId> pathNext_;
};

/// Admits an Algorithm-2 wave of `payload` from `source` against `net`'s
/// schedule as of now: one IcffSwarm over every live member. With a
/// `group`, only its members are intended receivers and relays are
/// pruned per `mode`; without one, the wave is a broadcast.
SlottedWave admitIcffWave(const ClusterNet& net, NodeId source,
                          std::optional<GroupId> group, std::uint64_t payload,
                          MulticastMode mode, Channel channels);

/// Algorithm-2 broadcast of `payload` from `source`.
BroadcastRun runImprovedCffBroadcast(const ClusterNet& net, NodeId source,
                                     std::uint64_t payload,
                                     const ProtocolOptions& options = {});

/// Multicast of `payload` to `group` from `source` (paper Section 3.4).
/// Intended receivers are the group members; relay pruning per `mode`.
BroadcastRun runMulticast(const ClusterNet& net, NodeId source,
                          GroupId group, std::uint64_t payload,
                          MulticastMode mode = MulticastMode::kPrunedRelay,
                          const ProtocolOptions& options = {});

}  // namespace dsn
