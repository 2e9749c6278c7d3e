// Collision-Free Flooding broadcast — Algorithm 1 (paper Section 3.3).
//
// The message floods the whole CNet(G) depth by depth. Depth i's internal
// nodes transmit inside TDM window i at their unified time-slot (u-slot,
// Time-Slot Condition 1); every node at depth i+1 listens during window i
// and receives collision-free from some uniquely-slotted neighbor. A
// non-root source first relays the payload up the tree path to the root
// (depth(s) rounds).
//
// Completion: Δ·(h+1) (+ the source path) rounds; every node is awake at
// most ~2Δ rounds (Lemma 1). With k channels both shrink by 1/k
// (wide-band receivers, DESIGN.md §4(5)).
#pragma once

#include "broadcast/run_result.hpp"
#include "broadcast/slotted_swarm.hpp"
#include "cluster/cnet.hpp"

namespace dsn {

/// Admits an Algorithm-1 wave of `payload` from `source` against `net`'s
/// schedule as of now: one CffSwarm over every live member.
SlottedWave admitCffWave(const ClusterNet& net, NodeId source,
                         std::uint64_t payload, Channel channels);

/// Runs an Algorithm-1 broadcast of `payload` from `source` over `net`.
BroadcastRun runCffBroadcast(const ClusterNet& net, NodeId source,
                             std::uint64_t payload,
                             const ProtocolOptions& options = {});

}  // namespace dsn
