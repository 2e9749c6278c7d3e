// Depth-First-Order broadcast — the baseline of [19] (paper Section 3.2).
//
// The broadcast message tours the backbone BT(G) as an Eulerian walk
// driven by a token: exactly one node transmits per round, so every
// transmission is collision-free and every neighbor of the transmitter
// (including pure members) overhears the payload. The token is passed by
// addressing the frame to one node. Pure members just listen until they
// overhear the payload; a member source first hands it to its head (one
// extra round).
//
// Fragility (the paper's robustness argument): one lost token frame
// stalls the entire remaining tour.
#pragma once

#include "broadcast/run_result.hpp"
#include "cluster/cnet.hpp"

namespace dsn {

/// Runs a full DFO broadcast of `payload` from `source` over `net`.
BroadcastRun runDfoBroadcast(const ClusterNet& net, NodeId source,
                             std::uint64_t payload,
                             const ProtocolOptions& options = {});

}  // namespace dsn
