// Convergecast (data gathering) on CNet(G) — dsnet extension.
//
// The inverse of the CFF broadcast: per-depth TDM gather windows run from
// the deepest level up to the root; in the window of depth j every
// depth-j node transmits its partial aggregate (own value + everything
// its children reported) to its parent at its up-slot. The up-slot
// condition (ClusterNet::upConditionHolds) guarantees each parent hears
// every child collision-free, so with no failures the root's aggregate
// is exact in h·⌈W/k⌉ rounds with every node awake at most ~2W rounds
// (W = largest up-slot).
//
// The paper motivates data gathering as one of the three core WSN
// patterns (Section 1) but never designs the protocol; DESIGN.md §6
// records this as an engineered extension.
#pragma once

#include <vector>

#include "broadcast/run_result.hpp"
#include "cluster/cnet.hpp"

namespace dsn {

/// Result of one gather wave.
struct GatherResult {
  SimResult sim;
  /// Sum aggregated at the root (including the root's own value).
  std::uint64_t aggregate = 0;
  /// Number of nodes whose value reached the root.
  std::size_t contributors = 0;
  /// Nodes that were supposed to contribute (= net size).
  std::size_t expected = 0;
  Round scheduleLength = 0;
  std::size_t maxAwakeRounds = 0;
  double meanAwakeRounds = 0.0;
  std::size_t transmissions = 0;
  std::size_t collisions = 0;
  /// Event trace copy (enabled only when options.traceCapacity > 0).
  Trace trace;

  bool complete() const { return contributors == expected; }
  double yield() const {
    return expected == 0 ? 1.0
                         : static_cast<double>(contributors) /
                               static_cast<double>(expected);
  }
};

/// Runs one gather wave: `values[v]` is node v's reading (ids outside
/// the net are ignored). Aggregation is summation; counts ride along so
/// the caller can also compute exact means.
GatherResult runConvergecast(const ClusterNet& net,
                             const std::vector<std::uint64_t>& values,
                             const ProtocolOptions& options = {});

}  // namespace dsn
