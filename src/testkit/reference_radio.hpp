// Reference radio oracle for the fuzz harness.
//
// Three independent re-derivations of what a CFF broadcast must do:
//
//  1. buildCffPlan / runCffPlan — the Algorithm-1 schedule assembly of
//     runCffBroadcast, split out so a test can corrupt the plan (inject a
//     slot-assignment bug) and run the corrupted plan through the REAL
//     RadioSimulator. runCffPlan drives the per-object reference state
//     machines (testkit/cff_node_protocol.hpp) through a small adapter
//     swarm, independent of the production CffSwarm. This is the seam
//     the "deliberately injected bug is caught and shrunk" acceptance
//     check uses.
//  2. runCffPlanReference — a naive O(V·E)-per-round simulator that drives
//     the same CffNodeProtocol state machines but recomputes every
//     delivery and collision from first principles (scan each listener's
//     neighborhood, count matching transmitters) without touching
//     radio/channel.cpp. Differential against runCffPlan it cross-checks
//     the production collision-resolution core.
//  3. checkTraceConsistency — validates a recorded event trace against
//     the radio axioms: every receive is justified by exactly one on-air
//     neighbor transmission on that (round, channel), every collision by
//     at least two. Scheme- and fault-agnostic.
#pragma once

#include <string>
#include <vector>

#include "broadcast/run_result.hpp"
#include "cluster/cnet.hpp"
#include "radio/trace.hpp"
#include "testkit/cff_node_protocol.hpp"

namespace dsn::testkit {

/// A fully assembled Algorithm-1 broadcast schedule: everything
/// runCffBroadcast derives from the ClusterNet before simulation starts.
struct CffPlan {
  std::vector<CffNodeConfig> configs;  ///< one per intended (alive) node
  std::vector<NodeId> intended;
  Round scheduleLength = 0;
  Round maxRounds = 0;
  Channel channels = 1;
};

/// Replicates runCffBroadcast's plan assembly (source->root path, window
/// size, per-node slots/windows) without running anything.
CffPlan buildCffPlan(const ClusterNet& net, NodeId source,
                     std::uint64_t payload,
                     const ProtocolOptions& options = {});

/// Runs a (possibly corrupted) plan through the real RadioSimulator.
/// With an unmodified plan this is behaviourally identical to
/// runCffBroadcast(net, source, payload, options).
BroadcastRun runCffPlan(const ClusterNet& net, const CffPlan& plan,
                        const ProtocolOptions& options = {});

/// Result of the first-principles reference simulation.
struct ReferenceRun {
  std::size_t intended = 0;
  std::size_t delivered = 0;
  std::size_t transmissions = 0;
  std::size_t collisions = 0;
  bool completed = false;
  Round rounds = 0;
  /// Indexed by node id; -1 = never received (source = 0).
  std::vector<Round> deliveryRound;
};

/// Fault-free naive simulation of `plan` over `g`: per round, per
/// listener, per channel, scan the whole neighborhood and count
/// transmitters. Deliberately shares no code with radio/channel.cpp.
ReferenceRun runCffPlanReference(const Graph& g, const CffPlan& plan);

/// Corrupts `plan` to recreate the classic TDMA bug class: picks a
/// listener with >= 2 previous-depth backbone transmitter neighbors and
/// assigns all of them the same u-slot, so they collide at that listener
/// every time and it can never receive. Returns false (plan untouched)
/// when no vulnerable listener exists. The corruption is detected by the
/// unconditional coverage oracle: the starved listener never receives,
/// so a fault-free plan run reports coverage < 1.
bool injectCffSlotCollision(CffPlan& plan, const ClusterNet& net);

/// Checks a recorded trace against the radio axioms; returns
/// human-readable inconsistencies (empty = consistent). Sound for every
/// scheme and fault regime (jammed/dropped transmissions are distinct
/// event types and never justify a receive). If the trace overflowed its
/// capacity (droppedEvents() > 0) the view is partial and the check is
/// skipped — callers wanting completeness must size traceCapacity so
/// nothing is dropped.
std::vector<std::string> checkTraceConsistency(const Trace& trace,
                                               const Graph& g,
                                               Channel channelCount);

}  // namespace dsn::testkit
