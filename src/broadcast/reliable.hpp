// Reliable broadcast: NACK-driven repair rounds on top of CFF/iCFF
// (DESIGN.md §10).
//
// The paper's flooding schemes are one-shot: under the collision-freedom
// guarantee a single wave suffices, but under transient loss (drops,
// bursts, jamming) or a stale structure the wave leaves holes. Reliable
// mode runs the plain wave first, then up to `maxRepairRounds` repair
// rounds. Each repair round is its own simulator run in two phases:
//
//   NACK phase — per-depth sub-windows of the convergecast up-slot
//     window: an uncovered node at depth d transmits a kNack frame in
//     sub-window d at its up-slot offset, while every covered node
//     listens. Within a sub-window only same-depth nodes transmit, so the
//     up-slot condition guarantees every covered parent hears each of its
//     uncovered children collision-free.
//   Data phase — symmetric sub-windows: a covered node that heard at
//     least one NACK retransmits the payload in its depth's sub-window at
//     its up-slot offset; uncovered nodes listen throughout.
//
// Residual collisions among responders are possible (the up-slot
// condition does not cover arbitrary responder subsets); from the second
// repair round on, each responder backs off with a deterministic
// hash-based coin so any persistent collision pattern breaks without
// sacrificing bit-reproducibility across `--jobs` counts.
#pragma once

#include <cstdint>

#include "broadcast/run_result.hpp"
#include "util/types.hpp"

namespace dsn {

class ClusterNet;
enum class BroadcastScheme : std::uint8_t;

/// Knobs of a reliable broadcast run.
struct ReliableOptions {
  /// Failure injection + radio configuration, shared by the wave and
  /// every repair round (drop/burst seeds are re-derived per round;
  /// deaths and jam intervals shift with accumulated virtual time).
  ProtocolOptions base;
  /// Retry budget: repair rounds after the main wave.
  int maxRepairRounds = 8;
};

/// Outcome of a reliable broadcast (wave + repair rounds).
struct ReliableBroadcastRun {
  /// The plain wave (its per-node vectors are superseded by the merged
  /// fields below).
  BroadcastRun wave;
  /// Alive net nodes that were supposed to end up with the payload.
  std::size_t intended = 0;
  /// ... and how many actually did after all repair rounds.
  std::size_t delivered = 0;
  /// Repair rounds actually executed (0 = the wave already covered all).
  int repairRoundsUsed = 0;
  /// NACK frames transmitted across all repair rounds.
  std::size_t nacksSent = 0;
  /// Payload retransmissions across all repair rounds.
  std::size_t retransmissions = 0;
  /// Intended nodes still without the payload when the budget ran out.
  std::size_t residualUncovered = 0;
  /// Wave rounds + every repair-round simulation, end to end.
  Round totalRounds = 0;
  /// Per-node first-delivery round on the combined timeline (wave rounds
  /// count from 0; repair rounds continue the clock). -1 = never.
  std::vector<Round> deliveryRound;

  bool allDelivered() const { return delivered == intended; }
  double coverage() const {
    return intended == 0
               ? 1.0
               : static_cast<double>(delivered) /
                     static_cast<double>(intended);
  }
};

/// Runs the wave with `scheme` (kCff or kImprovedCff; the DFO token tour
/// has no slot structure to repair against) followed by NACK repair.
ReliableBroadcastRun runReliableBroadcast(BroadcastScheme scheme,
                                          const ClusterNet& net,
                                          NodeId source,
                                          std::uint64_t payload,
                                          const ReliableOptions& options = {});

}  // namespace dsn
