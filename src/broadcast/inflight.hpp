// In-flight broadcasts over a reconfiguring network (DESIGN.md §15).
//
// InFlightBroadcast admits a CFF or iCFF wave exactly like the one-shot
// runners, but owns the simulator and exposes the reconfiguration seam:
// the wave advances in segments, and between segments the caller may
// mutate the deployment (moveSensor / crashSensor / addSensor /
// removeSensor, structure repairs) and then resync the paused run. The
// wave's schedule is the one computed at admission — reconfiguration
// never re-plans a wave in flight; it changes the radio field under it,
// and the accounting below reports the degradation honestly.
//
//   InFlightBroadcast wave(net.clusterNet(), BroadcastScheme::kCff,
//                          src, payload, options);
//   wave.advanceTo(64);              // first 64 rounds
//   net.moveSensor(v, elsewhere);    // topology changes under the wave
//   wave.noteDisplaced(v);
//   wave.onTopologyChanged();        // resync the paused engines
//   wave.runToCompletion();
//   InFlightReport r = wave.finish();
#pragma once

#include <memory>
#include <vector>

#include "broadcast/run_result.hpp"
#include "broadcast/runner.hpp"
#include "cluster/cnet.hpp"
#include "radio/simulator.hpp"

namespace dsn {

class CffSwarm;

/// Outcome of one in-flight wave, with degraded-coverage accounting.
/// `intended` splits into three disjoint classes at completion time:
/// departed (no longer alive), displaced (alive but disrupted mid-wave —
/// moved, withdrawn, or re-homed by a repair), and settled (alive and
/// undisturbed, the nodes the admission-time schedule still serves).
struct InFlightReport {
  SimResult sim;
  Round scheduleLength = 0;
  std::size_t intended = 0;   ///< members alive at admission
  std::size_t departed = 0;   ///< intended, dead at completion
  std::size_t displaced = 0;  ///< intended, alive, disrupted mid-wave
  std::size_t settled = 0;    ///< intended - departed - displaced
  /// Payload holders among intended ∩ alive (displaced included).
  std::size_t delivered = 0;
  /// Payload holders among the settled class only.
  std::size_t deliveredSettled = 0;
  Round lastDeliveryRound = -1;
  std::size_t transmissions = 0;
  std::size_t collisions = 0;

  /// Delivered fraction of the still-alive intended receivers.
  double coverage() const {
    const std::size_t alive = intended - departed;
    return alive == 0 ? 1.0
                      : static_cast<double>(delivered) /
                            static_cast<double>(alive);
  }
  /// Delivered fraction of the settled class — the schedule's own
  /// receivers, net of churn casualties. This is the number the
  /// campaign-level ≥99% acceptance gate watches.
  double effectiveCoverage() const {
    return settled == 0 ? 1.0
                        : static_cast<double>(deliveredSettled) /
                              static_cast<double>(settled);
  }
};

/// A resumable CFF/iCFF broadcast wave. Supports kCff and kImprovedCff;
/// the token tour (kDfo) has no collision-free schedule to preserve and
/// is rejected. Bit-identical across scheduling modes, segment
/// boundaries included (the engines' seam contract).
class InFlightBroadcast {
 public:
  /// Admits the wave against `net`'s schedule as of now.
  InFlightBroadcast(const ClusterNet& net, BroadcastScheme scheme,
                    NodeId source, std::uint64_t payload,
                    const ProtocolOptions& options);
  ~InFlightBroadcast();

  InFlightBroadcast(const InFlightBroadcast&) = delete;
  InFlightBroadcast& operator=(const InFlightBroadcast&) = delete;

  /// Advances the paused run to round `stop` (clamped to horizon()).
  void advanceTo(Round stop);
  /// Runs the remaining rounds to the budget.
  void runToCompletion() { advanceTo(horizon()); }

  /// Marks an intended receiver as disrupted mid-wave (moved, withdrawn,
  /// crashed, or re-homed by a repair); it leaves the settled class.
  void noteDisplaced(NodeId v);

  /// Re-syncs the paused engines after an external mutation of the
  /// graph or failure schedule.
  void onTopologyChanged();

  bool finished() const { return sim_->finished(); }
  Round cursor() const { return sim_->cursor(); }
  /// The wave's static TDM schedule length (rounds), fixed at admission.
  Round scheduleLength() const { return schedule_; }
  /// The round budget (scheduleLength + slack, or options.maxRounds).
  Round horizon() const { return horizon_; }

  /// Whether node `v` holds the payload (valid any time; dead nodes keep
  /// the delivery state they had when they died).
  bool deliveredTo(NodeId v) const;

  /// Whether noteDisplaced(v) was recorded for this wave.
  bool wasDisplaced(NodeId v) const {
    return v < displaced_.size() && displaced_[v] != 0;
  }

  const std::vector<NodeId>& intended() const { return intended_; }

  /// Final accounting; requires finished().
  InFlightReport finish() const;

 private:
  const Graph& graph_;
  Round schedule_ = 0;
  Round horizon_ = 0;
  std::vector<NodeId> intended_;
  std::vector<std::uint8_t> displaced_;     // indexed by id < admitSize_
  std::size_t admitSize_ = 0;               // graph size at admission
  const CffSwarm* cffView_ = nullptr;       // kCff delivery view
  std::vector<BroadcastEndpoint*> endpoints_;  // kImprovedCff delivery
  std::unique_ptr<RadioSimulator> sim_;
  SimResult lastResult_;

  void admitCff(const ClusterNet& net, NodeId source, std::uint64_t payload,
                const ProtocolOptions& options);
  void admitIcff(const ClusterNet& net, NodeId source, std::uint64_t payload,
                 const ProtocolOptions& options);
};

}  // namespace dsn
