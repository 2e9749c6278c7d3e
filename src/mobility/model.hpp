// Deterministic mobility models (DESIGN.md §15).
//
// A MobilityModel decides, round by round, which nodes move where. The
// models own the kinematic state of the nodes they track (waypoints,
// group offsets, script cursors); the ChurnEngine applies their updates
// through SensorNetwork::moveSensor, so every emitted update is one
// incremental withdraw + re-join against the cluster structure.
//
// All models are deterministic functions of (config, seed, call
// sequence): the same campaign replays bit-identically.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/deploy.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dsn::mobility {

/// One emitted move: node `node` relocates to `to` this round.
struct MobilityUpdate {
  NodeId node = kInvalidNode;
  Point2D to;
};

/// Round-driven position-update source. Implementations append the moves
/// due at round `now` in a deterministic order (tracked-id order, never
/// hash order).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual void updates(Round now, std::vector<MobilityUpdate>& out) = 0;
  /// Drops per-node state for a departed node (crash / move-out).
  virtual void forget(NodeId v) = 0;
};

/// Classic random waypoint: each tracked node drifts toward a private
/// uniform waypoint at `speed` per tick and draws a fresh one on
/// arrival. Tick cadence is `period` rounds.
struct WaypointConfig {
  Field field;
  double speed = 10.0;
  Round period = 1;
  std::uint64_t seed = 0x30B11E;
};

class RandomWaypointModel : public MobilityModel {
 public:
  explicit RandomWaypointModel(const WaypointConfig& cfg);

  /// Starts moving node `v` from `at`. Tracked order is insertion order.
  void track(NodeId v, const Point2D& at);
  void updates(Round now, std::vector<MobilityUpdate>& out) override;
  void forget(NodeId v) override;

  std::size_t trackedCount() const { return ids_.size(); }

 private:
  struct State {
    Point2D at;
    Point2D target;
  };
  WaypointConfig cfg_;
  Rng rng_;
  std::vector<NodeId> ids_;  // deterministic iteration order
  std::unordered_map<NodeId, State> state_;

  Point2D drawTarget();
};

/// Reference-point group mobility: each group's virtual center does a
/// random-waypoint walk; members hold their initial offset from the
/// center plus a small per-tick jitter. Clusters of sensors that travel
/// together (a vehicle convoy, a sensor-laden herd).
struct GroupMobilityConfig {
  Field field;
  double speed = 10.0;      ///< center speed per tick
  double jitter = 2.0;      ///< member wobble around its slot, per tick
  Round period = 1;
  std::uint64_t seed = 0x6B0B11E;
};

class GroupMobilityModel : public MobilityModel {
 public:
  explicit GroupMobilityModel(const GroupMobilityConfig& cfg);

  /// Registers a travelling group; the center starts at the members'
  /// centroid and each member keeps its offset from it.
  void addGroup(const std::vector<std::pair<NodeId, Point2D>>& members);
  void updates(Round now, std::vector<MobilityUpdate>& out) override;
  void forget(NodeId v) override;

 private:
  struct Member {
    NodeId node;
    Point2D offset;
  };
  struct Group {
    Point2D center;
    Point2D target;
    std::vector<Member> members;
  };
  GroupMobilityConfig cfg_;
  Rng rng_;
  std::vector<Group> groups_;

  Point2D drawTarget();
};

/// Replayable scripted motion: an explicit (round, node, position) list,
/// emitted verbatim. Only tests drive it today; the scenario runner's
/// `waypoint` events use core/mobility's RandomWaypointMobility.
class ScriptedMobilityModel : public MobilityModel {
 public:
  /// Appends a scripted move. Rounds may arrive out of order; the script
  /// is stably sorted by round before the first emission.
  void schedule(Round r, NodeId v, const Point2D& to);
  void updates(Round now, std::vector<MobilityUpdate>& out) override;
  void forget(NodeId v) override;

  std::size_t pendingCount() const { return script_.size() - cursor_; }

 private:
  struct Entry {
    Round round;
    MobilityUpdate update;
  };
  std::vector<Entry> script_;
  std::size_t cursor_ = 0;
  bool sorted_ = true;
};

}  // namespace dsn::mobility
