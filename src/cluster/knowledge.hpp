// Per-node local knowledge record.
//
// Mirrors the paper's knowledge (I) + (II) (Section 5): tree links,
// status, depth, the transmission time-slots, and — for multicast
// (Section 3.4) — the group-list and relay-list. Height is not stored
// per node: ClusterNet derives the net's height from per-depth node
// counts. All algorithms in dsn_cluster read and write only these
// records (plus the neighbor lists of the flat graph), so they remain
// faithful to the distributed model even though they execute inside one
// process.
#pragma once

#include <vector>

#include "cluster/status.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace dsn {

/// Everything node v knows about itself. "Knowing a neighbor's knowledge"
/// (paper Section 4) corresponds to reading another node's record, which
/// the procedures do only for graph neighbors.
struct NodeKnowledge {
  /// True once the node has been inserted into CNet(G).
  bool inNet = false;

  NodeStatus status = NodeStatus::kPureMember;
  NodeId parent = kInvalidNode;       ///< parent in CNet; invalid at root
  std::vector<NodeId> children;       ///< children in CNet
  Depth depth = kNoDepth;             ///< root has depth 0

  /// Transmission slot for the backbone flood (Algorithm 2, step 1).
  TimeSlot bSlot = kNoSlot;
  /// Transmission slot for the backbone->leaves hop (step 2).
  TimeSlot lSlot = kNoSlot;
  /// Unified slot for Algorithm 1 (flooding the whole CNet depth by
  /// depth under Time-Slot Condition 1). Independent of bSlot/lSlot.
  TimeSlot uSlot = kNoSlot;
  /// Upward slot for convergecast data gathering (dsnet extension, see
  /// DESIGN.md §6): in its depth's gather window the node reports its
  /// aggregate to its parent at this slot. The condition is stronger
  /// than the downward ones — a parent must hear EVERY child, so a
  /// node's up-slot differs from the up-slots of all same-depth nodes
  /// that share any previous-depth neighbor with it.
  TimeSlot upSlot = kNoSlot;

  /// Multicast groups this node belongs to (its group-list).
  std::vector<GroupId> groups;
  /// relayCount[g] = number of descendants (strictly below this node) in
  /// group g; the paper's relay-list is the set of keys with count > 0.
  /// A sorted flat vector: group-maintenance walks touch it on every
  /// root-path hop and the entry count stays tiny.
  FlatMap<GroupId, int> relayCount;
};

}  // namespace dsn
