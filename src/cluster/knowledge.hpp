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

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/status.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace dsn {

/// The four slot families, one per schedule window. The value indexes
/// NodeKnowledge::slots and ClusterNet's root maxima, and is the
/// slot-recompute marker's kind (0/1/2/3 = b/l/u/up).
enum class SlotFamily : std::uint8_t {
  kB,   ///< backbone flood (Algorithm 2, step 1)
  kL,   ///< backbone->leaves hop (Algorithm 2, step 2)
  kU,   ///< Algorithm 1's whole-CNet flood under Time-Slot Condition 1
  kUp,  ///< convergecast gather (dsnet extension, DESIGN.md §6)
};
inline constexpr std::size_t kSlotFamilies = 4;

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

  /// Transmission slot per family, indexed by SlotFamily; kNoSlot while
  /// the node has none. The b/l/u families are independent of each
  /// other. The up family's condition is stronger than the downward
  /// ones: a parent must hear EVERY child, so a node's up-slot differs
  /// from the up-slots of all same-depth nodes that share any
  /// previous-depth neighbor with it.
  std::array<TimeSlot, kSlotFamilies> slots{kNoSlot, kNoSlot, kNoSlot,
                                            kNoSlot};

  TimeSlot slot(SlotFamily f) const {
    return slots[static_cast<std::size_t>(f)];
  }
  TimeSlot& slot(SlotFamily f) { return slots[static_cast<std::size_t>(f)]; }

  /// Multicast groups this node belongs to (its group-list).
  std::vector<GroupId> groups;
  /// relayCount[g] = number of descendants (strictly below this node) in
  /// group g; the paper's relay-list is the set of keys with count > 0.
  /// A sorted flat vector: group-maintenance walks touch it on every
  /// root-path hop and the entry count stays tiny.
  FlatMap<GroupId, int> relayCount;
};

}  // namespace dsn
