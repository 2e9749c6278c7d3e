// The active-set engine's wake calendar (DESIGN.md §12).
//
// Holds each node's next wake round — at most one entry per node — and
// releases one round's wakers at a time in ascending node id, the order
// the full scan visits them in. Rounds within a power-of-two horizon of
// the calendar's base round get a ring of per-round buckets: singly
// linked lists threaded through one `next` link per node, so queueing a
// wake is O(1) and allocation-free. Wakes beyond the horizon wait in an
// overflow min-heap and move into the ring as the base advances.
// Draining a round walks its bucket into an ordered id set and takes the
// set's ascending order, so the release order is a pure function of the
// queued (round, node) pairs, however they were queued, and no drain
// sorts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "radio/id_set.hpp"
#include "util/types.hpp"

namespace dsn {

class WakeCalendar {
 public:
  /// The ring never covers fewer or more rounds than these.
  static constexpr std::size_t kMinHorizon = 64;
  static constexpr std::size_t kMaxHorizon = 4096;

  /// The horizon a run of `maxRounds` rounds gets: the power of two at
  /// or above it, clamped to [kMinHorizon, kMaxHorizon]. A run whose
  /// wakes all fall below that never touches the overflow heap.
  static std::size_t horizonFor(Round maxRounds);

  /// Empties the calendar for node ids below `nodeCount`, bases it at
  /// round `from` and sizes the ring for a run of `maxRounds` rounds.
  /// Buffers are reused, so a reset of the same shape never allocates.
  void reset(std::size_t nodeCount, Round from, Round maxRounds);

  /// Queues node `v` to wake at round `r`, no earlier than the base.
  /// `v` must hold no queued wake.
  void push(NodeId v, Round r);

  /// Moves the base to round `r` (no queued wake may precede it) and
  /// returns the earliest queued wake round, or kNoWake when the
  /// calendar is empty. Overflow wakes that fall inside the horizon of
  /// the new base move into the ring.
  Round advance(Round r);

  /// Replaces `out` with the nodes queued at round `r`, which must be the
  /// base, in ascending node id, and removes their entries. A node queued
  /// twice in the round fails a DSN_CHECK.
  void drain(Round r, std::vector<NodeId>& out);

  std::size_t horizon() const { return head_.size(); }

 private:
  using Entry = std::pair<Round, NodeId>;

  void link(NodeId v, Round r);

  Round base_ = 0;
  std::size_t mask_ = 0;
  std::size_t ringSize_ = 0;
  // Bucket heads by round & mask_ (kInvalidNode = empty), one occupancy
  // bit per bucket, and the intrusive list link of each queued node.
  std::vector<NodeId> head_;
  std::vector<std::uint64_t> occupied_;
  std::vector<NodeId> next_;
  // Min-heap (std::greater) over wakes at or beyond base_ + horizon().
  std::vector<Entry> overflow_;
  // Orders a drained bucket; empty between drains.
  IdSet order_;
};

}  // namespace dsn
