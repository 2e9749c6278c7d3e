#include "radio/wake_calendar.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "radio/protocol.hpp"
#include "util/error.hpp"

namespace dsn {

std::size_t WakeCalendar::horizonFor(Round maxRounds) {
  const Round clamped =
      std::clamp<Round>(maxRounds, static_cast<Round>(kMinHorizon),
                        static_cast<Round>(kMaxHorizon));
  return std::bit_ceil(static_cast<std::size_t>(clamped));
}

void WakeCalendar::reset(std::size_t nodeCount, Round from,
                         Round maxRounds) {
  const std::size_t horizon = horizonFor(maxRounds);
  base_ = from;
  mask_ = horizon - 1;
  ringSize_ = 0;
  head_.assign(horizon, kInvalidNode);
  occupied_.assign(horizon / 64, 0);
  next_.resize(nodeCount);
  overflow_.clear();
  order_.grow(nodeCount);
}

void WakeCalendar::link(NodeId v, Round r) {
  const std::size_t slot = static_cast<std::size_t>(r) & mask_;
  next_[v] = head_[slot];
  head_[slot] = v;
  occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  ++ringSize_;
}

void WakeCalendar::push(NodeId v, Round r) {
  if (static_cast<std::size_t>(r - base_) <= mask_) {
    link(v, r);
    return;
  }
  overflow_.emplace_back(r, v);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<Entry>{});
}

Round WakeCalendar::advance(Round r) {
  if (r > base_) {
    // The buckets of rounds [base_, r) are empty, so they can stand for
    // the rounds that just entered the horizon.
    base_ = r;
    while (!overflow_.empty() &&
           static_cast<std::size_t>(overflow_.front().first - base_) <=
               mask_) {
      std::pop_heap(overflow_.begin(), overflow_.end(),
                    std::greater<Entry>{});
      link(overflow_.back().second, overflow_.back().first);
      overflow_.pop_back();
    }
  }
  if (ringSize_ == 0)
    return overflow_.empty() ? kNoWake : overflow_.front().first;

  // First occupied bucket at or after the base's, wrapping once around
  // the ring. ringSize_ > 0 guarantees a hit.
  const std::size_t start = static_cast<std::size_t>(base_) & mask_;
  const std::size_t words = occupied_.size();
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    word = (word + 1) % words;
    bits = occupied_[word];
  }
  const std::size_t slot =
      word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return base_ + static_cast<Round>((slot - start) & mask_);
}

void WakeCalendar::drain(Round r, std::vector<NodeId>& out) {
  DSN_CHECK(r == base_, "WakeCalendar::drain: round is not the base");
  const std::size_t slot = static_cast<std::size_t>(r) & mask_;
  for (NodeId v = head_[slot]; v != kInvalidNode; v = next_[v])
    DSN_CHECK(order_.insert(v), "WakeCalendar::drain: node queued twice");
  head_[slot] = kInvalidNode;
  occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  out.clear();
  order_.drain([&out](NodeId v) { out.push_back(v); });
  ringSize_ -= out.size();
}

}  // namespace dsn
