// WakeCalendar against a sorted-set model of a (round, node) min-heap:
// the same earliest wake after every advance and the same ascending
// (round, node) release order, with wakes queued up to three horizons
// ahead so the overflow heap feeds the ring repeatedly.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "radio/protocol.hpp"
#include "radio/wake_calendar.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

TEST(WakeCalendarTest, HorizonIsAClampedPowerOfTwo) {
  EXPECT_EQ(WakeCalendar::horizonFor(1), WakeCalendar::kMinHorizon);
  EXPECT_EQ(WakeCalendar::horizonFor(100), 128u);
  EXPECT_EQ(WakeCalendar::horizonFor(1024), 1024u);
  EXPECT_EQ(WakeCalendar::horizonFor(1'000'000), WakeCalendar::kMaxHorizon);
}

TEST(WakeCalendarTest, ReleasesLikeAHeapAcrossTheHorizon) {
  constexpr std::size_t kNodes = 300;
  constexpr Round kMaxRounds = 20'000;
  WakeCalendar calendar;
  calendar.reset(kNodes, 5, kMaxRounds);
  const auto horizon = static_cast<Round>(calendar.horizon());
  ASSERT_EQ(horizon, static_cast<Round>(WakeCalendar::kMaxHorizon));

  Rng rng(0xCA1E);
  std::set<std::pair<Round, NodeId>> model;
  std::size_t overflowPushes = 0;
  const auto queue = [&](NodeId v, Round now) {
    // Mostly near wakes, some far past the horizon.
    const Round ahead = rng.chance(0.2)
                            ? rng.uniformInt(horizon - 2, 3 * horizon)
                            : rng.uniformInt(1, 40);
    if (ahead > horizon) ++overflowPushes;
    calendar.push(v, now + ahead);
    model.emplace(now + ahead, v);
  };
  for (NodeId v = 0; v < kNodes; ++v) queue(v, 4);

  std::vector<NodeId> woken;
  Round r = 5;
  while (!model.empty()) {
    const Round next = calendar.advance(r);
    ASSERT_EQ(next, model.begin()->first) << "at round " << r;
    r = next;
    ASSERT_EQ(calendar.advance(r), r);
    calendar.drain(r, woken);
    std::vector<NodeId> expected;
    while (!model.empty() && model.begin()->first == r) {
      expected.push_back(model.begin()->second);
      model.erase(model.begin());
    }
    ASSERT_EQ(woken, expected) << "at round " << r;
    // Most wakers re-queue; the rest sleep forever.
    for (const NodeId v : woken)
      if (r < kMaxRounds - 3 * horizon && rng.chance(0.9)) queue(v, r);
    ++r;
  }
  EXPECT_EQ(calendar.advance(r), kNoWake);
  EXPECT_GT(overflowPushes, 100u);
}

// The calendar holds at most one entry per node; a second push of the
// same node into one round would close its bucket list on itself, and
// the drain refuses it instead of walking the loop.
TEST(WakeCalendarTest, NodeQueuedTwiceInARoundFailsTheDrain) {
  WakeCalendar calendar;
  calendar.reset(10, 0, 100);
  calendar.push(3, 7);
  calendar.push(5, 7);
  calendar.push(3, 7);
  ASSERT_EQ(calendar.advance(7), 7);
  std::vector<NodeId> woken;
  EXPECT_THROW(calendar.drain(7, woken), InvariantError);
}

}  // namespace
}  // namespace dsn
