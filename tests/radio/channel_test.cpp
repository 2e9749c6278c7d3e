#include "radio/channel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "tests/radio/active_round.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

using testutil::splitActions;

Graph triangle() {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);
  return g;
}

Message msg(NodeId sender) {
  Message m;
  m.sender = sender;
  m.payload = 0xABCD;
  return m;
}

TEST(ChannelTest, SingleTransmitterDelivers) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  acts[1] = Action::listen();
  acts[2] = Action::listen();
  const auto out = resolveRound(g, acts, 1);
  ASSERT_EQ(out.deliveries.size(), 2u);
  EXPECT_EQ(out.transmissions, 1u);
  EXPECT_EQ(out.collisions(), 0u);
  for (const auto& d : out.deliveries) EXPECT_EQ(d.transmitter, 0u);
}

TEST(ChannelTest, TwoTransmittersCollideAtCommonListener) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  acts[1] = Action::transmit(msg(1));
  acts[2] = Action::listen();
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
  ASSERT_EQ(out.collisions(), 1u);
  EXPECT_EQ(out.collisionSites[0].listener, 2u);
}

TEST(ChannelTest, NoTransmitterMeansSilence) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::listen());
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
  EXPECT_EQ(out.collisions(), 0u);
}

TEST(ChannelTest, TransmitterDoesNotReceive) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  acts[1] = Action::transmit(msg(1));
  // 0 and 1 are neighbors but both transmit; neither receives.
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
}

TEST(ChannelTest, SleeperReceivesNothing) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
}

TEST(ChannelTest, NonNeighborDoesNotHear) {
  Graph g(3);
  g.addEdge(0, 1);  // 2 isolated
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  acts[2] = Action::listen();
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
}

TEST(ChannelTest, SeparateChannelsDoNotInterfere) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0), 0);
  acts[1] = Action::transmit(msg(1), 1);
  acts[2] = Action::listen(kAllChannels);
  const auto out = resolveRound(g, acts, 2);
  ASSERT_EQ(out.deliveries.size(), 2u);  // wide-band hears both
  EXPECT_EQ(out.collisions(), 0u);
}

TEST(ChannelTest, SameChannelStillCollidesWithMultipleChannels) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0), 1);
  acts[1] = Action::transmit(msg(1), 1);
  acts[2] = Action::listen(kAllChannels);
  const auto out = resolveRound(g, acts, 2);
  EXPECT_TRUE(out.deliveries.empty());
  EXPECT_EQ(out.collisions(), 1u);
}

TEST(ChannelTest, NarrowBandListenerMissesOtherChannel) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0), 1);
  acts[2] = Action::listen(0);
  const auto out = resolveRound(g, acts, 2);
  EXPECT_TRUE(out.deliveries.empty());
  acts[2] = Action::listen(1);
  const auto out2 = resolveRound(g, acts, 2);
  EXPECT_EQ(out2.deliveries.size(), 1u);
}

TEST(ChannelTest, ChannelOutOfRangeRejected) {
  const Graph g = triangle();
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0), 3);
  EXPECT_THROW(resolveRound(g, acts, 2), PreconditionError);
}

TEST(ChannelTest, DeadTransmitterRejected) {
  Graph g = triangle();
  g.removeNode(0);
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  EXPECT_THROW(resolveRound(g, acts, 1), PreconditionError);
}

TEST(ChannelTest, ActionVectorSizeMustMatch) {
  const Graph g = triangle();
  std::vector<Action> acts(2, Action::sleep());
  EXPECT_THROW(resolveRound(g, acts, 1), PreconditionError);
}

TEST(ChannelTest, ScratchGrowsWhenTopologyOutgrowsPrepare) {
  // Regression: a scratch prepared for a small graph and then reused
  // against a larger snapshot (node-move-in mid-campaign) must grow its
  // tables instead of indexing out of bounds.
  ResolveScratch scratch;
  scratch.prepare(3, 1);

  Graph g(6);  // larger than the prepared node count
  g.addEdge(4, 5);
  const CsrView csr = g.csrView();
  std::vector<Action> acts(6, Action::sleep());
  acts[4] = Action::transmit(msg(4));
  acts[5] = Action::listen();
  const auto round = splitActions(acts);
  const auto& out = resolveRoundActive(csr, round.listen, round.transmissions,
                                       1, scratch);
  ASSERT_EQ(out.deliveries.size(), 1u);
  EXPECT_EQ(out.deliveries[0].receiver, 5u);
  EXPECT_EQ(out.deliveries[0].transmitter, 4u);
  EXPECT_EQ(out.transmissions, 1u);

  // Never shrinks: preparing for fewer nodes keeps the larger tables.
  scratch.prepare(2, 1);
  const auto& again = resolveRoundActive(csr, round.listen,
                                         round.transmissions, 1, scratch);
  ASSERT_EQ(again.deliveries.size(), 1u);
  EXPECT_EQ(again.deliveries[0].receiver, 5u);
}

void expectSameOutcome(const ChannelOutcome& a, const ChannelOutcome& b) {
  EXPECT_EQ(a.transmissions, b.transmissions);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].receiver, b.deliveries[i].receiver);
    EXPECT_EQ(a.deliveries[i].transmitter, b.deliveries[i].transmitter);
    EXPECT_EQ(a.deliveries[i].channel, b.deliveries[i].channel);
  }
  ASSERT_EQ(a.collisionSites.size(), b.collisionSites.size());
  for (std::size_t i = 0; i < a.collisionSites.size(); ++i) {
    EXPECT_EQ(a.collisionSites[i].listener, b.collisionSites[i].listener);
    EXPECT_EQ(a.collisionSites[i].channel, b.collisionSites[i].channel);
  }
}

/// Runs `resolve` and returns the text of the PreconditionError it
/// throws ("" when it does not throw).
template <typename Resolve>
std::string refusal(Resolve&& resolve) {
  try {
    resolve();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

Graph path3() {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  return g;
}

// A pooled scratch serves later runs, so a refused round must leave it
// as it found it: node 0's neighbours are counted before node 2's
// channel is out of range, and the next round must not see those counts.
TEST(ChannelTest, RefusedTransmitRoundLeavesScratchClean) {
  const Graph g = path3();
  const CsrView& csr = g.csrView();
  ResolveScratch scratch;
  scratch.prepare(g.size(), 2);

  std::vector<Action> bad(3, Action::sleep());
  bad[0] = Action::transmit(msg(0), 0);
  bad[1] = Action::listen();
  bad[2] = Action::transmit(msg(2), 7);
  const auto refused = splitActions(bad);
  EXPECT_NE(refusal([&] {
              resolveRoundActive(csr, refused.listen, refused.transmissions,
                                 2, scratch);
            }).find("transmit channel out of range"),
            std::string::npos);

  std::vector<Action> good(3, Action::sleep());
  good[1] = Action::listen();
  good[2] = Action::transmit(msg(2), 0);
  const auto round = splitActions(good);
  const ChannelOutcome& out = resolveRoundActive(
      csr, round.listen, round.transmissions, 2, scratch);
  EXPECT_EQ(out.deliveries.size(), 1u);
  expectSameOutcome(out, resolveRound(g, good, 2));
}

TEST(ChannelTest, RefusedListenRoundLeavesScratchClean) {
  const Graph g = path3();
  const CsrView& csr = g.csrView();
  ResolveScratch scratch;
  scratch.prepare(g.size(), 2);

  std::vector<Action> bad(3, Action::sleep());
  bad[0] = Action::transmit(msg(0), 0);
  bad[1] = Action::listen(5);
  bad[2] = Action::transmit(msg(2), 1);
  const auto refused = splitActions(bad);
  EXPECT_NE(refusal([&] {
              resolveRoundActive(csr, refused.listen, refused.transmissions,
                                 2, scratch);
            }).find("listen channel out of range"),
            std::string::npos);
  EXPECT_NE(refusal([&] { resolveRound(g, bad, 2); })
                .find("listen channel out of range"),
            std::string::npos);

  // Left dirty, node 1's counts would read a phantom frame on channel 0
  // and a collision on channel 1.
  std::vector<Action> good(3, Action::sleep());
  good[0] = Action::transmit(msg(0), 1);
  good[1] = Action::listen();
  const auto round = splitActions(good);
  const ChannelOutcome& out = resolveRoundActive(
      csr, round.listen, round.transmissions, 2, scratch);
  EXPECT_EQ(out.deliveries.size(), 1u);
  EXPECT_EQ(out.collisions(), 0u);
  expectSameOutcome(out, resolveRound(g, good, 2));
}

TEST(ChannelTest, TransmitterThatListensIsRefused) {
  const Graph g = path3();
  ResolveScratch scratch;
  std::vector<Channel> listen(3, kNotListening);
  listen[0] = kAllChannels;
  const std::vector<Transmission> transmissions{
      Transmission{0, 0, msg(0)}};
  EXPECT_THROW(
      resolveRoundActive(g.csrView(), listen, transmissions, 1, scratch),
      PreconditionError);
}

// Random graphs and random rounds — sleepers, wide-band listeners, tuned
// listeners and transmitters on every channel — through one reused
// scratch whose channel count and node bound change between graphs.
TEST(ChannelTest, ActiveResolverMatchesFullScanOnRandomRounds) {
  Rng rng(0xC4A77E1);
  ResolveScratch scratch;
  constexpr int kGraphs = 20;
  constexpr int kRoundsPerGraph = 50;
  std::size_t deliveries = 0;
  std::size_t collisions = 0;
  for (int graph = 0; graph < kGraphs; ++graph) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, 300));
    const auto k = static_cast<Channel>(rng.uniformInt(1, 3));
    const double edgeChance = 8.0 / static_cast<double>(n);
    Graph g(n);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (rng.chance(edgeChance)) g.addEdge(u, v);
    const CsrView& csr = g.csrView();
    const double txChance = rng.uniformReal(0.02, 0.4);
    for (int r = 0; r < kRoundsPerGraph; ++r) {
      SCOPED_TRACE(testing::Message() << "graph " << graph << " round " << r);
      std::vector<Action> acts(n, Action::sleep());
      for (NodeId v = 0; v < n; ++v) {
        const auto channel = static_cast<Channel>(rng.uniformInt(0, k - 1));
        if (rng.chance(txChance)) {
          acts[v] = Action::transmit(msg(v), channel);
        } else if (rng.chance(0.25)) {
          acts[v] = Action::sleep();
        } else {
          acts[v] = Action::listen(rng.chance(0.5) ? kAllChannels : channel);
        }
      }
      const auto round = splitActions(acts);
      const ChannelOutcome expected = resolveRound(g, acts, k);
      expectSameOutcome(resolveRoundActive(csr, round.listen,
                                           round.transmissions, k, scratch),
                        expected);
      deliveries += expected.deliveries.size();
      collisions += expected.collisions();
    }
  }
  EXPECT_GT(deliveries, 1000u);
  EXPECT_GT(collisions, 1000u);
}

TEST(ChannelTest, HiddenTerminalScenario) {
  // Classic: 0 - 1 - 2 with 0,2 out of range; both transmit; 1 hears
  // noise (collision), neither transmitter knows.
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  std::vector<Action> acts(3, Action::sleep());
  acts[0] = Action::transmit(msg(0));
  acts[2] = Action::transmit(msg(2));
  acts[1] = Action::listen();
  const auto out = resolveRound(g, acts, 1);
  EXPECT_TRUE(out.deliveries.empty());
  EXPECT_EQ(out.collisions(), 1u);
  EXPECT_EQ(out.transmissions, 2u);
}

}  // namespace
}  // namespace dsn
