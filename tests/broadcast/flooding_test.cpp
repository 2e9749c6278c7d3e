// Probabilistic flooding baseline: behaviour and the broadcast-storm
// failure mode the paper's structured protocols avoid.
#include <gtest/gtest.h>

#include "broadcast/runner.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

using testutil::randomNet;

/// Blind flooding of `payload` from `source` at contention window
/// `window`, seeded 0xF100D unless `seed` is given.
BroadcastRun flood(const Graph& g, NodeId source, std::uint64_t payload,
                   int window = 8, std::uint64_t seed = 0xF100D) {
  ProtocolOptions opts;
  opts.arena.contentionWindow = window;
  opts.arena.seed = seed;
  return runRivalBroadcast(BroadcastScheme::kFlooding, g, source, payload,
                           opts);
}

TEST(FloodingTest, PairDelivers) {
  Graph g(2);
  g.addEdge(0, 1);
  const auto run = flood(g, 0, 7);
  EXPECT_TRUE(run.allDelivered());
  EXPECT_EQ(run.deliveryRound[1], 0);
}

TEST(FloodingTest, LargeWindowUsuallyCovers) {
  auto f = randomNet(3001, 120);
  const auto run = flood(*f.graph, 0, 1, 64);  // plenty of dispersion
  EXPECT_GT(run.coverage(), 0.9);
}

TEST(FloodingTest, TinyWindowStormsItself) {
  // Contention window 1: every served node retransmits in the very next
  // round — synchronized relays collide and coverage craters on dense
  // graphs (the classic broadcast storm).
  auto f = randomNet(3002, 200, 5, 60.0);  // dense
  const auto storm = flood(*f.graph, 0, 1, 1);
  const auto calm = flood(*f.graph, 0, 1, 64);
  EXPECT_GT(calm.coverage(), storm.coverage());
  EXPECT_GT(storm.collisions, 0u);
}

TEST(FloodingTest, GossipZeroNeverRelays) {
  auto f = randomNet(3003, 60);
  ProtocolOptions opts;
  opts.arena.gossipProbability = 0.0;
  const auto run =
      runRivalBroadcast(BroadcastScheme::kGossip, *f.graph, 0, 1, opts);
  // Only the source transmits; only its direct neighbors are served.
  EXPECT_EQ(run.transmissions, 1u);
  EXPECT_LE(run.delivered, f.graph->degree(0) + 1);
}

TEST(FloodingTest, DeterministicGivenSeed) {
  auto f = randomNet(3004, 100);
  const auto a = flood(*f.graph, 0, 1, 8, 99);
  const auto b = flood(*f.graph, 0, 1, 8, 99);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(FloodingTest, DisconnectedIntendedOnlyComponent) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  const auto run = flood(g, 0, 1);
  EXPECT_EQ(run.intended, 2u);
  EXPECT_TRUE(run.allDelivered());
}

TEST(FloodingTest, StructuredProtocolBeatsStormOnEnergy) {
  // CFF transmits once per backbone node; flooding transmits once per
  // served node — the structured protocol sends far fewer frames.
  auto f = randomNet(3005, 200);
  const auto cff = runImprovedCffBroadcast(*f.net, f.net->root(), 1);
  const auto storm = flood(*f.graph, f.net->root(), 1, 32);
  EXPECT_TRUE(cff.allDelivered());
  EXPECT_LT(cff.transmissions, storm.transmissions);
}

TEST(FloodingTest, InvalidWindowRejected) {
  Graph g(2);
  g.addEdge(0, 1);
  EXPECT_THROW(flood(g, 0, 1, 0), PreconditionError);
}

}  // namespace
}  // namespace dsn
