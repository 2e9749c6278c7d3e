#include "radio/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace dsn {
namespace {

/// Two scripted roles, keyed by node id. A transmitter sends one frame at
/// a fixed round and is then done; every other member listens until it
/// receives anything, then is done.
class ScriptSwarm : public SwarmProtocol {
 public:
  explicit ScriptSwarm(std::size_t nodeCount)
      : sendAt_(nodeCount, -1),
        sent_(nodeCount, false),
        got_(nodeCount, false),
        payload_(nodeCount, 0),
        receivedAt_(nodeCount, -1) {}

  /// Makes `v` a transmitter of one frame in round `when`.
  void transmitAt(NodeId v, Round when) { sendAt_[v] = when; }

  Action onRound(NodeId v, Round r) override {
    if (sendAt_[v] < 0) return got_[v] ? Action::sleep() : Action::listen();
    if (r != sendAt_[v]) return Action::sleep();
    Message m;
    m.sender = v;
    m.payload = 77;
    sent_[v] = true;
    return Action::transmit(m);
  }
  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (sendAt_[v] >= 0) return;
    got_[v] = true;
    payload_[v] = m.payload;
    receivedAt_[v] = r;
  }
  bool isDone(NodeId v) const override {
    return sendAt_[v] >= 0 ? sent_[v] : got_[v];
  }

  bool got(NodeId v) const { return got_[v]; }
  std::uint64_t payload(NodeId v) const { return payload_[v]; }
  Round receivedAt(NodeId v) const { return receivedAt_[v]; }

 private:
  std::vector<Round> sendAt_;
  std::vector<bool> sent_;
  std::vector<bool> got_;
  std::vector<std::uint64_t> payload_;
  std::vector<Round> receivedAt_;
};

/// Installs a ScriptSwarm over `members` in which each (node, round) of
/// `tx` transmits at that round and every other member listens. Returns
/// the swarm, which the simulator owns.
const ScriptSwarm* install(RadioSimulator& sim, std::size_t nodeCount,
                           const std::vector<NodeId>& members,
                           const std::vector<std::pair<NodeId, Round>>& tx) {
  auto swarm = std::make_unique<ScriptSwarm>(nodeCount);
  for (const auto& [v, when] : tx) swarm->transmitAt(v, when);
  const ScriptSwarm* s = swarm.get();
  sim.setSwarm(std::move(swarm), members);
  return s;
}

Graph pair() {
  Graph g(2);
  g.addEdge(0, 1);
  return g;
}

TEST(SimulatorTest, DeliversBetweenTwoNodes) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  const ScriptSwarm* s = install(sim, 2, {0, 1}, {{0, 2}});

  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(s->got(1));
  EXPECT_EQ(s->payload(1), 77u);
  EXPECT_EQ(s->receivedAt(1), 2);
  EXPECT_EQ(r.totalTransmissions, 1u);
  EXPECT_EQ(r.totalDeliveries, 1u);
  EXPECT_EQ(r.rounds, 3);  // rounds 0,1,2 executed; done detected at 3
}

TEST(SimulatorTest, EnergyAccounting) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  install(sim, 2, {0, 1}, {{0, 2}});
  sim.run();
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);
  EXPECT_EQ(sim.energy().node(0).listenRounds, 0u);
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
  EXPECT_EQ(sim.energy().node(1).framesReceived, 1u);
  EXPECT_EQ(sim.energy().node(1).awakeRounds(), 3u);
  EXPECT_EQ(sim.energy().maxAwakeRounds(), 3u);
}

TEST(SimulatorTest, NodesWithoutProtocolSleep) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  RadioSimulator sim(g, SimConfig{});
  install(sim, 3, {0}, {{0, 0}});
  // Nodes 1 and 2 are not swarm members; run ends after 0 transmits.
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.totalDeliveries, 0u);
}

TEST(SimulatorTest, MaxRoundsStopsHangingProtocol) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.maxRounds = 10;
  RadioSimulator sim(g, cfg);
  install(sim, 2, {1}, {});  // a listener that never gets anything
  const SimResult r = sim.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 10);
}

TEST(SimulatorTest, RunTwiceRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(sim.run(), PreconditionError);
}

TEST(SimulatorTest, DeadNodeNeitherActsNorReceives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  const ScriptSwarm* s = install(sim, 2, {0, 1}, {{0, 1}});
  sim.failures().killAt(1, 0);
  const SimResult r = sim.run();
  EXPECT_TRUE(r.completed);  // dead node doesn't block completion
  EXPECT_FALSE(s->got(1));
  EXPECT_EQ(sim.energy().node(1).listenRounds, 0u);
}

TEST(SimulatorTest, DeathMidRunStopsParticipation) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  const ScriptSwarm* s = install(sim, 2, {0, 1}, {{0, 5}});
  sim.failures().killAt(1, 3);  // dies before the round-5 transmission
  sim.run();
  EXPECT_FALSE(s->got(1));
  EXPECT_EQ(sim.energy().node(1).listenRounds, 3u);  // rounds 0..2
}

TEST(SimulatorTest, DroppedTransmissionCostsEnergyButNothingArrives) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  const ScriptSwarm* s = install(sim, 2, {0, 1}, {{0, 0}});
  sim.failures().setDropProbability(1.0);
  const SimResult r = sim.run();
  EXPECT_FALSE(s->got(1));
  EXPECT_EQ(r.droppedTransmissions, 1u);
  EXPECT_EQ(r.totalTransmissions, 0u);  // never went on air
  EXPECT_EQ(sim.energy().node(0).transmitRounds, 1u);  // energy spent
}

TEST(SimulatorTest, TraceRecordsEvents) {
  const Graph g = pair();
  SimConfig cfg;
  cfg.traceCapacity = 100;
  RadioSimulator sim(g, cfg);
  install(sim, 2, {0, 1}, {{0, 0}});
  sim.run();
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kTransmit), 1u);
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kDelivery), 1u);
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kCollision), 0u);
}

TEST(SimulatorTest, ChannelCountMustFitTheTraceRecord) {
  const Graph g = pair();
  for (const Channel k : {Channel{0}, kMaxChannels + 1, Channel{4294967295u}}) {
    SimConfig cfg;
    cfg.channelCount = k;
    EXPECT_THROW({ RadioSimulator sim(g, cfg); }, PreconditionError) << k;
  }
  SimConfig widest;
  widest.channelCount = kMaxChannels;
  EXPECT_NO_THROW({ RadioSimulator sim(g, widest); });
}

/// Every member listens on one fixed channel, every round.
class FixedListenSwarm final : public SwarmProtocol {
 public:
  explicit FixedListenSwarm(Channel channel) : channel_(channel) {}
  Action onRound(NodeId, Round) override { return Action::listen(channel_); }
  void onReceive(NodeId, const Message&, Round, Channel) override {}
  bool isDone(NodeId) const override { return false; }

 private:
  Channel channel_;
};

// With nobody transmitting, no listener is next to a transmitter; the
// active-set engine still refuses a listen channel out of range, as the
// full scan does, and kNotListening is no channel a listener may name.
TEST(SimulatorTest, ListenChannelOutOfRangeIsRefusedByBothEngines) {
  const Graph g = pair();
  for (const SimScheduling scheduling :
       {SimScheduling::kActiveSet, SimScheduling::kFullScan}) {
    for (const Channel c : {Channel{2}, kNotListening}) {
      SimConfig cfg;
      cfg.channelCount = 2;
      cfg.scheduling = scheduling;
      RadioSimulator sim(g, cfg);
      sim.setSwarm(std::make_unique<FixedListenSwarm>(c), {0, 1});
      try {
        sim.run();
        ADD_FAILURE() << "listen on channel " << c << " was accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("listen channel out of range"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SimulatorTest, ProtocolAfterRunRejected) {
  const Graph g = pair();
  RadioSimulator sim(g, SimConfig{});
  sim.run();
  EXPECT_THROW(install(sim, 2, {0}, {}), PreconditionError);
}

TEST(SimulatorTest, SetSwarmRejectsBadInstalls) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.removeNode(2);
  RadioSimulator sim(g, SimConfig{});
  EXPECT_THROW(sim.setSwarm(nullptr, {0, 1}), PreconditionError);
  EXPECT_THROW(install(sim, 3, {0, 3}, {}), PreconditionError);  // past n
  EXPECT_THROW(install(sim, 3, {0, 2}, {}), PreconditionError);  // dead
  // A rejected install leaves the simulator usable: a valid one runs.
  const ScriptSwarm* s = install(sim, 3, {0, 1}, {{0, 0}});
  EXPECT_TRUE(sim.run().completed);
  EXPECT_TRUE(s->got(1));
}

TEST(SimulatorTest, CollisionObservedInTrace) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(2, 1);
  SimConfig cfg;
  cfg.traceCapacity = 100;
  cfg.maxRounds = 20;  // listener starves; don't run the default budget
  RadioSimulator sim(g, cfg);
  const ScriptSwarm* s = install(sim, 3, {0, 1, 2}, {{0, 0}, {2, 0}});
  SimResult r = sim.run();
  EXPECT_FALSE(r.completed);  // listener starves (hits maxRounds)...
  EXPECT_FALSE(s->got(1));
  EXPECT_EQ(sim.trace().countOf(obs::FrType::kCollision), 1u);
}

}  // namespace
}  // namespace dsn
