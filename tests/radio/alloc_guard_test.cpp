// Steady-state allocation guard for the transmitter-driven resolver.
//
// The active-set simulator promises zero heap allocations per round once
// its scratch buffers are warm (DESIGN.md §12); this binary overrides the
// global allocator with a counting shim and fails if any resolveRound
// call after warm-up allocates. A second armed pass reruns 1000 rounds
// with the flight recorder enabled on a deliberately undersized ring —
// record() must stay allocation-free even while wrapping (DESIGN.md §13).
// A third pass runs the whole active-set engine over a structure-of-
// arrays swarm (DESIGN.md §14): its wake calendar, action table and
// resolve outcome reach a high-water capacity and are then reused, so a 4x
// longer run must cost exactly as many allocations as a short one — the
// per-round marginal cost is zero. A fourth pass checks every
// receiver's b/l/u slot condition on a seeded 200-node cluster net: once
// the calling thread's scratch is warm, ClusterNet::conditionHolds
// allocates nothing. A fifth pass validates that net whole: after one
// warm-up call, ClusterNetValidator::validate reports ok without a
// single allocation. A plain executable (not gtest) so the override sees
// only our own code paths.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "cluster/cnet.hpp"
#include "cluster/validate.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "obs/flight.hpp"
#include "radio/channel.hpp"
#include "radio/simulator.hpp"
#include "tests/cluster/cluster_test_util.hpp"
#include "util/rng.hpp"

namespace {

std::size_t g_allocs = 0;
bool g_armed = false;

}  // namespace

// GCC pairs the inlined `new` inside make_unique with the std::free in
// our replacement delete and flags a mismatch; with BOTH operators
// replaced malloc/free is the correct pairing, so the warning is a
// false positive here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_armed) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dsn {
namespace {

/// Minimal SoA protocol for the engine pass: every node beacons once
/// per 16-round period (staggered by id) and listens otherwise, so each
/// round carries the same mix of transmissions, deliveries, and
/// collisions forever. Never done — the run always exhausts maxRounds,
/// which lets two runs differ only in round count.
class BeaconSwarm final : public SwarmProtocol {
 public:
  BeaconSwarm(std::size_t nodes, Channel channels)
      : channels_(channels), heard_(nodes, 0) {}

  Action onRound(NodeId v, Round r) override {
    if ((static_cast<Round>(v) + r) % 16 == 0) {
      Message m;
      m.sender = v;
      return Action::transmit(m, static_cast<Channel>(v % channels_));
    }
    return Action::listen(v % 2 == 0 ? kAllChannels
                                     : static_cast<Channel>(v % channels_));
  }
  void onReceive(NodeId v, const Message&, Round, Channel) override {
    ++heard_[v];
  }
  bool isDone(NodeId) const override { return false; }

 private:
  Channel channels_;
  std::vector<std::uint32_t> heard_;
};

bool sameOutcome(const ChannelOutcome& a, const ChannelOutcome& b) {
  if (a.deliveries.size() != b.deliveries.size()) return false;
  if (a.collisionSites.size() != b.collisionSites.size()) return false;
  if (a.transmissions != b.transmissions) return false;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    if (a.deliveries[i].receiver != b.deliveries[i].receiver ||
        a.deliveries[i].transmitter != b.deliveries[i].transmitter ||
        a.deliveries[i].channel != b.deliveries[i].channel)
      return false;
  }
  for (std::size_t i = 0; i < a.collisionSites.size(); ++i) {
    if (a.collisionSites[i].listener != b.collisionSites[i].listener ||
        a.collisionSites[i].channel != b.collisionSites[i].channel)
      return false;
  }
  return true;
}

int run() {
  constexpr Channel kChannels = 2;
  Rng rng(0xA110C);
  const auto points = deployIncrementalAttach(
      {Field::squareUnits(10), 50.0, 400}, rng);
  const Graph g = buildUnitDiskGraph(points, 50.0);

  // A dense mid-flood round: every 10th node transmits (alternating
  // channels), everyone else listens — half wide-band, half tuned.
  std::vector<Action> actions(g.size(), Action::sleep());
  std::vector<NodeId> transmitters;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (v % 10 == 0) {
      Message m;
      m.sender = v;
      actions[v] = Action::transmit(m, static_cast<Channel>(v / 10 % 2));
      transmitters.push_back(v);
    } else {
      actions[v] = Action::listen(
          v % 2 == 0 ? kAllChannels : static_cast<Channel>(v % kChannels));
    }
  }

  const CsrView& csr = g.csrView();
  ResolveScratch scratch;
  scratch.prepare(g.size(), kChannels);

  // The transmitter-driven resolver must agree with the full scan.
  const ChannelOutcome fullScan = resolveRound(g, actions, kChannels);
  const ChannelOutcome& warm =
      resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
  if (!sameOutcome(fullScan, warm)) {
    std::fprintf(stderr,
                 "FAIL: transmitter-driven outcome differs from full scan\n");
    return 1;
  }
  if (warm.deliveries.empty() || warm.collisionSites.empty()) {
    std::fprintf(stderr, "FAIL: scenario exercises no deliveries or "
                         "collisions — not a meaningful guard\n");
    return 1;
  }

  // Steady state: with warm scratch and outcome capacity, a round costs
  // zero allocations.
  g_armed = true;
  for (int i = 0; i < 1000; ++i)
    resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
  g_armed = false;

  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations across 1000 steady-state "
                 "rounds (expected 0)\n",
                 g_allocs);
    return 1;
  }

  // Same guarantee with the flight recorder enabled: record() must stay
  // an indexed store even while the ring wraps. The ring is sized well
  // below 1000 rounds' worth of events so the overflow path is the one
  // being measured.
  obs::FlightRecorder recorder;
  obs::FrConfig traceConfig;
  traceConfig.capacity = 4096;
  recorder.configure(traceConfig);
  {
    obs::ScopedRecorderSink sink(recorder);
    g_armed = true;
    for (int round = 0; round < 1000; ++round) {
      const ChannelOutcome& out =
          resolveRoundActive(csr, actions, transmitters, kChannels, scratch);
      // Mirror the simulator's per-round instrumentation.
      obs::FlightRecorder* frRadio = obs::recorderFor<obs::kFrCatRadio>();
      obs::FlightRecorder* frColl = obs::recorderFor<obs::kFrCatCollision>();
      if (frRadio) {
        for (const NodeId tx : transmitters) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = tx;
          e.type = static_cast<std::uint8_t>(obs::FrType::kTransmit);
          frRadio->record(e);
        }
        for (const Delivery& d : out.deliveries) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = d.receiver;
          e.data = d.transmitter;
          e.channel = static_cast<std::uint8_t>(d.channel);
          e.type = static_cast<std::uint8_t>(obs::FrType::kDelivery);
          frRadio->record(e);
        }
      }
      if (frColl) {
        for (const CollisionSite& c : out.collisionSites) {
          obs::FrEvent e;
          e.round = static_cast<std::uint32_t>(round);
          e.node = c.listener;
          e.channel = static_cast<std::uint8_t>(c.channel);
          e.type = static_cast<std::uint8_t>(obs::FrType::kCollision);
          frColl->record(e);
        }
      }
    }
    g_armed = false;
  }

  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations across 1000 recorded rounds "
                 "(expected 0)\n",
                 g_allocs);
    return 1;
  }
  if (recorder.droppedEvents() == 0) {
    std::fprintf(stderr,
                 "FAIL: ring never wrapped (%zu stored) — the recorded "
                 "guard is not exercising overflow\n",
                 recorder.storedEvents());
    return 1;
  }
  // Active-set engine over the swarm: its buffers reach a high-water
  // capacity during the first beacon period and are then reused, so
  // extending a run by 300 rounds must not add a single allocation. Two
  // fresh simulators with identical setup, differing only in maxRounds,
  // are compared on total allocation count — any per-round marginal cost
  // shows up as growth.
  auto swarmRun = [&](SimScheduling scheduling, Round maxRounds) {
    SimConfig cfg;
    cfg.channelCount = kChannels;
    cfg.maxRounds = maxRounds;
    cfg.scheduling = scheduling;
    RadioSimulator sim(g, cfg);
    std::vector<NodeId> members(g.size());
    for (NodeId v = 0; v < g.size(); ++v) members[v] = v;
    sim.setSwarm(std::make_unique<BeaconSwarm>(g.size(), kChannels),
                 members);
    return sim.run();
  };
  auto countedRun = [&](Round maxRounds, std::size_t* allocsOut) {
    const std::size_t before = g_allocs;
    g_armed = true;
    const SimResult res = swarmRun(SimScheduling::kActiveSet, maxRounds);
    g_armed = false;
    *allocsOut = g_allocs - before;
    return res;
  };

  std::size_t allocsShort = 0;
  std::size_t allocsLong = 0;
  const SimResult shortRun = countedRun(100, &allocsShort);
  const SimResult longRun = countedRun(400, &allocsLong);

  if (shortRun.totalDeliveries == 0 || shortRun.totalCollisions == 0) {
    std::fprintf(stderr, "FAIL: swarm scenario exercises no deliveries "
                         "or collisions — not a meaningful guard\n");
    return 1;
  }
  if (longRun.rounds != 400 || shortRun.rounds != 100 ||
      longRun.totalDeliveries <= shortRun.totalDeliveries) {
    std::fprintf(stderr, "FAIL: swarm runs did not exhaust their round "
                         "budgets (%llu / %llu rounds)\n",
                 static_cast<unsigned long long>(shortRun.rounds),
                 static_cast<unsigned long long>(longRun.rounds));
    return 1;
  }
  if (allocsLong > allocsShort) {
    std::fprintf(stderr,
                 "FAIL: active-set engine allocates per round in steady "
                 "state: 100 rounds cost %zu allocations, 400 rounds "
                 "cost %zu (expected no growth)\n",
                 allocsShort, allocsLong);
    return 1;
  }

  // And the numbers the measured engine produced are the real ones.
  const SimResult refRun = swarmRun(SimScheduling::kFullScan, 400);
  if (refRun.totalTransmissions != longRun.totalTransmissions ||
      refRun.totalDeliveries != longRun.totalDeliveries ||
      refRun.totalCollisions != longRun.totalCollisions ||
      refRun.rounds != longRun.rounds) {
    std::fprintf(stderr, "FAIL: active-set swarm totals diverge from the "
                         "full-scan reference\n");
    return 1;
  }

  // Slot conditions: a warm-up sweep sizes the checking thread's buffer,
  // then a second sweep over every receiver must not allocate.
  const testutil::NetFixture cluster = testutil::randomNet(0xC1A55, 200);
  const ClusterNet& net = *cluster.net;
  std::vector<std::pair<SlotFamily, NodeId>> receivers;
  for (NodeId v : net.netNodes()) {
    if (v == net.root()) continue;
    receivers.emplace_back(
        net.isBackbone(v) ? SlotFamily::kB : SlotFamily::kL, v);
    receivers.emplace_back(SlotFamily::kU, v);
  }
  auto conditionSweep = [&] {
    std::size_t held = 0;
    for (const auto& [family, v] : receivers)
      if (net.conditionHolds(family, v)) ++held;
    return held;
  };
  const std::size_t warmHeld = conditionSweep();
  const std::size_t before = g_allocs;
  g_armed = true;
  const std::size_t armedHeld = conditionSweep();
  g_armed = false;
  if (g_allocs != before) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations across %zu warm slot-condition "
                 "checks (expected 0)\n",
                 g_allocs - before, receivers.size());
    return 1;
  }
  if (warmHeld != receivers.size() || armedHeld != warmHeld) {
    std::fprintf(stderr,
                 "FAIL: %zu then %zu of %zu slot conditions hold on a "
                 "freshly built net (expected all)\n",
                 warmHeld, armedHeld, receivers.size());
    return 1;
  }

  // Whole validation: the warm-up call sizes the thread's validation
  // scratch, then validating the same sound net must not allocate.
  const bool warmValid = ClusterNetValidator::validate(net).ok();
  const std::size_t beforeValidate = g_allocs;
  g_armed = true;
  const bool armedValid = ClusterNetValidator::validate(net).ok();
  g_armed = false;
  if (g_allocs != beforeValidate) {
    std::fprintf(stderr,
                 "FAIL: %zu heap allocations in one warm validation of a "
                 "%zu-node net (expected 0)\n",
                 g_allocs - beforeValidate, net.netSize());
    return 1;
  }
  if (!warmValid || !armedValid) {
    std::fprintf(stderr, "FAIL: a freshly built net does not validate\n");
    return 1;
  }

  std::printf("ok: 1000 steady-state rounds, 0 allocations, %zu "
              "deliveries + %zu collision sites per round; recorded "
              "rerun stored %zu events (%llu dropped) with 0 "
              "allocations; swarm engine 100->400 rounds added 0 of %zu "
              "setup allocations; %zu warm slot-condition checks, 0 "
              "allocations; warm validation of %zu nodes, 0 "
              "allocations\n",
              warm.deliveries.size(), warm.collisionSites.size(),
              recorder.storedEvents(),
              static_cast<unsigned long long>(recorder.droppedEvents()),
              allocsShort, receivers.size(), net.netSize());
  return 0;
}

}  // namespace
}  // namespace dsn

int main() { return dsn::run(); }
