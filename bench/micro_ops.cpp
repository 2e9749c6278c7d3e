// M1 — micro-benchmarks (google-benchmark): wall-clock cost of the core
// operations so regressions in the structural machinery are visible.
#include <benchmark/benchmark.h>

#include "broadcast/runner.hpp"
#include "core/sensor_network.hpp"
#include "exec/lease_pool.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "obs/flight.hpp"
#include "radio/channel.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

std::vector<Point2D> paperPoints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return deployIncrementalAttach(
      {Field::squareUnits(10), 50.0, n}, rng);
}

void BM_UnitDiskBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = paperPoints(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildUnitDiskGraph(pts, 50.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UnitDiskBuild)->Arg(100)->Arg(500);

void BM_ClusterNetConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = paperPoints(n, 2);
  for (auto _ : state) {
    Graph g = buildUnitDiskGraph(pts, 50.0);
    ClusterNet net(g);
    for (NodeId v = 0; v < pts.size(); ++v) net.moveIn(v);
    benchmark::DoNotOptimize(net.netSize());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClusterNetConstruction)->Arg(100)->Arg(500);

void BM_MoveOutMoveIn(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.nodeCount = 300;
  cfg.seed = 3;
  SensorNetwork net(cfg);
  Rng rng(4);
  for (auto _ : state) {
    const NodeId anchor = net.randomNode(rng);
    const Point2D p{net.position(anchor).x + rng.uniformReal(-20, 20),
                    net.position(anchor).y + rng.uniformReal(-20, 20)};
    net.removeSensor(net.randomNode(rng));
    net.addSensor(p);
  }
}
BENCHMARK(BM_MoveOutMoveIn)->Iterations(200);

void BM_IcffBroadcast(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.nodeCount = static_cast<std::size_t>(state.range(0));
  cfg.seed = 5;
  SensorNetwork net(cfg);
  Rng rng(6);
  for (auto _ : state) {
    const auto run = net.broadcast(BroadcastScheme::kImprovedCff,
                                   net.randomNode(rng), 1);
    benchmark::DoNotOptimize(run.delivered);
  }
}
BENCHMARK(BM_IcffBroadcast)->Arg(100)->Arg(500);

void BM_DfoBroadcast(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.nodeCount = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;
  SensorNetwork net(cfg);
  Rng rng(8);
  for (auto _ : state) {
    const auto run =
        net.broadcast(BroadcastScheme::kDfo, net.randomNode(rng), 1);
    benchmark::DoNotOptimize(run.delivered);
  }
}
BENCHMARK(BM_DfoBroadcast)->Arg(100)->Arg(500);

void BM_AdjacencyIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = buildUnitDiskGraph(paperPoints(n, 9), 50.0);
  for (auto _ : state) {
    std::size_t sum = 0;
    for (NodeId v = 0; v < g.size(); ++v)
      for (NodeId u : g.neighbors(v)) sum += u;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * g.edgeCount()));
}
BENCHMARK(BM_AdjacencyIteration)->Arg(100)->Arg(500);

void BM_CsrIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = buildUnitDiskGraph(paperPoints(n, 9), 50.0);
  const CsrView& csr = g.csrView();
  for (auto _ : state) {
    std::size_t sum = 0;
    for (NodeId v = 0; v < g.size(); ++v)
      for (NodeId u : csr.neighbors(v)) sum += u;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(csr.arcCount()));
}
BENCHMARK(BM_CsrIteration)->Arg(100)->Arg(500);

// One resolution round where 10% of the nodes transmit and the rest
// listen wide-band — a dense mid-flood round.
std::vector<Action> resolveActions(const Graph& g) {
  std::vector<Action> actions(g.size(), Action::sleep());
  for (NodeId v = 0; v < g.size(); ++v) {
    if (v % 10 == 0) {
      Message m;
      m.sender = v;
      actions[v] = Action::transmit(m, 0);
    } else {
      actions[v] = Action::listen(kAllChannels);
    }
  }
  return actions;
}

// Per-task vs pooled ResolveScratch: the serve engine's reason for
// leasing scratch from an exec::LeasePool instead of letting every job
// construct its own. Each iteration is one "job": an ICFF broadcast
// whose active-set engine uses an externally supplied scratch
// (ProtocolOptions::resolveScratch). The per-task variant pays
// construction plus on-demand table growth inside the run; the pooled
// variant leases a pre-prepared scratch and the run stays
// allocation-free.
void BM_ScratchPerTask(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = 21;
  SensorNetwork net(cfg);
  Rng rng(22);
  for (auto _ : state) {
    ResolveScratch scratch;
    ProtocolOptions opts;
    opts.resolveScratch = &scratch;
    const auto run = net.broadcast(BroadcastScheme::kImprovedCff,
                                   net.randomNode(rng), 1, opts);
    benchmark::DoNotOptimize(run.delivered);
  }
}
BENCHMARK(BM_ScratchPerTask)->Arg(100)->Arg(500);

void BM_ScratchPooled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = 21;
  SensorNetwork net(cfg);
  Rng rng(22);
  exec::LeasePool<ResolveScratch> pool;
  pool.warmUp(1, [&](ResolveScratch& s) { s.prepare(n, 1); });
  for (auto _ : state) {
    auto lease = pool.acquire();
    ProtocolOptions opts;
    opts.resolveScratch = lease.get();
    const auto run = net.broadcast(BroadcastScheme::kImprovedCff,
                                   net.randomNode(rng), 1, opts);
    benchmark::DoNotOptimize(run.delivered);
  }
}
BENCHMARK(BM_ScratchPooled)->Arg(100)->Arg(500);

void BM_ResolveFullScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = buildUnitDiskGraph(paperPoints(n, 10), 50.0);
  const auto actions = resolveActions(g);
  for (auto _ : state) {
    const ChannelOutcome& out = resolveRound(g, actions, 1);
    benchmark::DoNotOptimize(out.deliveries.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ResolveFullScan)->Arg(100)->Arg(500);

void BM_ResolveTransmitterDriven(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = buildUnitDiskGraph(paperPoints(n, 10), 50.0);
  // The same round as a listen column and transmit records.
  const auto actions = resolveActions(g);
  std::vector<Channel> listen(g.size(), kNotListening);
  std::vector<Transmission> transmissions;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (actions[v].type == Action::Type::kTransmit) {
      transmissions.push_back(
          Transmission{v, actions[v].channel, actions[v].message});
    } else {
      listen[v] = actions[v].channel;
    }
  }
  const CsrView& csr = g.csrView();
  ResolveScratch scratch;
  scratch.prepare(g.size(), 1);
  for (auto _ : state) {
    const ChannelOutcome& out =
        resolveRoundActive(csr, listen, transmissions, 1, scratch);
    benchmark::DoNotOptimize(out.deliveries.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ResolveTransmitterDriven)->Arg(100)->Arg(500);

// Flight-recorder event cost, ns/event: the full record() path with the
// category enabled, the masked path (recorderFor returns nullptr after
// one runtime-mask check), and the unconfigured path (recording off —
// what every instrumented site pays in a normal run).
void BM_FlightRecordEnabled(benchmark::State& state) {
  obs::FlightRecorder recorder;
  obs::FrConfig cfg;
  cfg.capacity = 1 << 16;
  recorder.configure(cfg);
  obs::ScopedRecorderSink sink(recorder);
  obs::FrEvent e;
  e.type = static_cast<std::uint8_t>(obs::FrType::kTransmit);
  std::uint32_t round = 0;
  for (auto _ : state) {
    e.round = round++;
    if (obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatRadio>())
      fr->record(e);
    benchmark::DoNotOptimize(recorder);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordEnabled);

void BM_FlightRecordMaskedCategory(benchmark::State& state) {
  obs::FlightRecorder recorder;
  obs::FrConfig cfg;
  cfg.capacity = 1 << 16;
  cfg.categories = obs::kFrCatRun;  // radio masked out at runtime
  recorder.configure(cfg);
  obs::ScopedRecorderSink sink(recorder);
  obs::FrEvent e;
  e.type = static_cast<std::uint8_t>(obs::FrType::kTransmit);
  for (auto _ : state) {
    obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatRadio>();
    benchmark::DoNotOptimize(fr);
    if (fr) fr->record(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordMaskedCategory);

void BM_FlightRecordDisabled(benchmark::State& state) {
  obs::FlightRecorder recorder;  // never configured: recording off
  obs::ScopedRecorderSink sink(recorder);
  obs::FrEvent e;
  e.type = static_cast<std::uint8_t>(obs::FrType::kTransmit);
  for (auto _ : state) {
    obs::FlightRecorder* fr = obs::recorderFor<obs::kFrCatRadio>();
    benchmark::DoNotOptimize(fr);
    if (fr) fr->record(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordDisabled);

}  // namespace
}  // namespace dsn
