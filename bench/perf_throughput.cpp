// Perf — macro simulator throughput: rounds/sec and deliveries/sec of a
// CFF (Algorithm 1) broadcast under the active-set scheduler vs the
// full-scan reference, at n = 500 / 2000 / 5000.
//
// Both schedulers produce bit-identical runs (the differential suite in
// tests/radio enforces it), so the full-scan column doubles as an
// in-process calibration reference: CI compares the measured
// active/full-scan ratio against the committed baseline in
// bench/baselines/BENCH_perf.json, which cancels out host speed.
//
// Field area scales with n (the paper's max density, 5 nodes per unit
// square) so the 2000- and 5000-node points stress round count and node
// count rather than degenerate into a dense clique.
//
// --trace-overhead switches the binary into a separate mode that
// measures flight-recorder cost at n = 2000 (recorder off vs sampled vs
// every-round) and emits results/BENCH_perf_trace.json. It never touches
// the "perf" record, so the CI perf gate's column contract is unchanged.
#include <chrono>
#include <cmath>
#include <cstring>

#include "bench/bench_common.hpp"
#include "broadcast/runner.hpp"
#include "obs/flight.hpp"

namespace {

struct Throughput {
  double roundsPerSec = 0.0;
  double deliveriesPerSec = 0.0;
};

Throughput measure(const dsn::SensorNetwork& net, dsn::NodeId source,
                   dsn::SimScheduling scheduling, int minReps) {
  dsn::ProtocolOptions opts;
  opts.scheduling = scheduling;
  net.broadcast(dsn::BroadcastScheme::kCff, source, 1, opts);  // warm-up

  // Time-targeted: a single small-n broadcast runs in microseconds, so a
  // fixed rep count yields cache/frequency noise that would destabilize
  // the CI gate's calibrated ratio. Repeat until the cell has measured a
  // meaningful wall-clock span (bounded, in case a run is pathologically
  // slow already).
  double rounds = 0.0;
  double deliveries = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  double secs = 0.0;
  for (int done = 0;;) {
    const auto run =
        net.broadcast(dsn::BroadcastScheme::kCff, source, 1, opts);
    rounds += static_cast<double>(run.sim.rounds);
    deliveries += static_cast<double>(run.delivered);
    ++done;
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
    if (done >= minReps && (secs >= 0.15 || done >= minReps * 200))
      break;
  }
  return {rounds / secs, deliveries / secs};
}

// The --trace-overhead mode: one 2000-node CFF cell timed with the
// flight recorder off, sampled (every 8th round), and on every round.
int runTraceOverhead(dsn::ExperimentConfig cfg) {
  using namespace dsn;
  constexpr std::size_t n = 2000;
  cfg.nodeCounts = {n};
  bench::printHeader("PerfTrace",
                     "flight-recorder overhead, off vs sampled vs full",
                     cfg);

  const int fieldUnits = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
  NetworkConfig nc;
  nc.field = Field::squareUnits(fieldUnits, cfg.unitMeters);
  nc.range = cfg.range;
  nc.nodeCount = n;
  nc.seed = cfg.trialSeed(n, 0);
  const SensorNetwork net(nc);
  Rng rng(cfg.trialSeed(n, 1));
  const NodeId source = net.randomNode(rng);

  auto timed = [&](std::uint32_t sampleEvery) {
    if (sampleEvery > 0) {
      obs::FrConfig fc;
      fc.capacity = 1 << 20;
      fc.sampleEvery = sampleEvery;
      obs::processRecorder().configure(fc);
    }
    const Throughput t =
        measure(net, source, SimScheduling::kActiveSet, cfg.trials);
    obs::processRecorder().configure({});  // recorder off again
    return t;
  };
  const Throughput off = timed(0);
  const Throughput sampled = timed(8);
  const Throughput full = timed(1);

  std::vector<std::vector<double>> rows;
  rows.push_back({static_cast<double>(n), off.roundsPerSec,
                  sampled.roundsPerSec,
                  sampled.roundsPerSec / off.roundsPerSec,
                  full.roundsPerSec, full.roundsPerSec / off.roundsPerSec});
  bench::emitBench(
      "perf_trace", "PerfTrace — flight-recorder overhead (CFF broadcast)",
      {"n", "off r/s", "sampled r/s", "sampled ratio", "full r/s",
       "full ratio"},
      rows, cfg, 3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsn;
  auto cfg = bench::defaultConfig(argc, argv);
  bench::jobsArg(argc, argv);  // accepted for CI symmetry; timing is serial
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-overhead") == 0)
      return runTraceOverhead(cfg);
  }
  cfg.nodeCounts = {500, 2000, 5000};
  bench::printHeader("Perf", "simulator throughput, active-set vs full-scan",
                     cfg);

  std::vector<std::vector<double>> rows;
  for (std::size_t n : cfg.nodeCounts) {
    // 5 nodes per unit square — the paper's densest operating point.
    const int fieldUnits = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
    NetworkConfig nc;
    nc.field = Field::squareUnits(fieldUnits, cfg.unitMeters);
    nc.range = cfg.range;
    nc.nodeCount = n;
    nc.seed = cfg.trialSeed(n, 0);
    const SensorNetwork net(nc);

    Rng rng(cfg.trialSeed(n, 1));
    const NodeId source = net.randomNode(rng);

    const Throughput active =
        measure(net, source, SimScheduling::kActiveSet, cfg.trials);
    const Throughput full =
        measure(net, source, SimScheduling::kFullScan, cfg.trials);
    rows.push_back({static_cast<double>(n), active.roundsPerSec,
                    active.deliveriesPerSec, full.roundsPerSec,
                    full.deliveriesPerSec,
                    active.roundsPerSec / full.roundsPerSec});
  }

  bench::emitBench(
      "perf", "Perf — simulator throughput (CFF broadcast)",
      {"n", "active r/s", "active dlv/s", "fullscan r/s", "fullscan dlv/s",
       "speedup"},
      rows, cfg, 1);
  return 0;
}
