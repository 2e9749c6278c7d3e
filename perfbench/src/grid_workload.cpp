// grid_100k: the ROADMAP's reference cell — the network
// `perf_throughput --scale` builds (100,000 grid nodes at 5 per unit²,
// range 50 m) — built once during set-up, then a closed loop of CFF and
// iCFF broadcasts (half each) from seeded random sources on the default
// engine (threads = 0). One broadcast in four runs under 5% i.i.d. loss.
//
// The loop cycles through a fixed list of 16 broadcasts, so every
// broadcast repeats on each pass: clean ones are checked against the
// Lemma 1 / Theorem 1 bounds once, and every later pass must return
// the same result.
//
// Traced run: set-up under spans (deployment, self-construction with
// its obs phases, CSR, plus unit-disk and validation probes), an
// untraced and a traced pass over the list, and a sharded-engine pass
// over its first four broadcasts at nproc threads.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/sensor_network.hpp"
#include "graph/unit_disk.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dsn::BroadcastRun;
using dsn::BroadcastScheme;
using dsn::SensorNetwork;

constexpr std::size_t kSpecs = 16;
constexpr std::size_t kShardedSpecs = 4;
constexpr int kSetups = 3;

dsn::NetworkConfig gridConfig(bool tiny) {
  const std::size_t n = tiny ? 2000 : 100000;
  const dsn::ExperimentConfig ec;  // perf_throughput's unit and range
  const int fieldUnits = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n) / 5.0)));
  dsn::NetworkConfig nc;
  nc.field = dsn::Field::squareUnits(fieldUnits, ec.unitMeters);
  nc.range = ec.range;
  nc.nodeCount = n;
  nc.seed = ec.trialSeed(n, 0);
  nc.deployment = dsn::DeploymentKind::kGrid;
  return nc;
}

struct Spec {
  BroadcastScheme scheme = BroadcastScheme::kCff;
  dsn::NodeId source = 0;
  std::uint64_t payload = 0;
  dsn::ProtocolOptions options;
  bool lossy = false;
  /// Clean broadcasts: Lemma 1 (CFF) or Theorem 1 (iCFF) bounds plus the
  /// source's depth, with the slack tests/broadcast use.
  dsn::Round completionBound = 0;
  std::size_t awakeBound = 0;
};

std::vector<Spec> makeSpecs(const SensorNetwork& net, std::uint64_t seed,
                            bool tightenBounds) {
  dsn::Rng rng(dsn::ExperimentConfig::mix64(seed ^ 0x6121D100Bull));
  const dsn::ClusterNet& cn = net.clusterNet();
  const auto h = static_cast<dsn::Round>(cn.height());
  // Half CFF, half iCFF, among both the clean and the lossy broadcasts;
  // spec k draws its source from the k-th sixteenth of the node ids (a
  // band of the grid), so every seed spreads its sources over the field.
  const std::size_t band = net.graph().size() / kSpecs;
  std::vector<Spec> specs(kSpecs);
  for (std::size_t k = 0; k < kSpecs; ++k) {
    Spec& s = specs[k];
    s.scheme = (k + k / 4) % 2 == 0 ? BroadcastScheme::kCff
                                    : BroadcastScheme::kImprovedCff;
    s.source = static_cast<dsn::NodeId>(k * band + rng.uniform(band));
    DSN_REQUIRE(cn.contains(s.source), "grid source outside the net");
    s.payload = k + 1;
    s.lossy = k % 4 == 3;
    s.options.dropProbability = s.lossy ? 0.05 : 0.0;
    s.options.failureSeed = rng.next();
    const auto depth = static_cast<dsn::Round>(cn.depth(s.source));
    if (s.scheme == BroadcastScheme::kCff) {
      const auto delta = static_cast<dsn::Round>(cn.rootMaxUSlot());
      s.completionBound = delta * (h + 1) + depth + 1;
      s.awakeBound = static_cast<std::size_t>(2 * delta + depth);
    } else {
      const auto b = static_cast<dsn::Round>(cn.rootMaxBSlot());
      const auto l = static_cast<dsn::Round>(cn.rootMaxLSlot());
      s.completionBound = b * (h + 1) + l + depth + 1;
      s.awakeBound = static_cast<std::size_t>(2 * b + l + depth + 2);
    }
    if (tightenBounds) {
      s.completionBound = 0;
      s.awakeBound = 0;
    }
  }
  return specs;
}

/// FNV over every deterministic field of a run.
std::uint64_t fingerprint(const BroadcastRun& run) {
  Fnv h;
  h.addU64(static_cast<std::uint64_t>(run.sim.rounds));
  h.addU64(run.sim.completed ? 1 : 0);
  h.addU64(run.sim.totalTransmissions);
  h.addU64(run.sim.totalDeliveries);
  h.addU64(run.sim.totalCollisions);
  h.addU64(run.sim.droppedTransmissions);
  h.addU64(run.intended);
  h.addU64(run.delivered);
  h.addU64(static_cast<std::uint64_t>(run.lastDeliveryRound));
  h.addU64(static_cast<std::uint64_t>(run.scheduleLength));
  h.addU64(run.maxAwakeRounds);
  h.addU64(run.transmissions);
  h.addU64(run.collisions);
  for (const dsn::Round r : run.deliveryRound)
    h.addU64(static_cast<std::uint64_t>(r));
  return h.value();
}

void checkClean(Result& r, const Spec& s, const BroadcastRun& run,
                std::size_t netSize) {
  const std::string who = std::string(dsn::toString(s.scheme)) +
                          " from " + std::to_string(s.source);
  r.check("clean_broadcast_reaches_all",
          run.allDelivered() && run.delivered == netSize,
          who + ": " + std::to_string(run.delivered) + " of " +
              std::to_string(netSize));
  r.check("clean_broadcast_collision_free", run.collisions == 0,
          who + ": " + std::to_string(run.collisions) + " collisions");
  r.check("completion_within_bound",
          run.completionRounds() <= s.completionBound,
          who + ": " + std::to_string(run.completionRounds()) + " > " +
              std::to_string(s.completionBound));
  r.check("awake_within_bound", run.maxAwakeRounds <= s.awakeBound,
          who + ": " + std::to_string(run.maxAwakeRounds) + " > " +
              std::to_string(s.awakeBound));
}

struct Timed {
  BroadcastRun run;
  double seconds = 0.0;
  bool threw = false;
  /// The run's fingerprint; 0 for a broadcast that threw.
  std::uint64_t print() const { return threw ? 0 : fingerprint(run); }
};

Timed broadcast(const SensorNetwork& net, const Spec& s,
                const dsn::ProtocolOptions& options) {
  Timed t;
  const Clock::time_point t0 = Clock::now();
  try {
    t.run = net.broadcast(s.scheme, s.source, s.payload, options);
  } catch (const std::exception&) {
    t.threw = true;
  }
  t.seconds = secondsSince(t0);
  return t;
}

std::unique_ptr<SensorNetwork> buildNetwork(const dsn::NetworkConfig& cfg) {
  auto net = std::make_unique<SensorNetwork>(cfg);
  net->graph().csrView();  // CSR warm-up, as the serve cache does
  return net;
}

struct LoopTotals {
  dsn::Samples latMs;
  double seconds = 0.0;
  std::uint64_t rounds = 0;
  /// Each broadcast's time in the latest pass.
  std::vector<double> specSeconds;
};

/// Runs pass `pass` over the list; the first pass records each result
/// and counts each broadcast as an operation, later passes must repeat
/// the result. With a tracer, each broadcast gets a span.
void loopPass(Result& r, const SensorNetwork& net,
              const std::vector<Spec>& specs, std::size_t pass,
              std::vector<std::uint64_t>& prints, LoopTotals& totals,
              Tracer* tr = nullptr) {
  totals.specSeconds.resize(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const Spec& s = specs[k];
    const int span = tr ? tr->open("engine.broadcast", Layer::kEngine, k) : -1;
    const Timed t = broadcast(net, s, s.options);
    if (tr) tr->close(span);
    const std::uint64_t fp = t.print();
    if (pass == 0) {
      ++r.attempted;
      if (t.threw) ++r.failed;
      prints[k] = fp;
      if (!s.lossy && !t.threw) checkClean(r, s, t.run, net.size());
    } else {
      r.check(s.lossy ? "lossy_broadcast_repeats" : "clean_broadcast_repeats",
              fp == prints[k], "broadcast " + std::to_string(k) +
                                   " changed on pass " + std::to_string(pass));
    }
    if (t.threw) continue;
    totals.latMs.add(t.seconds * 1e3);
    totals.seconds += t.seconds;
    totals.specSeconds[k] = t.seconds;
    totals.rounds += static_cast<std::uint64_t>(t.run.sim.rounds);
  }
}

std::uint64_t digestOf(const std::vector<std::uint64_t>& prints) {
  Fnv h;
  for (const std::uint64_t p : prints) h.addU64(p);
  return h.value();
}

Result runUntraced(const Options& o) {
  Result r;
  const dsn::NetworkConfig cfg = gridConfig(o.tiny);
  // Every timed span is rescaled to the reference host (see HostSpeed);
  // `raw` keeps the unscaled figures for the notes.
  HostSpeed host;
  dsn::Samples setups, rawSetups;
  std::unique_ptr<SensorNetwork> net;
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    const double before = host.sample(1);
    const Clock::time_point t0 = Clock::now();
    net = buildNetwork(cfg);
    rawSetups.add(secondsSince(t0));
    setups.add(rawSetups.values().back() *
               HostSpeed::scale(1, before, host.sample(1)));
  }
  const std::vector<Spec> specs = makeSpecs(*net, o.seed, o.inject == "bound");

  std::vector<std::uint64_t> prints(specs.size(), 0);
  LoopTotals raw;
  dsn::Samples latMs;
  double seconds = 0.0;
  const Clock::time_point start = Clock::now();
  std::size_t pass = 0;
  for (; pass < 2 || secondsSince(start) < o.seconds; ++pass) {
    LoopTotals one;
    const double before = host.sample(1);
    loopPass(r, *net, specs, pass, prints, one);
    const double scale = HostSpeed::scale(1, before, host.sample(1));
    for (const double ms : one.latMs.values()) {
      raw.latMs.add(ms);
      latMs.add(ms * scale);
    }
    raw.seconds += one.seconds;
    raw.rounds += one.rounds;
    seconds += one.seconds * scale;
  }

  r.digest = digestOf(prints);
  const std::size_t n = latMs.count();
  const double p99 = latMs.quantile(0.99);
  r.notes.push_back("broadcasts " + std::to_string(n) + " (" +
                    std::to_string(pass) + " passes of " +
                    std::to_string(specs.size()) + "), " +
                    std::to_string(countAbove(latMs, p99)) +
                    " beyond p99; " + std::to_string(net->size()) + " nodes");
  r.notes.push_back(
      "unscaled: rounds_per_s " +
      fmt(static_cast<double>(raw.rounds) / raw.seconds, 1) +
      ", job_p50_ms " + fmt(raw.latMs.median()) + ", job_p99_ms " +
      fmt(raw.latMs.quantile(0.99)) + ", setup_s " + fmt(rawSetups.median()));
  r.metric("jobs_per_s", static_cast<double>(n) / seconds, "jobs/s");
  r.metric("job_p50_ms", latMs.median(), "ms");
  r.metric("job_p99_ms", p99, "ms");
  r.metric("rounds_per_s", static_cast<double>(raw.rounds) / seconds,
           "rounds/s");
  r.metric("setup_s", setups.median(), "s");
  r.metric("peak_rss_mb", peakRssMb(), "MB");
  return r;
}

Result runTraced(const Options& o) {
  Result r;
  Tracer tr;
  const int root = tr.open("bench.traced_run", Layer::kBench);
  const dsn::NetworkConfig cfg = gridConfig(o.tiny);
  auto timed = [&](const char* name, Layer layer, const auto& body) {
    const int span = tr.open(name, layer);
    body();
    tr.close(span);
    return span;
  };

  // Set-up, layer by layer.
  dsn::obs::setEnabled(true);
  const int setup = tr.open("bench.setup", Layer::kBench);
  std::vector<dsn::Point2D> points;
  const int deploy =
      timed("graph.deploy", Layer::kGraph, [&] { points = deployPoints(cfg); });
  std::unique_ptr<SensorNetwork> net;
  dsn::obs::MetricsRegistry buildMetrics;
  dsn::obs::TimingRegistry buildTiming;
  const int build = timed("core.network_build", Layer::kCore, [&] {
    dsn::obs::ScopedMetricsSink ms(buildMetrics);
    dsn::obs::ScopedTimingSink ts(buildTiming);
    net = std::make_unique<SensorNetwork>(points, cfg.range, cfg.cluster);
  });
  tr.attach(build, buildTiming);
  const int csr =
      timed("graph.csr", Layer::kGraph, [&] { net->graph().csrView(); });
  const int unitDisk = timed("graph.unit_disk", Layer::kGraph, [&] {
    (void)dsn::buildUnitDiskGraph(points, cfg.range);
  });
  const int validate = timed("cluster.validate", Layer::kCluster,
                             [&] { (void)net->validate(); });
  tr.close(setup);
  dsn::obs::setEnabled(false);

  const std::vector<Spec> specs = makeSpecs(*net, o.seed, o.inject == "bound");
  std::vector<std::uint64_t> prints(specs.size(), 0);
  std::vector<double> serialSeconds;
  dsn::Samples untracedRates, tracedRates;
  PhaseTotals phases;
  RadioCounts counts;
  counts.add(buildMetrics);
  std::size_t tracedBroadcasts = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || secondsSince(start) < o.seconds;
       ++pass) {
    {
      // The end-to-end configuration: telemetry off.
      const int loop = tr.open("engine.broadcast_loop", Layer::kEngine, pass);
      LoopTotals totals;
      loopPass(r, *net, specs, pass, prints, totals, &tr);
      tr.close(loop);
      if (pass == 0) serialSeconds = totals.specSeconds;
      untracedRates.add(static_cast<double>(totals.rounds) / totals.seconds);
    }
    {
      // Traced: obs phases and counters per broadcast call.
      const int loop =
          tr.open("bench.broadcast_loop_traced", Layer::kBench, pass);
      dsn::obs::setEnabled(true);
      std::uint64_t rounds = 0;
      double seconds = 0.0;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        dsn::obs::MetricsRegistry metrics;
        dsn::obs::TimingRegistry timing;
        const int span = tr.open("core.broadcast_call", Layer::kCore, k);
        Timed t;
        {
          dsn::obs::ScopedMetricsSink ms(metrics);
          dsn::obs::ScopedTimingSink ts(timing);
          t = broadcast(*net, specs[k], specs[k].options);
        }
        tr.close(span);
        tr.attach(span, timing);
        r.check("traced_broadcast_matches", t.print() == prints[k],
                "broadcast " + std::to_string(k) + " differs with obs on");
        if (t.threw) continue;
        rounds += static_cast<std::uint64_t>(t.run.sim.rounds);
        seconds += t.seconds;
        if (pass == 0) {
          phases.add(tr.span(span).phases);
          counts.add(metrics);
          ++tracedBroadcasts;
        }
      }
      dsn::obs::setEnabled(false);
      tr.close(loop);
      tracedRates.add(static_cast<double>(rounds) / seconds);
    }
  }

  // The sharded engine at nproc threads on the first broadcasts (one of
  // them lossy, which forces the serial merge of drop draws).
  double serial = 0.0;
  double sharded = 0.0;
  {
    const int loop = tr.open("engine.sharded_broadcasts", Layer::kEngine);
    for (std::size_t k = 0; k < kShardedSpecs; ++k) {
      dsn::ProtocolOptions opts = specs[k].options;
      opts.threads = o.workers;
      const int span = tr.open("engine.broadcast_sharded", Layer::kEngine, k);
      const Timed t = broadcast(*net, specs[k], opts);
      tr.close(span);
      r.check("sharded_matches_serial", t.print() == prints[k],
              "broadcast " + std::to_string(k) + " differs when sharded");
      if (t.threw) continue;
      serial += serialSeconds[k];
      sharded += t.seconds;
    }
    tr.close(loop);
  }
  tr.close(root);
  r.digest = digestOf(prints);

  const auto ns = [&](int span) { return tr.span(span).durationNs(); };
  PhaseTotals built;
  built.add(tr.span(build).phases);
  const auto per =
      static_cast<double>(std::max<std::size_t>(1, tracedBroadcasts));
  r.metric("graph.deploy_ms", static_cast<double>(ns(deploy)) / 1e6, "ms");
  r.metric("graph.unit_disk_ms", static_cast<double>(ns(unitDisk)) / 1e6, "ms");
  r.metric("graph.csr_ms", static_cast<double>(ns(csr)) / 1e6, "ms");
  r.metric("cluster.build_ms",
           static_cast<double>(std::max<std::int64_t>(
               0, built.cnetBuildNs - ns(unitDisk))) / 1e6,
           "ms");
  r.metric("cluster.move_in_us",
           perCall(built.moveInNs, built.moveInCalls, 1e3), "us");
  r.metric("cluster.validate_us", static_cast<double>(ns(validate)) / 1e3,
           "us");
  r.metric("cluster.validations", 0.0, "count/job");
  r.metric("cluster.mutation_ms", 0.0, "ms");
  r.metric("cluster.repair_ms", 0.0, "ms");
  r.metric("radio.sim_ms", static_cast<double>(phases.simNs) / 1e6 / per, "ms");
  r.metric("radio.ns_per_round",
           counts.rounds == 0 ? 0.0
                              : static_cast<double>(phases.simNs) /
                                    static_cast<double>(counts.rounds),
           "ns");
  addRadioCounts(r, counts);
  r.metric("radio.sharded_speedup", sharded > 0.0 ? serial / sharded : 0.0,
           "x");
  r.metric("broadcast.setup_ms",
           perCall(phases.broadcastNs - phases.broadcastSimNs,
                   phases.broadcastCalls, 1e6),
           "ms");
  r.metric("broadcast.cluster_us",
           perCall(phases.clusterSchemeNs, phases.clusterSchemeCalls, 1e3),
           "us");
  r.metric("broadcast.rival_us", 0.0, "us");
  r.metric("broadcast.reliable_ms", 0.0, "ms");
  r.metric("broadcast.gather_ms", 0.0, "ms");
  r.metric("core.network_build_ms", static_cast<double>(ns(build)) / 1e6,
           "ms");
  r.metric("core.scenario_parse_us", 0.0, "us");
  r.metric("core.scenario_self_us", 0.0, "us");
  r.metric("serve.job_parse_us", 0.0, "us");
  r.metric("serve.lease_us", 0.0, "us");
  r.metric("serve.cache_hit_rate", 0.0, "ratio");
  r.metric("serve.cache_misses", 0.0, "count");
  r.metric("serve.cache_evictions", 0.0, "count");
  r.metric("serve.engine_self_us", 0.0, "us");
  r.metric("serve.record_bytes", 0.0, "bytes");
  r.metric("serve.scaling", 0.0, "x");
  r.metric("obs.telemetry_us", 0.0, "us");
  r.metric("obs.trace_overhead", tracedRates.median() / untracedRates.median(),
           "ratio");
  r.notes.push_back("sharded at " + std::to_string(o.workers) +
                    " threads: " + fmt(sharded * 1e3, 1) + " ms vs serial " +
                    fmt(serial * 1e3, 1) + " ms over " +
                    std::to_string(kShardedSpecs) + " broadcasts");
  addLayerTable(r, tr, root);
  if (!o.spansOut.empty())
    r.check("spans_written", tr.write(o.spansOut), o.spansOut);
  return r;
}

}  // namespace

Result runGrid(const Options& o) {
  return o.trace ? runTraced(o) : runUntraced(o);
}

}  // namespace perfbench
