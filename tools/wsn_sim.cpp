// wsn_sim — command-line driver for the dsnet simulator.
//
// Builds a paper-style deployment and executes a scenario script (file
// or stdin). With no scenario a small demo workload runs. `wsn_sim
// --help` lists the flags; every value is checked whole against its
// flag's range (util/cli.hpp).
//
// --auto-repair runs the crash-recovery pass immediately after every
// `crash` scenario event instead of waiting for an explicit `repair`
// line (see DESIGN.md §10).
//
// --protocol SCHEME overrides the scheme of every `broadcast` scenario
// event (dfo|cff|icff|flood|gossip|agossip|counter|distance|rlnc), so
// one script can race the whole arena roster without editing it.
// `rbroadcast` events keep their scripted slotted scheme and `arena`
// events still race everyone (DESIGN.md §16).
//
// --deploy picks the position generator (attach|uniform|grid|line|star;
// default attach). Million-node runs want grid: incremental-attach
// densifies quadratically, the grid deployment is linear.
//
// --metrics-json enables the telemetry layer for the run and writes a
// dsnet-run-v1 JSON document (config, outcome, metrics registry
// snapshot, hierarchical phase timings). --trace-out captures per-round
// radio events from every protocol run into a JSONL file.
//
// --record-trace enables the flight recorder and writes the binary
// .dsntrace event stream for wsn_trace to consume. --trace-categories
// narrows recording to a comma list (round,sched,radio,collision,fault,
// cluster,run — default all); --trace-sample N records round-scoped
// volume events every Nth round only; --trace-buffer sets the ring
// capacity in events (overflow keeps the latest events and counts the
// rest as trace.dropped_events). The recorded stream carries logical
// round numbers only, so it is bit-identical at every --jobs count.
// --profile-rounds feeds per-round wall-time / active-set / resolve-work
// histograms (sim.round_*) into the metrics document; off by default
// because wall-times are machine-dependent.
//
// --trials T replicates the scenario over T independently seeded
// deployments (per-trial streams from ExperimentConfig::trialSeed with
// --seed as its base seed) and reports aggregate outcomes; --jobs N
// fans the trials across N workers (0 = hardware concurrency). Results
// — including the exported metrics document — are identical at every
// worker count: each trial runs under task-local telemetry sinks that
// are merged back in trial order.
//
// Exit status: 0 on success with all invariants intact, 1 on any
// invariant violation, 2 on usage/parse errors.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/runner.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "cluster/export.hpp"
#include "exec/parallel_sweep.hpp"
#include "exec/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/flight_io.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timer.hpp"
#include "radio/simulator.hpp"
#include "util/cli.hpp"

namespace {

struct CliOptions {
  std::size_t nodes = 200;
  std::uint64_t seed = 2007;
  int fieldUnits = 10;
  double range = 50.0;
  double drop = 0.0;
  dsn::Channel channels = 1;
  dsn::DeploymentKind deploy = dsn::DeploymentKind::kIncrementalAttach;
  std::optional<dsn::BroadcastScheme> protocol;  ///< broadcast override
  std::string scenarioPath;
  std::string dotPath;
  std::string metricsJsonPath;
  std::string traceOutPath;
  std::size_t traceCap = 1 << 16;  ///< per protocol run
  std::string recordTracePath;
  std::uint32_t traceCategories = dsn::obs::kFrCatAll;
  std::uint32_t traceSample = 1;
  std::size_t traceBuffer = 1 << 20;  ///< flight-recorder ring, in events
  bool profileRounds = false;
  int trials = 1;
  int jobs = 1;  ///< 0 = hardware concurrency
  bool autoRepair = false;
  bool quiet = false;
};

/// The flag table: every wsn_sim flag, its value and where it goes.
std::vector<dsn::cli::Flag> flagTable(CliOptions& opt) {
  namespace cli = dsn::cli;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      cli::integer("--nodes", "N", opt.nodes),
      cli::integer("--seed", "S", opt.seed),
      cli::integer("--field", "UNITS", opt.fieldUnits, 1, kIntMax),
      cli::real("--range", "METERS", opt.range, 0.0, kInf, cli::Open::kLow),
      cli::real("--drop", "P", opt.drop, 0.0, 1.0),
      cli::integer("--channels", "K", opt.channels, 1, dsn::kMaxChannels),
      {"--deploy", "KIND",
       [&opt](std::string_view w) {
         return dsn::parseDeploymentWord(w, opt.deploy);
       },
       dsn::deploymentWordList("|")},
      {"--protocol", "SCHEME",
       [&opt](std::string_view w) {
         dsn::BroadcastScheme scheme{};
         if (!dsn::parseBroadcastScheme(w, scheme)) return false;
         opt.protocol = scheme;
         return true;
       },
       dsn::schemeWordList("|")},
      cli::text("--scenario", "FILE|-", opt.scenarioPath),
      cli::text("--dot", "FILE", opt.dotPath),
      cli::integer("--trials", "T", opt.trials, 1, kIntMax),
      cli::integer("--jobs|-j", "N", opt.jobs, 0, kIntMax),
      cli::toggle("--auto-repair", opt.autoRepair),
      cli::text("--metrics-json", "FILE", opt.metricsJsonPath),
      cli::text("--trace-out", "FILE", opt.traceOutPath),
      cli::integer("--trace-cap", "N", opt.traceCap, 1),
      cli::text("--record-trace", "FILE", opt.recordTracePath),
      {"--trace-categories", "LIST",
       [&opt](std::string_view w) {
         return dsn::obs::parseFrCategories(w, opt.traceCategories);
       },
       "a comma list of round,sched,radio,collision,fault,cluster,run "
       "or all"},
      cli::integer("--trace-sample", "N", opt.traceSample, 1),
      cli::integer("--trace-buffer", "N", opt.traceBuffer, 1),
      cli::toggle("--profile-rounds", opt.profileRounds),
      cli::toggle("--quiet", opt.quiet),
  };
}

constexpr const char* kDemoScenario = R"(
# demo: churn + every communication primitive
broadcast random icff
broadcast random dfo
gather
leave 3
leave 17
join 480 510
group 5 1
group 9 1
multicast 0 1 pruned
compact
validate
broadcast random icff
# robustness: crash two nodes, repair, reliable re-broadcast under loss
crash 11
crash 23
repair
validate
faults drop 0.15
rbroadcast random icff 6
faults none
)";

dsn::NetworkConfig networkConfigFor(const CliOptions& opt,
                                    std::uint64_t seed) {
  dsn::NetworkConfig cfg;
  cfg.nodeCount = opt.nodes;
  cfg.seed = seed;
  cfg.field = dsn::Field::squareUnits(opt.fieldUnits);
  cfg.range = opt.range;
  cfg.deployment = opt.deploy;
  cfg.autoRepair = opt.autoRepair;
  return cfg;
}

dsn::ScenarioOptions scenarioOptionsFor(const CliOptions& opt,
                                        std::uint64_t seed) {
  dsn::ScenarioOptions sopt;
  sopt.seed = seed ^ 0xCAFE;
  sopt.protocol.dropProbability = opt.drop;
  sopt.protocol.channels = opt.channels;
  sopt.forceScheme = opt.protocol;
  if (!opt.traceOutPath.empty())
    sopt.protocol.traceCapacity = opt.traceCap;
  return sopt;
}

/// Runs the scenario over `opt.trials` independently seeded deployments
/// (sharded across `opt.jobs` workers) and folds the outcomes in trial
/// order: counts add, coverages/yields take the worst, traces
/// concatenate, and the first violation (by trial index) wins. The
/// telemetry registries end up identical to a serial run of the same
/// trials — each task records into thread-local sinks that
/// exec::forEachIndex merges back deterministically.
dsn::ScenarioOutcome runReplicated(
    const CliOptions& opt, const std::vector<dsn::ScenarioEvent>& events) {
  const std::size_t trials = static_cast<std::size_t>(opt.trials);
  dsn::ExperimentConfig streams;
  streams.baseSeed = opt.seed;
  std::vector<dsn::ScenarioOutcome> slots(trials);
  dsn::exec::forEachIndex(trials, opt.jobs, [&](std::size_t t) {
    const std::uint64_t seed =
        streams.trialSeed(opt.nodes, static_cast<int>(t));
    dsn::SensorNetwork net(networkConfigFor(opt, seed));
    slots[t] = dsn::runScenario(net, events, scenarioOptionsFor(opt, seed));
  });

  dsn::ScenarioOutcome agg;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto& one = slots[t];
    for (const auto& line : one.log)
      agg.log.push_back("[trial " + std::to_string(t) + "] " + line);
    agg.eventsExecuted += one.eventsExecuted;
    agg.broadcasts += one.broadcasts;
    agg.arenas += one.arenas;
    agg.reliableBroadcasts += one.reliableBroadcasts;
    agg.multicasts += one.multicasts;
    agg.gathers += one.gathers;
    agg.crashes += one.crashes;
    agg.repairs += one.repairs;
    agg.worstCoverage = std::min(agg.worstCoverage, one.worstCoverage);
    agg.worstYield = std::min(agg.worstYield, one.worstYield);
    if (!one.valid && agg.valid) {
      agg.valid = false;
      agg.firstViolation =
          "[trial " + std::to_string(t) + "] " + one.firstViolation;
    }
    agg.traceEvents.insert(agg.traceEvents.end(), one.traceEvents.begin(),
                           one.traceEvents.end());
    agg.traceDropped += one.traceDropped;
  }
  return agg;
}

/// dsnet-run-v1 document: config + outcome + metrics + timing.
std::string runDocumentJson(const CliOptions& opt,
                            const dsn::ScenarioOutcome& outcome) {
  dsn::obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "dsnet-run-v1");
  w.kv("tool", "wsn_sim");
  w.key("config").beginObject();
  w.kv("nodes", static_cast<std::uint64_t>(opt.nodes));
  w.kv("seed", static_cast<std::uint64_t>(opt.seed));
  w.kv("field_units", opt.fieldUnits);
  w.kv("range", opt.range);
  w.kv("drop", opt.drop);
  w.kv("channels", static_cast<std::uint64_t>(opt.channels));
  w.kv("trials", static_cast<std::uint64_t>(opt.trials));
  w.kv("jobs", static_cast<std::uint64_t>(
                   dsn::exec::resolveJobs(opt.jobs)));
  w.kv("scenario",
       opt.scenarioPath.empty() ? "<demo>" : opt.scenarioPath);
  if (opt.protocol) w.kv("protocol", dsn::toString(*opt.protocol));
  w.endObject();
  w.key("outcome");
  dsn::writeOutcomeJson(w, outcome);
  w.key("metrics");
  dsn::obs::writeRegistryJson(w, dsn::obs::globalMetrics());
  w.key("timing");
  dsn::obs::writeTimingJson(w, dsn::obs::globalTiming());
  w.endObject();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsn;

  CliOptions opt;
  if (const auto status = cli::parse("wsn_sim", flagTable(opt), argc, argv))
    return *status;

  if (!opt.metricsJsonPath.empty()) {
    obs::setEnabled(true);
    obs::globalMetrics().reset();
    obs::globalTiming().reset();
  }
  if (!opt.recordTracePath.empty()) {
    obs::FrConfig fc;
    fc.capacity = opt.traceBuffer;
    fc.categories = opt.traceCategories;
    fc.sampleEvery = opt.traceSample;
    obs::processRecorder().configure(fc);
  }
  if (opt.profileRounds) obs::setRoundProfiling(true);

  if (opt.trials > 1 && !opt.dotPath.empty()) {
    std::cerr << "--dot requires --trials 1 (no single final topology "
                 "in replicated mode)\n";
    return 2;
  }

  std::vector<ScenarioEvent> events;
  try {
    if (opt.scenarioPath.empty()) {
      events = parseScenario(std::string(kDemoScenario));
    } else if (opt.scenarioPath == "-") {
      events = parseScenario(std::cin);
    } else {
      std::ifstream in(opt.scenarioPath);
      if (!in) {
        std::cerr << "cannot open scenario: " << opt.scenarioPath << "\n";
        return 2;
      }
      events = parseScenario(in);
    }
  } catch (const std::exception& ex) {
    std::cerr << "scenario parse error: " << ex.what() << "\n";
    return 2;
  }

  // Single-trial mode keeps the deployment alive for --dot and the
  // final gauge refresh; replicated mode tears each one down inside its
  // worker task.
  std::unique_ptr<SensorNetwork> net;
  ScenarioOutcome outcome;
  try {
    if (opt.trials == 1) {
      net = std::make_unique<SensorNetwork>(
          networkConfigFor(opt, opt.seed));
      if (!opt.quiet) std::cout << toSummary(net->clusterNet()) << "\n";
      outcome =
          runScenario(*net, events, scenarioOptionsFor(opt, opt.seed));
    } else {
      outcome = runReplicated(opt, events);
    }
  } catch (const std::exception& ex) {
    std::cerr << "scenario execution error: " << ex.what() << "\n";
    return 2;
  }

  // Fold flight-recorder accounting into the metrics registry (and log
  // an overflow warning) before the run document snapshots it.
  if (!opt.recordTracePath.empty()) obs::flushRecorderTelemetry();

  if (!opt.quiet) {
    for (const auto& line : outcome.log) std::cout << "  " << line << "\n";
  }
  if (!opt.dotPath.empty()) {
    std::ofstream dot(opt.dotPath);
    if (!dot) {
      std::cerr << "cannot write dot file: " << opt.dotPath << "\n";
      return 2;
    }
    dot << toDot(net->clusterNet());
    if (!opt.quiet)
      std::cout << "[dot] final topology written to " << opt.dotPath
                << "\n";
  }
  if (!opt.metricsJsonPath.empty()) {
    // Refresh point-in-time gauges so the snapshot describes the final
    // topology even if the last structural op predates churn-free events.
    // Replicated mode skips this: the merged registry already carries the
    // last trial's gauges (merge order is deterministic).
    if (net) {
      obs::globalMetrics()
          .gauge("cluster.backbone_size")
          .set(static_cast<double>(
              net->clusterNet().backboneNodes().size()));
      obs::globalMetrics()
          .gauge("cluster.net_size")
          .set(static_cast<double>(net->clusterNet().netSize()));
      obs::globalMetrics()
          .gauge("cluster.height")
          .set(static_cast<double>(net->clusterNet().height()));
    }
    std::ofstream mj(opt.metricsJsonPath);
    if (!mj) {
      std::cerr << "cannot write metrics file: " << opt.metricsJsonPath
                << "\n";
      return 2;
    }
    mj << runDocumentJson(opt, outcome) << "\n";
    if (!opt.quiet)
      std::cout << "[metrics] run document written to "
                << opt.metricsJsonPath << "\n";
  }
  if (!opt.traceOutPath.empty()) {
    std::ofstream tr(opt.traceOutPath);
    if (!tr) {
      std::cerr << "cannot write trace file: " << opt.traceOutPath << "\n";
      return 2;
    }
    obs::writeFrEventsJsonl(tr, outcome.traceEvents);
    if (!opt.quiet)
      std::cout << "[trace] " << outcome.traceEvents.size()
                << " events written to " << opt.traceOutPath << " ("
                << outcome.traceDropped << " dropped)\n";
  }
  if (!opt.recordTracePath.empty()) {
    std::ofstream out(opt.recordTracePath, std::ios::binary);
    if (!out || !obs::writeDsnTrace(out, obs::processRecorder(), opt.seed,
                                    opt.nodes)) {
      std::cerr << "cannot write trace file: " << opt.recordTracePath
                << "\n";
      return 2;
    }
    if (!opt.quiet) {
      const auto& rec = obs::processRecorder();
      std::cout << "[dsntrace] " << rec.storedEvents()
                << " events written to " << opt.recordTracePath << " ("
                << rec.droppedEvents() << " dropped)\n";
    }
  }
  std::cout << "events=" << outcome.eventsExecuted
            << " broadcasts=" << outcome.broadcasts
            << " arenas=" << outcome.arenas
            << " rbroadcasts=" << outcome.reliableBroadcasts
            << " multicasts=" << outcome.multicasts
            << " gathers=" << outcome.gathers
            << " crashes=" << outcome.crashes
            << " repairs=" << outcome.repairs
            << " worst-coverage=" << outcome.worstCoverage
            << " worst-yield=" << outcome.worstYield
            << " valid=" << (outcome.valid ? "yes" : "NO") << "\n";
  if (!outcome.valid) {
    std::cerr << "first violation:\n" << outcome.firstViolation << "\n";
    return 1;
  }
  return 0;
}
