// wsn_sim — command-line driver for the dsnet simulator.
//
// Builds a paper-style deployment and executes a scenario script (file
// or stdin). With no scenario a small demo workload runs.
//
//   wsn_sim [--nodes N] [--seed S] [--field UNITS] [--range METERS]
//           [--drop P] [--channels K] [--deploy KIND]
//           [--protocol SCHEME] [--scenario FILE | -]
//           [--trials T] [--jobs N] [--auto-repair]
//           [--metrics-json FILE] [--trace-out FILE] [--trace-cap N]
//           [--record-trace FILE] [--trace-categories LIST]
//           [--trace-sample N] [--trace-buffer N] [--profile-rounds]
//           [--quiet]
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
// --channels K sets the radio channel count, 1 <= K <= 256
// (kMaxChannels).
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
// deployments (per-trial streams derived with the same SplitMix64
// chaining rule as ExperimentConfig::trialSeed) and reports aggregate
// outcomes; --jobs N fans the trials across N workers (0 = hardware
// concurrency). Results — including the exported metrics document — are
// identical at every worker count: each trial runs under task-local
// telemetry sinks that are merged back in trial order.
//
// Exit status: 0 on success with all invariants intact, 1 on any
// invariant violation, 2 on usage/parse errors.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

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

void usage(std::ostream& os) {
  os << "usage: wsn_sim [--nodes N] [--seed S] [--field UNITS]\n"
        "               [--range METERS] [--drop P] [--channels K]\n"
        "               [--deploy KIND] [--protocol SCHEME]\n"
        "               [--scenario FILE|-] [--dot FILE]\n"
        "               [--trials T] [--jobs N] [--auto-repair]\n"
        "               [--metrics-json FILE] [--trace-out FILE]\n"
        "               [--trace-cap N] [--record-trace FILE]\n"
        "               [--trace-categories LIST] [--trace-sample N]\n"
        "               [--trace-buffer N] [--profile-rounds] [--quiet]\n";
}

bool parseArgs(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      opt.nodes = std::strtoul(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--field") {
      const char* v = next();
      if (!v) return false;
      opt.fieldUnits = std::atoi(v);
    } else if (arg == "--range") {
      const char* v = next();
      if (!v) return false;
      opt.range = std::atof(v);
    } else if (arg == "--drop") {
      const char* v = next();
      if (!v) return false;
      opt.drop = std::atof(v);
    } else if (arg == "--channels") {
      const char* v = next();
      if (!v) return false;
      char* end = nullptr;
      const long long k = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || k < 1 || k > dsn::kMaxChannels)
        return false;
      opt.channels = static_cast<dsn::Channel>(k);
    } else if (arg == "--deploy") {
      const char* v = next();
      if (!v) return false;
      if (!dsn::parseDeploymentWord(v, opt.deploy)) {
        std::cerr << "bad --deploy (want " << dsn::deploymentWordList("|")
                  << ")\n";
        return false;
      }
    } else if (arg == "--protocol") {
      const char* v = next();
      dsn::BroadcastScheme scheme{};
      if (!v || !dsn::parseBroadcastScheme(v, scheme)) {
        std::cerr << "bad --protocol (want " << dsn::schemeWordList("|")
                  << ")\n";
        return false;
      }
      opt.protocol = scheme;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return false;
      opt.scenarioPath = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return false;
      opt.dotPath = v;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (!v) return false;
      opt.metricsJsonPath = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      opt.traceOutPath = v;
    } else if (arg == "--trials") {
      const char* v = next();
      if (!v) return false;
      opt.trials = std::atoi(v);
      if (opt.trials < 1) return false;
    } else if (arg == "--jobs" || arg == "-j") {
      const char* v = next();
      if (!v) return false;
      opt.jobs = std::atoi(v);
      if (opt.jobs < 0) return false;
    } else if (arg == "--trace-cap") {
      const char* v = next();
      if (!v) return false;
      opt.traceCap = std::strtoul(v, nullptr, 10);
      if (opt.traceCap == 0) return false;
    } else if (arg == "--record-trace") {
      const char* v = next();
      if (!v) return false;
      opt.recordTracePath = v;
    } else if (arg == "--trace-categories") {
      const char* v = next();
      if (!v || !dsn::obs::parseFrCategories(v, opt.traceCategories)) {
        std::cerr << "bad --trace-categories (want comma list of "
                     "round,sched,radio,collision,fault,cluster,run "
                     "or 'all')\n";
        return false;
      }
    } else if (arg == "--trace-sample") {
      const char* v = next();
      if (!v) return false;
      opt.traceSample =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      if (opt.traceSample == 0) return false;
    } else if (arg == "--trace-buffer") {
      const char* v = next();
      if (!v) return false;
      opt.traceBuffer = std::strtoul(v, nullptr, 10);
      if (opt.traceBuffer == 0) return false;
    } else if (arg == "--profile-rounds") {
      opt.profileRounds = true;
    } else if (arg == "--auto-repair") {
      opt.autoRepair = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
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

/// Per-trial deployment/scenario stream for --trials mode: the same
/// SplitMix64 chaining rule as ExperimentConfig::trialSeed, with the
/// node count as the first coordinate.
std::uint64_t trialStreamSeed(const CliOptions& opt, int trial) {
  const std::uint64_t s1 =
      dsn::ExperimentConfig::mix64(dsn::ExperimentConfig::mix64(opt.seed) ^
                                   static_cast<std::uint64_t>(opt.nodes));
  return dsn::ExperimentConfig::mix64(s1 ^
                                      static_cast<std::uint64_t>(trial));
}

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
  std::vector<dsn::ScenarioOutcome> slots(trials);
  dsn::exec::forEachIndex(trials, opt.jobs, [&](std::size_t t) {
    const std::uint64_t seed =
        trialStreamSeed(opt, static_cast<int>(t));
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
  if (!parseArgs(argc, argv, opt)) {
    usage(std::cerr);
    return 2;
  }

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
