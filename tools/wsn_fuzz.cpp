// wsn_fuzz — property-based fuzz harness for the dsnet protocols.
//
// Runs N seeded episodes. Each episode deploys a random connected
// network, executes a random dynamic-op program (joins, leaves, crashes,
// fault flips, repairs, broadcast/multicast requests), and checks the
// oracle battery after every op: differential delivered-set agreement
// across DFO/CFF/iCFF, collision-freedom, the naive first-principles
// reference simulator, reliable-vs-plain supersetness, multicast
// flood/pruned containment, trace consistency against the radio axioms,
// and validator-vs-independent-spec-checker agreement on the structure.
//
//   wsn_fuzz [--episodes N] [--seed S] [--jobs N] [--verify-jobs N]
//            [--min-nodes N] [--max-nodes N] [--field UNITS] [--ops N]
//            [--channels K] [--inject-cff-bug] [--replay-seed S]
//            [--json FILE] [--artifacts DIR] [--no-shrink] [--quiet]
//
// --channels K (1 <= K <= 256, kMaxChannels) sets every episode's radio
// channel count.
//
// The campaign is deterministically parallel: results (including the
// campaign digest) are bit-identical at every --jobs count.
// --verify-jobs J reruns the whole campaign at a second worker count and
// fails unless the digests match. --replay-seed replays one episode by
// the seed printed in failure reports. --inject-cff-bug corrupts every
// CFF schedule with a deliberate slot-assignment bug; the harness must
// then report failures (this is how the harness tests itself).
//
// On failure, the first failing episode is minimized (op deletion +
// node-count bisection) and, with --artifacts DIR, exported as a
// replayable .wsn scenario plus a seed file. The shrunk program is also
// re-executed with the flight recorder on and the resulting
// shrunk.dsntrace attached, so `wsn_trace summary/dump` can show the
// exact event stream leading into the failure.
//
// Exit status: 0 clean, 1 failures found or digest mismatch, 2 usage.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/flight.hpp"
#include "obs/flight_io.hpp"
#include "radio/simulator.hpp"
#include "testkit/fuzz.hpp"

namespace {

struct CliOptions {
  dsn::testkit::FuzzConfig fuzz;
  int verifyJobs = -1;  ///< < 0 = off
  bool replay = false;
  std::uint64_t replaySeed = 0;
  std::string jsonPath;
  std::string artifactsDir;
  bool quiet = false;
};

void usage(std::ostream& os) {
  os << "usage: wsn_fuzz [--episodes N] [--seed S] [--jobs N]\n"
        "                [--verify-jobs N] [--min-nodes N] [--max-nodes N]\n"
        "                [--field UNITS] [--ops N] [--channels K]\n"
        "                [--inject-cff-bug] [--replay-seed S]\n"
        "                [--json FILE] [--artifacts DIR] [--no-shrink]\n"
        "                [--quiet]\n";
}

bool parseArgs(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--episodes") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.episodes = std::strtoul(v, nullptr, 10);
      if (opt.fuzz.episodes == 0) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs" || arg == "-j") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.jobs = std::atoi(v);
      if (opt.fuzz.jobs < 0) return false;
    } else if (arg == "--verify-jobs") {
      const char* v = next();
      if (!v) return false;
      opt.verifyJobs = std::atoi(v);
      if (opt.verifyJobs < 0) return false;
    } else if (arg == "--min-nodes") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.knobs.minNodes = std::strtoul(v, nullptr, 10);
      if (opt.fuzz.knobs.minNodes < 2) return false;
    } else if (arg == "--max-nodes") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.knobs.maxNodes = std::strtoul(v, nullptr, 10);
    } else if (arg == "--field") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.knobs.fieldUnits = std::atoi(v);
      if (opt.fuzz.knobs.fieldUnits < 1) return false;
    } else if (arg == "--ops") {
      const char* v = next();
      if (!v) return false;
      opt.fuzz.knobs.maxOps = std::strtoul(v, nullptr, 10);
      if (opt.fuzz.knobs.maxOps == 0) return false;
      opt.fuzz.knobs.minOps =
          std::min(opt.fuzz.knobs.minOps, opt.fuzz.knobs.maxOps);
    } else if (arg == "--channels") {
      const char* v = next();
      if (!v) return false;
      char* end = nullptr;
      const long long k = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || k < 1 || k > dsn::kMaxChannels)
        return false;
      opt.fuzz.episode.channels = static_cast<dsn::Channel>(k);
    } else if (arg == "--inject-cff-bug") {
      opt.fuzz.episode.injectCffSlotBug = true;
    } else if (arg == "--replay-seed") {
      const char* v = next();
      if (!v) return false;
      opt.replay = true;
      opt.replaySeed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return false;
      opt.jsonPath = v;
    } else if (arg == "--artifacts") {
      const char* v = next();
      if (!v) return false;
      opt.artifactsDir = v;
    } else if (arg == "--no-shrink") {
      opt.fuzz.shrinkFailures = false;
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
  if (opt.fuzz.knobs.maxNodes < opt.fuzz.knobs.minNodes) return false;
  return true;
}

void printFailure(const dsn::testkit::FuzzFailure& f) {
  std::cerr << "FAIL episode " << f.episodeIndex << " (seed "
            << f.episodeSeed << ", op " << f.result.failingOp << "): ["
            << f.result.failureClass << "] " << f.result.message << "\n";
  if (f.shrunk) {
    std::cerr << "  shrunk to " << f.shrink.program.ops.size() << " ops / "
              << f.shrink.program.nodeCount << " nodes ("
              << f.shrink.episodesRun << " episodes) — class ["
              << f.shrink.failure.failureClass << "]\n";
  }
}

bool writeArtifacts(const std::string& dir,
                    const dsn::testkit::FuzzFailure& f,
                    const dsn::testkit::EpisodeOptions& episode) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open reports
  {
    std::ofstream seedFile(dir + "/failure_seed.txt");
    if (!seedFile) {
      std::cerr << "cannot write artifacts to " << dir << "\n";
      return false;
    }
    seedFile << f.episodeSeed << "\n";
  }
  if (f.shrunk) {
    std::ofstream wsn(dir + "/shrunk.wsn");
    wsn << f.shrink.scenarioText;

    // Replay the minimized episode with the flight recorder on and
    // attach the event stream. A scoped sink keeps the replay out of the
    // process recorder; the rerun is deterministic, so the trace shows
    // exactly the failing execution.
    dsn::obs::FlightRecorder recorder;
    dsn::obs::FrConfig fc;
    fc.capacity = 1 << 16;
    recorder.configure(fc);
    {
      dsn::obs::ScopedRecorderSink sink(recorder);
      dsn::testkit::runEpisode(f.shrink.program, episode);
    }
    std::ofstream traceOut(dir + "/shrunk.dsntrace", std::ios::binary);
    if (traceOut) {
      dsn::obs::writeDsnTrace(traceOut, recorder, f.episodeSeed,
                              f.shrink.program.nodeCount);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parseArgs(argc, argv, opt)) {
    usage(std::cerr);
    return 2;
  }

  if (opt.replay) {
    const auto r = dsn::testkit::replayEpisode(opt.replaySeed,
                                               opt.fuzz.knobs,
                                               opt.fuzz.episode);
    if (r.ok) {
      std::cout << "episode seed " << opt.replaySeed << ": clean ("
                << r.opsExecuted << " ops, digest " << r.digest << ")\n";
      return 0;
    }
    std::cerr << "episode seed " << opt.replaySeed << " fails at op "
              << r.failingOp << ": [" << r.failureClass << "] " << r.message
              << "\n";
    return 1;
  }

  const dsn::testkit::FuzzReport report = dsn::testkit::runFuzz(opt.fuzz);

  bool digestMismatch = false;
  if (opt.verifyJobs >= 0 && opt.verifyJobs != opt.fuzz.jobs) {
    dsn::testkit::FuzzConfig verify = opt.fuzz;
    verify.jobs = opt.verifyJobs;
    verify.shrinkFailures = false;
    const auto second = dsn::testkit::runFuzz(verify);
    if (second.digest != report.digest) {
      digestMismatch = true;
      std::cerr << "DIGEST MISMATCH: jobs=" << opt.fuzz.jobs << " -> "
                << report.digest << ", jobs=" << opt.verifyJobs << " -> "
                << second.digest << "\n";
    } else if (!opt.quiet) {
      std::cout << "digest verified across jobs=" << opt.fuzz.jobs
                << " and jobs=" << opt.verifyJobs << "\n";
    }
  }

  if (!opt.quiet) {
    std::cout << "fuzz: " << report.episodes << " episodes, "
              << report.failed << " failed, " << report.simRuns
              << " simulator runs, " << report.opsExecuted
              << " ops executed (" << report.opsSkipped
              << " skipped), digest " << report.digest << "\n";
  }
  for (const auto& f : report.failures) printFailure(f);

  if (!opt.jsonPath.empty()) {
    std::ofstream out(opt.jsonPath);
    if (!out) {
      std::cerr << "cannot write " << opt.jsonPath << "\n";
      return 2;
    }
    dsn::testkit::writeFuzzJson(out, opt.fuzz, report);
  }
  if (!opt.artifactsDir.empty() && !report.failures.empty()) {
    if (!writeArtifacts(opt.artifactsDir, report.failures.front(),
                        opt.fuzz.episode))
      return 2;
  }

  return (report.clean() && !digestMismatch) ? 0 : 1;
}
