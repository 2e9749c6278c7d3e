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
// `wsn_fuzz --help` lists the flags; --channels sets every episode's
// radio channel count.
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
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/flight_io.hpp"
#include "radio/simulator.hpp"
#include "testkit/fuzz.hpp"
#include "util/cli.hpp"

namespace {

struct CliOptions {
  dsn::testkit::FuzzConfig fuzz;
  int verifyJobs = -1;  ///< < 0 = off
  std::optional<std::uint64_t> replaySeed;
  std::string jsonPath;
  std::string artifactsDir;
  bool noShrink = false;
  bool quiet = false;
};

/// The flag table: every wsn_fuzz flag, its value and where it goes.
std::vector<dsn::cli::Flag> flagTable(CliOptions& opt) {
  namespace cli = dsn::cli;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  dsn::testkit::GeneratorKnobs& knobs = opt.fuzz.knobs;
  return {
      cli::integer("--episodes", "N", opt.fuzz.episodes, 1),
      cli::integer("--seed", "S", opt.fuzz.seed),
      cli::integer("--jobs|-j", "N", opt.fuzz.jobs, 0, kIntMax),
      cli::integer("--verify-jobs", "N", opt.verifyJobs, 0, kIntMax),
      cli::integer("--min-nodes", "N", knobs.minNodes, 2),
      cli::integer("--max-nodes", "N", knobs.maxNodes),
      cli::integer("--field", "UNITS", knobs.fieldUnits, 1, kIntMax),
      cli::integer("--ops", "N", knobs.maxOps, 1),
      cli::integer("--channels", "K", opt.fuzz.episode.channels, 1,
                   dsn::kMaxChannels),
      cli::toggle("--inject-cff-bug", opt.fuzz.episode.injectCffSlotBug),
      cli::integer("--replay-seed", "S", opt.replaySeed),
      cli::text("--json", "FILE", opt.jsonPath),
      cli::text("--artifacts", "DIR", opt.artifactsDir),
      cli::toggle("--no-shrink", opt.noShrink),
      cli::toggle("--quiet", opt.quiet),
  };
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
  const auto flags = flagTable(opt);
  if (const auto status = dsn::cli::parse("wsn_fuzz", flags, argc, argv))
    return *status;
  dsn::testkit::GeneratorKnobs& knobs = opt.fuzz.knobs;
  if (knobs.maxNodes < knobs.minNodes) {
    std::cerr << "--max-nodes must be at least --min-nodes\n";
    dsn::cli::usage(std::cerr, "wsn_fuzz", flags);
    return 2;
  }
  knobs.minOps = std::min(knobs.minOps, knobs.maxOps);
  opt.fuzz.shrinkFailures = !opt.noShrink;

  if (opt.replaySeed) {
    const auto r = dsn::testkit::replayEpisode(*opt.replaySeed,
                                               opt.fuzz.knobs,
                                               opt.fuzz.episode);
    if (r.ok) {
      std::cout << "episode seed " << *opt.replaySeed << ": clean ("
                << r.opsExecuted << " ops, digest " << r.digest << ")\n";
      return 0;
    }
    std::cerr << "episode seed " << *opt.replaySeed << " fails at op "
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
