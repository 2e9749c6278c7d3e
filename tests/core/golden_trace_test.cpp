// Golden-trace snapshot test: the demo scenario's radio-event stream,
// a seeded gossip broadcast's stream and the flat rivals' arena stream
// must stay byte-identical to the committed golden JSONL files.
//
// Any change to deployment, clustering, slot assignment, scheduling,
// collision resolution — or, for the gossip and arena goldens, the
// rivals' relay coins, backoff draws, suppression decisions and coding
// coefficients — shows up here as a diff, which is the point: it forces
// behaviour changes to be acknowledged. To accept new goldens after an
// intentional change:
//
//   build/tests/golden_trace_test --update-golden
//
// and commit the rewritten tests/data/demo_trace.jsonl,
// tests/data/gossip_trace.jsonl and tests/data/arena_trace.jsonl.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "core/sensor_network.hpp"
#include "obs/flight_io.hpp"

namespace {

constexpr const char* kScenarioPath = DSN_SOURCE_DIR "/scenarios/demo.wsn";
constexpr const char* kGoldenPath =
    DSN_SOURCE_DIR "/tests/data/demo_trace.jsonl";
constexpr const char* kGossipGoldenPath =
    DSN_SOURCE_DIR "/tests/data/gossip_trace.jsonl";
constexpr const char* kArenaGoldenPath =
    DSN_SOURCE_DIR "/tests/data/arena_trace.jsonl";

/// Per-operation trace capacity: each broadcast's trace is bounded
/// separately, so this must cover the busiest single operation.
std::string renderScenario(const std::vector<dsn::ScenarioEvent>& events,
                           std::size_t traceCapacity = 16384) {
  dsn::NetworkConfig config;
  config.nodeCount = 60;  // smaller than the demo's 200 to keep it snappy
  config.seed = 2007;

  dsn::SensorNetwork net(config);
  dsn::ScenarioOptions options;
  options.protocol.traceCapacity = traceCapacity;
  const dsn::ScenarioOutcome outcome = dsn::runScenario(net, events, options);
  if (!outcome.valid) {
    throw std::runtime_error("scenario run failed validation: " +
                             outcome.firstViolation);
  }
  if (outcome.traceDropped != 0) {
    throw std::runtime_error(
        "trace overflowed its capacity; the snapshot would be partial");
  }
  std::ostringstream os;
  dsn::obs::writeFrEventsJsonl(os, outcome.traceEvents);
  return os.str();
}

std::string renderDemoTrace() {
  std::ifstream in(kScenarioPath);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + kScenarioPath);
  }
  return renderScenario(dsn::parseScenario(in));
}

std::string renderGossipTrace() {
  // One fixed-probability gossip wave from the root: pins the rival's
  // per-node RNG streams (relay coin + backoff draw order) in addition
  // to the radio layer the demo golden already covers.
  return renderScenario(dsn::parseScenario("broadcast 0 gossip\n"));
}

std::string renderArenaTrace() {
  // The flat rivals from the root, clean and then under i.i.d. loss:
  // pins every rival's relay decisions, suppression tests and RLNC
  // coding draws, with and without dropped frames. RLNC's collision
  // storm is the busiest operation, hence the larger capacity.
  std::string script;
  for (const char* faults : {"", "faults drop 0.1\n"}) {
    script += faults;
    for (const char* scheme : {"flood", "agossip", "counter", "distance",
                               "rlnc"})
      script += std::string("broadcast 0 ") + scheme + "\n";
  }
  return renderScenario(dsn::parseScenario(script), 1 << 16);
}

/// 1-based line number of the first byte difference, for a usable
/// failure message.
std::size_t firstDiffLine(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

/// Returns 0 on match (or successful update), 1 on mismatch.
int compareOrUpdate(const std::string& fresh, const char* path,
                    bool update) {
  if (update) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    out << fresh;
    std::cout << "golden_trace_test: rewrote " << path << " ("
              << fresh.size() << " bytes)\n";
    return 0;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "golden_trace_test: missing golden file " << path
              << "\n  generate it with: golden_trace_test --update-golden\n";
    return 1;
  }
  std::ostringstream golden;
  golden << in.rdbuf();

  if (fresh != golden.str()) {
    std::cerr << "golden_trace_test: trace diverged from " << path
              << "\n  first difference at line "
              << firstDiffLine(fresh, golden.str()) << " (fresh "
              << fresh.size() << " bytes, golden " << golden.str().size()
              << " bytes)\n  if the behaviour change is intentional, rerun "
                 "with --update-golden and commit the new golden\n";
    return 1;
  }
  std::cout << "golden_trace_test: " << fresh.size()
            << " bytes byte-identical to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      update = true;
    } else {
      std::cerr << "usage: golden_trace_test [--update-golden]\n";
      return 2;
    }
  }

  try {
    int rc = compareOrUpdate(renderDemoTrace(), kGoldenPath, update);
    rc |= compareOrUpdate(renderGossipTrace(), kGossipGoldenPath, update);
    rc |= compareOrUpdate(renderArenaTrace(), kArenaGoldenPath, update);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "golden_trace_test: " << e.what() << "\n";
    return 1;
  }
}
