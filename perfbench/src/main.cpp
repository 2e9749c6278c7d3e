// dsn_perfbench — the dsnet benchmark driver.
//
//   dsn_perfbench --workload serve_warm|serve_churn|grid_100k --seed N
//                 --seconds S --trace 0|1 [--tiny]
//                 [--spans-out FILE] [--emit-stream FILE]
//                 [--emit-records FILE] [--inject corrupt-record|bound]
//                 [--git-rev REV] [--src-digest HEX]
//
// Prints host provenance, the output checks, the workload's digest of
// deterministic outputs and its metrics with units; the last line of
// stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. Exit status: 0 when every
// check passed, 1 when one failed, 2 on usage errors, 3 when the run
// itself threw.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

void usage() {
  std::cerr << "usage: dsn_perfbench --workload serve_warm|serve_churn|"
               "grid_100k --seed N --seconds S --trace 0|1\n"
               "         [--tiny] [--spans-out FILE]\n"
               "         [--emit-stream FILE] [--emit-records FILE]\n"
               "         [--inject corrupt-record|bound]\n"
               "         [--git-rev REV] [--src-digest HEX]\n";
}

struct Provenance {
  std::string gitRev = "unknown";
  std::string srcDigest = "unknown";
};

bool parse(int argc, char** argv, Options& o, Provenance& p) {
  const unsigned hw = std::thread::hardware_concurrency();
  o.workers = hw == 0 ? 1 : static_cast<int>(hw);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (value == nullptr) {
      return false;
    } else if (arg == "--workload") {
      o.workload = take();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(take(), nullptr);
    } else if (arg == "--trace") {
      o.trace = std::string(take()) == "1";
    } else if (arg == "--spans-out") {
      o.spansOut = take();
    } else if (arg == "--emit-stream") {
      o.emitStream = take();
    } else if (arg == "--emit-records") {
      o.emitRecords = take();
    } else if (arg == "--inject") {
      o.inject = take();
    } else if (arg == "--git-rev") {
      p.gitRev = take();
    } else if (arg == "--src-digest") {
      p.srcDigest = take();
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  const bool known = o.workload == "serve_warm" ||
                     o.workload == "serve_churn" || o.workload == "grid_100k";
  return known && o.seconds > 0.0;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t at = colon + 1;
        while (at < line.size() && line[at] == ' ') ++at;
        return line.substr(at);
      }
    }
  }
  return "unknown";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  Provenance prov;
  if (!parse(argc, argv, o, prov)) {
    usage();
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "dsn_perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << (o.tiny ? " tiny" : "") << "\n";
  std::cout << "host {\"nproc\":" << hw << ",\"cpu\":\""
            << jsonEscape(cpuModel()) << "\",\"compiler\":\""
            << PERFBENCH_COMPILER << "\",\"build_type\":\""
            << PERFBENCH_BUILD_TYPE << "\",\"git_rev\":\""
            << jsonEscape(prov.gitRev) << "\",\"src_digest\":\""
            << jsonEscape(prov.srcDigest) << "\",\"workers\":" << o.workers
            << "}\n";

  Result r;
  try {
    r = o.workload == "grid_100k" ? perfbench::runGrid(o)
                                  : perfbench::runServe(o);
  } catch (const std::exception& e) {
    std::cerr << "dsn_perfbench: run failed: " << e.what() << "\n";
    return 3;
  }

  for (const perfbench::Metric& m : r.metrics())
    r.check("metrics_finite", std::isfinite(m.value), m.name);
  for (const std::string& note : r.notes) std::cout << note << "\n";
  for (const perfbench::Check& c : r.checks()) {
    std::cout << "check " << c.name << " "
              << (c.failures == 0 ? "ok" : "FAILED") << " (" << c.evaluated
              << " evaluated";
    if (c.failures > 0)
      std::cout << ", " << c.failures << " failed; first: " << c.firstFailure;
    std::cout << ")\n";
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::cout << "digest " << o.workload << " " << digest << "\n";
  const double errorRate =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::cout << "metric error_rate " << number(errorRate) << " ratio ("
            << r.failed << " of " << r.attempted << ")\n";
  for (const perfbench::Metric& m : r.metrics())
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";

  const bool correct = r.correct();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
