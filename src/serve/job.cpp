#include "serve/job.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "serve/json_value.hpp"
#include "util/error.hpp"

namespace dsn::serve {

namespace {

const char* deployWord(DeploymentKind k) {
  switch (k) {
    case DeploymentKind::kIncrementalAttach: return "attach";
    case DeploymentKind::kUniform: return "uniform";
    case DeploymentKind::kGrid: return "grid";
    case DeploymentKind::kLine: return "line";
    case DeploymentKind::kStar: return "star";
  }
  return "attach";
}

bool parseDeployWord(const std::string& word, DeploymentKind& out) {
  if (word == "attach") out = DeploymentKind::kIncrementalAttach;
  else if (word == "uniform") out = DeploymentKind::kUniform;
  else if (word == "grid") out = DeploymentKind::kGrid;
  else if (word == "line") out = DeploymentKind::kLine;
  else if (word == "star") out = DeploymentKind::kStar;
  else return false;
  return true;
}

/// Lowercase scheme word accepted by parseBroadcastScheme (the scenario
/// grammar's spelling, unlike toString's table-header spelling).
const char* schemeWord(BroadcastScheme s) {
  switch (s) {
    case BroadcastScheme::kDfo: return "dfo";
    case BroadcastScheme::kCff: return "cff";
    case BroadcastScheme::kImprovedCff: return "icff";
    case BroadcastScheme::kFlooding: return "flood";
    case BroadcastScheme::kGossip: return "gossip";
    case BroadcastScheme::kGossipAdaptive: return "agossip";
    case BroadcastScheme::kCounter: return "counter";
    case BroadcastScheme::kDistance: return "distance";
    case BroadcastScheme::kRlnc: return "rlnc";
  }
  return "icff";
}

[[noreturn]] void fieldFail(const std::string& key, const char* what) {
  throw std::runtime_error("field '" + key + "': " + what);
}

double numberField(const JsonValue& doc, const std::string& key,
                   double fallback) {
  if (!doc.has(key)) return fallback;
  const JsonValue& v = doc.at(key);
  if (v.type != JsonValue::Type::kNumber) fieldFail(key, "expected a number");
  return v.number;
}

std::uint64_t uintField(const JsonValue& doc, const std::string& key,
                        std::uint64_t fallback) {
  const double d = numberField(doc, key, static_cast<double>(fallback));
  if (d < 0.0 || d != std::floor(d) || d > 1.8e19)
    fieldFail(key, "expected a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

std::string stringField(const JsonValue& doc, const std::string& key,
                        const std::string& fallback) {
  if (!doc.has(key)) return fallback;
  const JsonValue& v = doc.at(key);
  if (v.type != JsonValue::Type::kString) fieldFail(key, "expected a string");
  return v.str;
}

bool boolField(const JsonValue& doc, const std::string& key, bool fallback) {
  if (!doc.has(key)) return fallback;
  const JsonValue& v = doc.at(key);
  if (v.type != JsonValue::Type::kBool) fieldFail(key, "expected a bool");
  return v.boolean;
}

void appendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

NetworkConfig jobNetworkConfig(const ServeJob& job) {
  NetworkConfig cfg;
  cfg.nodeCount = job.nodes;
  cfg.seed = job.seed;
  cfg.field = Field::squareUnits(job.fieldUnits);
  cfg.range = job.range;
  cfg.deployment = job.deploy;
  cfg.autoRepair = job.autoRepair;
  return cfg;
}

ScenarioOptions jobScenarioOptions(const ServeJob& job) {
  ScenarioOptions sopt;
  sopt.seed = job.seed ^ 0xCAFE;  // the wsn_sim derivation
  sopt.protocol.dropProbability = job.drop;
  sopt.protocol.channels = job.channels;
  sopt.protocol.traceCapacity = job.traceCapacity;
  sopt.forceScheme = job.protocol;
  return sopt;
}

ServeJob parseJobLine(const std::string& line, std::size_t index,
                      const std::uint64_t* previousId) {
  ServeJob job;
  job.index = index;
  job.id = static_cast<std::uint64_t>(index);
  try {
    const JsonValue doc = parseJson(line);
    if (doc.type != JsonValue::Type::kObject)
      throw std::runtime_error("job line is not a JSON object");
    const std::string schema = stringField(doc, "schema", "");
    if (schema != "dsnet-job-v1")
      throw std::runtime_error("unsupported schema '" + schema +
                               "' (want dsnet-job-v1)");
    job.id = uintField(doc, "id", job.id);
    if (previousId != nullptr && index > 0 && job.id <= *previousId)
      throw std::runtime_error(
          "job ids must be strictly increasing across the stream (got " +
          std::to_string(job.id) + " after " + std::to_string(*previousId) +
          ")");
    job.nodes = uintField(doc, "nodes", 0);
    if (job.nodes == 0) fieldFail("nodes", "required and must be positive");
    job.seed = uintField(doc, "seed", job.seed);
    job.fieldUnits = static_cast<int>(uintField(
        doc, "field_units", static_cast<std::uint64_t>(job.fieldUnits)));
    if (job.fieldUnits <= 0) fieldFail("field_units", "must be positive");
    job.range = numberField(doc, "range", job.range);
    if (!(job.range > 0.0)) fieldFail("range", "must be positive");
    const std::string deploy = stringField(doc, "deploy", "attach");
    if (!parseDeployWord(deploy, job.deploy))
      fieldFail("deploy", "want attach|uniform|grid|line|star");
    job.channels = static_cast<Channel>(uintField(doc, "channels", 1));
    if (job.channels == 0) fieldFail("channels", "must be positive");
    job.drop = numberField(doc, "drop", 0.0);
    if (job.drop < 0.0 || job.drop >= 1.0)
      fieldFail("drop", "must be in [0, 1)");
    if (doc.has("protocol")) {
      BroadcastScheme scheme{};
      const std::string word = stringField(doc, "protocol", "");
      if (!parseBroadcastScheme(word, scheme))
        fieldFail("protocol",
                  "want dfo|cff|icff|flood|gossip|agossip|counter|"
                  "distance|rlnc");
      job.protocol = scheme;
    }
    job.traceCapacity = uintField(doc, "trace_cap", 0);
    job.autoRepair = boolField(doc, "auto_repair", false);
    if (!doc.has("scenario")) fieldFail("scenario", "required");
    job.scenarioText = stringField(doc, "scenario", "");
    job.events = parseScenario(job.scenarioText);
    job.mutates = scenarioMutatesNetwork(job.events);
    job.fingerprint = deploymentFingerprint(jobNetworkConfig(job));
  } catch (const std::exception& e) {
    job.parseError = e.what();
  }
  return job;
}

std::string formatJobLine(const ServeJob& job) {
  std::string out;
  out.reserve(192 + job.scenarioText.size());
  char buf[64];
  out += "{\"schema\":\"dsnet-job-v1\",\"id\":";
  out += std::to_string(job.id);
  out += ",\"nodes\":";
  out += std::to_string(job.nodes);
  out += ",\"seed\":";
  out += std::to_string(job.seed);
  out += ",\"field_units\":";
  out += std::to_string(job.fieldUnits);
  std::snprintf(buf, sizeof(buf), "%.17g", job.range);
  out += ",\"range\":";
  out += buf;
  out += ",\"deploy\":\"";
  out += deployWord(job.deploy);
  out += "\",\"channels\":";
  out += std::to_string(job.channels);
  std::snprintf(buf, sizeof(buf), "%.17g", job.drop);
  out += ",\"drop\":";
  out += buf;
  if (job.protocol) {
    out += ",\"protocol\":\"";
    out += schemeWord(*job.protocol);
    out += "\"";
  }
  if (job.traceCapacity > 0) {
    out += ",\"trace_cap\":";
    out += std::to_string(job.traceCapacity);
  }
  if (job.autoRepair) out += ",\"auto_repair\":true";
  out += ",\"scenario\":\"";
  appendEscaped(out, job.scenarioText);
  out += "\"}";
  return out;
}

std::vector<ServeJob> demoJobs(std::size_t count, std::uint64_t seed,
                               std::size_t nodes, std::size_t deployments,
                               std::size_t mutatingEvery,
                               std::size_t heavyEvery) {
  DSN_REQUIRE(deployments > 0, "demoJobs: need at least one deployment");
  // The light rotation models the short query traffic a resident server
  // exists for: slotted broadcasts and validation probes over the full-
  // size deployments. All read-only.
  static const char* const kLight[] = {
      "broadcast random icff\nvalidate",
      "broadcast random cff",
      "validate",
      "broadcast random icff",
      "broadcast random counter",
      "broadcast random cff\nvalidate",
  };
  // The heavy rotation covers every remaining protocol family —
  // reliable broadcast under loss, gather waves, the rival schemes —
  // at a quarter of the node count: these scale superlinearly, and in
  // a mixed stream they are the occasional big request, not the common
  // case. Still read-only.
  static const char* const kHeavy[] = {
      "faults drop 0.1\nrbroadcast random icff 6",
      "gather",
      "broadcast random agossip\ngather",
      "broadcast random rlnc",
      "broadcast random dfo",
      "broadcast random gossip",
      "broadcast random flood",
      "broadcast random distance",
  };
  constexpr std::size_t kLightCount = sizeof(kLight) / sizeof(kLight[0]);
  constexpr std::size_t kHeavyCount = sizeof(kHeavy) / sizeof(kHeavy[0]);
  static const char* const kMutating =
      "churn 1.5 2\nrepair\nvalidate\nbroadcast random icff";
  const std::size_t heavyNodes = nodes / 4 < 50 ? 50 : nodes / 4;

  std::vector<ServeJob> jobs;
  jobs.reserve(count);
  std::size_t lightAt = 0;
  std::size_t heavyAt = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ServeJob job;
    job.index = i;
    job.id = static_cast<std::uint64_t>(i);
    job.nodes = nodes;
    // A few distinct deployments, revisited round-robin: the shape a
    // warm cache exists for. Deployment d differs by seed only, so every
    // light job in the stream exercises the same node count and field.
    const std::size_t d = i % deployments;
    job.seed = seed + 1000 * static_cast<std::uint64_t>(d);
    const bool mutating = mutatingEvery > 0 && (i + 1) % mutatingEvery == 0;
    const bool heavy =
        !mutating && heavyEvery > 0 && (i + 1) % heavyEvery == 0;
    if (mutating) {
      job.scenarioText = kMutating;
    } else if (heavy) {
      job.nodes = heavyNodes;
      job.scenarioText = kHeavy[heavyAt++ % kHeavyCount];
    } else {
      job.scenarioText = kLight[lightAt++ % kLightCount];
    }
    job.events = parseScenario(job.scenarioText);
    job.mutates = scenarioMutatesNetwork(job.events);
    job.fingerprint = deploymentFingerprint(jobNetworkConfig(job));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace dsn::serve
