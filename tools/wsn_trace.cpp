// wsn_trace — inspect, summarize and convert .dsntrace flight-recorder
// files produced by wsn_sim --record-trace / wsn_fuzz / the bench
// runners.
//
//   wsn_trace dump FILE [--type NAME] [--node N] [--round A:B] [--limit N]
//   wsn_trace summary FILE [--json] [--top K]
//   wsn_trace chrome FILE [-o OUT]     Chrome trace_event JSON
//   wsn_trace jsonl FILE [-o OUT]      existing JSONL trace schema
//
// summary prints totals per event type, per-scheme run rollups, a
// per-wave profile (round offset inside the enclosing protocol run — the
// depth proxy: CFF delivers depth d in wave d), and top-k collision
// hotspots / retransmitters. --json emits the same data as a
// dsnet-trace-summary-v1 document for schema validation in CI.
//
// jsonl renders every event with obs::writeFrEventJson, the renderer
// behind wsn_sim --trace-out: radio events in the JSONL trace schema
// ({"type","round","node","peer","channel","kind"}), other event types
// extended with "data"/"aux" fields and a null kind.
//
// Exit status: 0 ok, 1 I/O or parse failure, 2 usage.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/flight_io.hpp"
#include "obs/json.hpp"

namespace {

using dsn::obs::FrEvent;
using dsn::obs::FrRunKind;
using dsn::obs::FrTraceFile;
using dsn::obs::FrType;

void usage(std::ostream& os) {
  os << "usage: wsn_trace dump FILE [--type NAME] [--node N]\n"
        "                       [--round A:B] [--limit N]\n"
        "       wsn_trace summary FILE [--json] [--top K]\n"
        "       wsn_trace chrome FILE [-o OUT]\n"
        "       wsn_trace jsonl FILE [-o OUT]\n";
}

bool parseRoundRange(const std::string& s, std::int64_t& lo,
                     std::int64_t& hi) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) {
    lo = hi = std::strtoll(s.c_str(), nullptr, 10);
    return true;
  }
  lo = colon == 0 ? 0 : std::strtoll(s.substr(0, colon).c_str(), nullptr, 10);
  hi = colon + 1 == s.size()
           ? std::numeric_limits<std::int64_t>::max()
           : std::strtoll(s.substr(colon + 1).c_str(), nullptr, 10);
  return lo <= hi;
}

bool typeFromName(const std::string& name, FrType& out) {
  for (std::uint32_t t = 0; t < dsn::obs::kFrTypeCount; ++t) {
    if (name == dsn::obs::frTypeName(static_cast<FrType>(t))) {
      out = static_cast<FrType>(t);
      return true;
    }
  }
  return false;
}

FrTraceFile load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return dsn::obs::readDsnTrace(in);
}

// ---- dump ----

int cmdDump(const std::string& path, int argc, char** argv, int i) {
  bool haveType = false;
  FrType type = FrType::kRoundBegin;
  std::int64_t node = -1;
  std::int64_t roundLo = 0;
  std::int64_t roundHi = std::numeric_limits<std::int64_t>::max();
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--type") {
      const char* v = next();
      if (!v || !typeFromName(v, type)) {
        std::cerr << "unknown event type\n";
        return 2;
      }
      haveType = true;
    } else if (arg == "--node") {
      const char* v = next();
      if (!v) return 2;
      node = std::strtoll(v, nullptr, 10);
    } else if (arg == "--round") {
      const char* v = next();
      if (!v || !parseRoundRange(v, roundLo, roundHi)) return 2;
    } else if (arg == "--limit") {
      const char* v = next();
      if (!v) return 2;
      limit = std::strtoull(v, nullptr, 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  const FrTraceFile trace = load(path);
  std::uint64_t shown = 0;
  for (const FrEvent& e : trace.events) {
    if (shown >= limit) break;
    if (haveType && static_cast<FrType>(e.type) != type) continue;
    if (node >= 0 && e.node != static_cast<std::uint64_t>(node)) continue;
    if (e.round < roundLo || e.round > roundHi) continue;
    std::cout << dsn::obs::describeFrEvent(e) << "\n";
    ++shown;
  }
  if (trace.meta.droppedEvents > 0)
    std::cerr << "note: " << trace.meta.droppedEvents
              << " events were dropped before recording\n";
  return 0;
}

// ---- summary ----

struct SchemeRollup {
  std::uint64_t runs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rounds = 0;
};

struct WaveRollup {
  std::uint64_t transmits = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
};

struct Summary {
  std::uint64_t typeCounts[dsn::obs::kFrTypeCount] = {};
  std::map<std::uint16_t, SchemeRollup> schemes;
  std::map<std::uint32_t, WaveRollup> waves;  ///< keyed by round-in-run
  std::map<std::uint32_t, std::uint64_t> roundEvents;  ///< per-round volume
  std::map<std::uint32_t, std::uint64_t> collisionsByNode;
  std::map<std::uint32_t, std::uint64_t> transmitsByNode;
  std::uint32_t maxRound = 0;
};

Summary summarize(const FrTraceFile& trace) {
  Summary s;
  for (const FrEvent& e : trace.events) {
    if (e.type < dsn::obs::kFrTypeCount) ++s.typeCounts[e.type];
    s.maxRound = std::max(s.maxRound, e.round);
    const FrType t = static_cast<FrType>(e.type);
    if (t != FrType::kRunBegin && t != FrType::kRunEnd &&
        t != FrType::kCrash && t != FrType::kRepair &&
        t != FrType::kSlotRecompute) {
      ++s.roundEvents[e.round];
    }
    switch (t) {
      case FrType::kRunEnd: {
        SchemeRollup& r = s.schemes[e.aux];
        ++r.runs;
        r.delivered += e.node;
        r.rounds += e.data;
        break;
      }
      case FrType::kTransmit:
        ++s.waves[e.round].transmits;
        ++s.transmitsByNode[e.node];
        break;
      case FrType::kDelivery:
        ++s.waves[e.round].deliveries;
        break;
      case FrType::kCollision:
        ++s.waves[e.round].collisions;
        ++s.collisionsByNode[e.node];
        break;
      default:
        break;
    }
  }
  return s;
}

template <typename Map>
std::vector<std::pair<std::uint32_t, std::uint64_t>> topK(const Map& m,
                                                          std::size_t k) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> v(m.begin(),
                                                         m.end());
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second
                                : a.first < b.first;
  });
  if (v.size() > k) v.resize(k);
  return v;
}

void summaryJson(const FrTraceFile& trace, const Summary& s,
                 std::size_t top) {
  dsn::obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "dsnet-trace-summary-v1");
  w.key("meta").beginObject();
  w.kv("seed", trace.meta.seed);
  w.kv("nodes", trace.meta.nodes);
  w.kv("sample_every",
       static_cast<std::uint64_t>(trace.meta.sampleEvery));
  w.kv("dropped_events", trace.meta.droppedEvents);
  w.key("categories").beginArray();
  for (std::uint32_t bit = 1; bit <= dsn::obs::kFrCatRun; bit <<= 1)
    if (trace.meta.categories & bit)
      w.value(dsn::obs::frCategoryName(bit));
  w.endArray();
  w.endObject();
  w.kv("events", static_cast<std::uint64_t>(trace.events.size()));
  w.kv("max_round", static_cast<std::uint64_t>(s.maxRound));
  w.key("by_type").beginObject();
  for (std::uint32_t t = 0; t < dsn::obs::kFrTypeCount; ++t)
    if (s.typeCounts[t] > 0)
      w.kv(dsn::obs::frTypeName(static_cast<FrType>(t)),
           s.typeCounts[t]);
  w.endObject();
  w.key("by_scheme").beginObject();
  for (const auto& [kind, r] : s.schemes) {
    w.key(dsn::obs::frRunKindName(static_cast<FrRunKind>(kind)))
        .beginObject();
    w.kv("runs", r.runs);
    w.kv("delivered", r.delivered);
    w.kv("rounds", r.rounds);
    w.endObject();
  }
  w.endObject();
  w.key("waves").beginArray();
  for (const auto& [round, wv] : s.waves) {
    w.beginObject();
    w.kv("round", static_cast<std::uint64_t>(round));
    w.kv("transmits", wv.transmits);
    w.kv("deliveries", wv.deliveries);
    w.kv("collisions", wv.collisions);
    w.endObject();
  }
  w.endArray();
  w.key("collision_hotspots").beginArray();
  for (const auto& [node, count] : topK(s.collisionsByNode, top)) {
    w.beginObject();
    w.kv("node", static_cast<std::uint64_t>(node));
    w.kv("collisions", count);
    w.endObject();
  }
  w.endArray();
  w.key("top_transmitters").beginArray();
  for (const auto& [node, count] : topK(s.transmitsByNode, top)) {
    w.beginObject();
    w.kv("node", static_cast<std::uint64_t>(node));
    w.kv("transmits", count);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  std::cout << w.str() << "\n";
}

void summaryText(const FrTraceFile& trace, const Summary& s,
                 std::size_t top) {
  std::cout << "trace: " << trace.events.size() << " events, seed "
            << trace.meta.seed << ", " << trace.meta.nodes
            << " nodes, sample 1/" << trace.meta.sampleEvery
            << ", dropped " << trace.meta.droppedEvents << "\n";
  std::cout << "\nby type:\n";
  for (std::uint32_t t = 0; t < dsn::obs::kFrTypeCount; ++t)
    if (s.typeCounts[t] > 0)
      std::cout << "  " << dsn::obs::frTypeName(static_cast<FrType>(t))
                << ": " << s.typeCounts[t] << "\n";
  if (!s.schemes.empty()) {
    std::cout << "\nby scheme (from run_end markers):\n";
    for (const auto& [kind, r] : s.schemes)
      std::cout << "  "
                << dsn::obs::frRunKindName(static_cast<FrRunKind>(kind))
                << ": " << r.runs << " runs, " << r.delivered
                << " delivered, " << r.rounds << " rounds\n";
  }
  if (!s.waves.empty()) {
    std::cout << "\nwave profile (round offset in run — depth proxy; "
                 "first "
              << top << "):\n";
    std::size_t shown = 0;
    for (const auto& [round, wv] : s.waves) {
      if (shown++ >= top) break;
      std::cout << "  r" << round << ": tx " << wv.transmits << ", rx "
                << wv.deliveries << ", coll " << wv.collisions << "\n";
    }
  }
  const auto hotspots = topK(s.collisionsByNode, top);
  if (!hotspots.empty()) {
    std::cout << "\ntop collision hotspots (listener nodes):\n";
    for (const auto& [node, count] : hotspots)
      std::cout << "  node " << node << ": " << count << "\n";
  }
  const auto talkers = topK(s.transmitsByNode, top);
  if (!talkers.empty()) {
    std::cout << "\ntop transmitters:\n";
    for (const auto& [node, count] : talkers)
      std::cout << "  node " << node << ": " << count << "\n";
  }
}

int cmdSummary(const std::string& path, int argc, char** argv, int i) {
  bool json = false;
  std::size_t top = 10;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--top") {
      if (i + 1 >= argc) return 2;
      top = std::strtoull(argv[++i], nullptr, 10);
      if (top == 0) return 2;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  const FrTraceFile trace = load(path);
  const Summary s = summarize(trace);
  if (json)
    summaryJson(trace, s, top);
  else
    summaryText(trace, s, top);
  return 0;
}

// ---- converters ----

int withOutput(int argc, char** argv, int i,
               const std::function<bool(std::ostream&)>& writeTo) {
  std::string outPath;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "-o" || arg == "--output") && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (outPath.empty()) return writeTo(std::cout) ? 0 : 1;
  std::ofstream out(outPath, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << outPath << "\n";
    return 1;
  }
  return writeTo(out) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    if (cmd == "dump") return cmdDump(path, argc, argv, 3);
    if (cmd == "summary") return cmdSummary(path, argc, argv, 3);
    if (cmd == "chrome") {
      const FrTraceFile trace = load(path);
      return withOutput(argc, argv, 3, [&](std::ostream& os) {
        return dsn::obs::writeChromeTrace(os, trace);
      });
    }
    if (cmd == "jsonl") {
      const FrTraceFile trace = load(path);
      return withOutput(argc, argv, 3, [&](std::ostream& os) {
        return dsn::obs::writeFrEventsJsonl(os, trace.events);
      });
    }
  } catch (const std::exception& ex) {
    std::cerr << "wsn_trace: " << ex.what() << "\n";
    return 1;
  }
  usage(std::cerr);
  return 2;
}
