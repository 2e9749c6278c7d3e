// wsn_trace — inspect, summarize and convert .dsntrace flight-recorder
// files produced by wsn_sim --record-trace / wsn_fuzz / the bench
// runners. `wsn_trace` with no arguments lists the subcommands and
// their flags:
//
//   dump      events one per line, filtered by type, node, round range
//   summary   totals and rollups, as text or JSON
//   chrome    Chrome trace_event JSON
//   jsonl     the JSONL trace schema
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
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.hpp"
#include "obs/flight_io.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/types.hpp"

namespace {

using dsn::obs::FrEvent;
using dsn::obs::FrRunKind;
using dsn::obs::FrTraceFile;
using dsn::obs::FrType;

/// Reads `A`, `A:B`, `A:` or `:B`: whole integers >= 0, with A <= B.
bool parseRoundRange(std::string_view s, std::int64_t& lo,
                     std::int64_t& hi) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::size_t colon = s.find(':');
  const bool split = colon != std::string_view::npos;
  const std::string_view a = s.substr(0, colon);
  const std::string_view b = split ? s.substr(colon + 1) : a;
  std::int64_t from = 0;
  std::int64_t to = kMax;
  // Only a split range may leave an end out.
  if ((!split || !a.empty()) && !dsn::cli::parseInteger(a, from, 0, kMax))
    return false;
  if ((!split || !b.empty()) && !dsn::cli::parseInteger(b, to, 0, kMax))
    return false;
  if (from > to) return false;
  lo = from;
  hi = to;
  return true;
}

bool typeFromName(std::string_view name, std::optional<FrType>& out) {
  for (std::uint32_t t = 0; t < dsn::obs::kFrTypeCount; ++t) {
    if (name == dsn::obs::frTypeName(static_cast<FrType>(t))) {
      out = static_cast<FrType>(t);
      return true;
    }
  }
  return false;
}

/// What the subcommands' flags set: dump's filters, summary's format
/// and the converters' output path.
struct TraceArgs {
  std::optional<FrType> type;
  std::optional<dsn::NodeId> node;
  std::int64_t roundLo = 0;
  std::int64_t roundHi = std::numeric_limits<std::int64_t>::max();
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  bool json = false;
  std::size_t top = 10;
  std::string outPath;
};

constexpr std::array<std::string_view, 4> kCommands = {"dump", "summary",
                                                       "chrome", "jsonl"};

/// The flag table of one subcommand (one of kCommands).
std::vector<dsn::cli::Flag> flagTable(std::string_view cmd, TraceArgs& a) {
  namespace cli = dsn::cli;
  if (cmd == "dump") {
    std::string types;
    for (std::uint32_t t = 0; t < dsn::obs::kFrTypeCount; ++t) {
      if (!types.empty()) types += '|';
      types += dsn::obs::frTypeName(static_cast<FrType>(t));
    }
    return {
        {"--type", "NAME",
         [&a](std::string_view w) { return typeFromName(w, a.type); },
         types},
        cli::integer("--node", "N", a.node, 0, dsn::kInvalidNode - 1),
        {"--round", "A:B",
         [&a](std::string_view w) {
           return parseRoundRange(w, a.roundLo, a.roundHi);
         },
         "A, A:B, A: or :B with whole rounds A <= B"},
        cli::integer("--limit", "N", a.limit),
    };
  }
  if (cmd == "summary")
    return {cli::toggle("--json", a.json),
            cli::integer("--top", "K", a.top, 1)};
  return {cli::text("-o|--output", "OUT", a.outPath)};
}

std::string commandLine(std::string_view cmd) {
  return "wsn_trace " + std::string(cmd) + " FILE";
}

FrTraceFile load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return dsn::obs::readDsnTrace(in);
}

// ---- dump ----

int cmdDump(const FrTraceFile& trace, const TraceArgs& a) {
  std::uint64_t shown = 0;
  for (const FrEvent& e : trace.events) {
    if (shown >= a.limit) break;
    if (a.type && static_cast<FrType>(e.type) != *a.type) continue;
    if (a.node && e.node != *a.node) continue;
    if (e.round < a.roundLo || e.round > a.roundHi) continue;
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

int cmdSummary(const FrTraceFile& trace, const TraceArgs& a) {
  const Summary s = summarize(trace);
  if (a.json)
    summaryJson(trace, s, a.top);
  else
    summaryText(trace, s, a.top);
  return 0;
}

// ---- converters ----

/// Writes a converter's output to -o OUT, or to stdout without one.
template <typename Write>
int withOutput(const TraceArgs& a, const Write& writeTo) {
  if (a.outPath.empty()) return writeTo(std::cout) ? 0 : 1;
  std::ofstream out(a.outPath, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << a.outPath << "\n";
    return 1;
  }
  return writeTo(out) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view cmd = argc >= 3 ? argv[1] : "";
  if (std::find(kCommands.begin(), kCommands.end(), cmd) == kCommands.end()) {
    TraceArgs unused;
    for (const std::string_view c : kCommands)
      dsn::cli::usage(std::cerr, commandLine(c), flagTable(c, unused));
    return 2;
  }
  TraceArgs a;
  if (const auto status = dsn::cli::parse(
          commandLine(cmd), flagTable(cmd, a), argc, argv, 3))
    return *status;
  try {
    const FrTraceFile trace = load(argv[2]);
    if (cmd == "dump") return cmdDump(trace, a);
    if (cmd == "summary") return cmdSummary(trace, a);
    if (cmd == "chrome")
      return withOutput(a, [&](std::ostream& os) {
        return dsn::obs::writeChromeTrace(os, trace);
      });
    return withOutput(a, [&](std::ostream& os) {
      return dsn::obs::writeFrEventsJsonl(os, trace.events);
    });
  } catch (const std::exception& ex) {
    std::cerr << "wsn_trace: " << ex.what() << "\n";
    return 1;
  }
}
