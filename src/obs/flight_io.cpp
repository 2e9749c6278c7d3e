#include "obs/flight_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace dsn::obs {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'N', 'T', 'R', 'A', 'C', 'E'};

void putU16(std::ostream& os, std::uint16_t v) {
  const unsigned char b[2] = {static_cast<unsigned char>(v & 0xFF),
                              static_cast<unsigned char>(v >> 8)};
  os.write(reinterpret_cast<const char*>(b), 2);
}

void putU32(std::ostream& os, std::uint32_t v) {
  const unsigned char b[4] = {static_cast<unsigned char>(v & 0xFF),
                              static_cast<unsigned char>((v >> 8) & 0xFF),
                              static_cast<unsigned char>((v >> 16) & 0xFF),
                              static_cast<unsigned char>(v >> 24)};
  os.write(reinterpret_cast<const char*>(b), 4);
}

void putU64(std::ostream& os, std::uint64_t v) {
  putU32(os, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  putU32(os, static_cast<std::uint32_t>(v >> 32));
}

bool getBytes(std::istream& is, unsigned char* out, std::size_t n) {
  is.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(is.gcount()) == n;
}

std::uint32_t loadU32(const unsigned char* b) {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t loadU64(const unsigned char* b) {
  return static_cast<std::uint64_t>(loadU32(b)) |
         (static_cast<std::uint64_t>(loadU32(b + 4)) << 32);
}

[[noreturn]] void truncated() {
  throw std::runtime_error("truncated .dsntrace stream");
}

}  // namespace

bool writeDsnTrace(std::ostream& os, const FrTraceMeta& meta,
                   const std::vector<FrEvent>& events) {
  os.write(kMagic, sizeof(kMagic));
  putU32(os, kDsnTraceVersion);
  putU32(os, 0);  // flags
  putU64(os, events.size());
  putU64(os, meta.droppedEvents);
  putU32(os, meta.categories);
  putU32(os, meta.sampleEvery);
  putU64(os, meta.seed);
  putU64(os, meta.nodes);
  for (const FrEvent& e : events) {
    putU32(os, e.round);
    putU32(os, e.node);
    putU32(os, e.data);
    const unsigned char tc[2] = {e.type, e.channel};
    os.write(reinterpret_cast<const char*>(tc), 2);
    putU16(os, e.aux);
  }
  return static_cast<bool>(os);
}

bool writeDsnTrace(std::ostream& os, const FlightRecorder& recorder,
                   std::uint64_t seed, std::uint64_t nodes) {
  const FrConfig cfg = recorder.config();
  FrTraceMeta meta;
  meta.seed = seed;
  meta.nodes = nodes;
  meta.categories = cfg.categories;
  meta.sampleEvery = cfg.sampleEvery;
  meta.droppedEvents = recorder.droppedEvents();
  return writeDsnTrace(os, meta, recorder.orderedEvents());
}

FrTraceFile readDsnTrace(std::istream& is) {
  unsigned char hdr[8 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8];
  if (!getBytes(is, hdr, sizeof(hdr))) truncated();
  if (std::memcmp(hdr, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("not a .dsntrace file (bad magic)");
  const std::uint32_t version = loadU32(hdr + 8);
  if (version != kDsnTraceVersion)
    throw std::runtime_error("unsupported .dsntrace version " +
                             std::to_string(version));
  const std::uint64_t eventCount = loadU64(hdr + 16);
  FrTraceFile out;
  out.meta.droppedEvents = loadU64(hdr + 24);
  out.meta.categories = loadU32(hdr + 32);
  out.meta.sampleEvery = loadU32(hdr + 36);
  out.meta.seed = loadU64(hdr + 40);
  out.meta.nodes = loadU64(hdr + 48);
  // Reserve incrementally so a corrupt count fails as "truncated" rather
  // than as a giant allocation.
  out.events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(eventCount, 1u << 20)));
  for (std::uint64_t i = 0; i < eventCount; ++i) {
    unsigned char rec[16];
    if (!getBytes(is, rec, sizeof(rec))) truncated();
    FrEvent e;
    e.round = loadU32(rec);
    e.node = loadU32(rec + 4);
    e.data = loadU32(rec + 8);
    e.type = rec[12];
    e.channel = rec[13];
    e.aux = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(rec[14]) |
        (static_cast<std::uint16_t>(rec[15]) << 8));
    out.events.push_back(e);
  }
  return out;
}

namespace {

/// The six types the radio trace schema covers; the rest extend it.
bool inRadioSchema(FrType t) {
  switch (t) {
    case FrType::kTransmit:
    case FrType::kDelivery:
    case FrType::kCollision:
    case FrType::kNodeDeath:
    case FrType::kDroppedTransmit:
    case FrType::kJammedTransmit:
      return true;
    default:
      return false;
  }
}

/// Message kinds a radio event carries in `aux`, in the order of
/// radio/message.hpp's MsgKind.
constexpr const char* kMsgKindNames[] = {"data", "token", "control", "nack"};

}  // namespace

void writeFrEventJson(JsonWriter& w, const FrEvent& e) {
  const FrType t = static_cast<FrType>(e.type);
  w.beginObject();
  w.kv("type", t == FrType::kDelivery ? "receive" : frTypeName(t));
  w.kv("round", e.round);
  w.kv("node", e.node);
  w.key("peer");
  if (t == FrType::kDelivery)
    w.value(e.data);
  else
    w.null();
  w.kv("channel", e.channel);
  if (!inRadioSchema(t)) {
    w.key("kind").null();
    w.kv("data", e.data);
    w.kv("aux", e.aux);
  } else if (t == FrType::kCollision || t == FrType::kNodeDeath) {
    // Collisions and deaths carry no frame; they report the default kind.
    w.kv("kind", "data");
  } else {
    w.kv("kind",
         e.aux < std::size(kMsgKindNames) ? kMsgKindNames[e.aux] : "?");
  }
  w.endObject();
}

bool writeFrEventsJsonl(std::ostream& os,
                        const std::vector<FrEvent>& events) {
  std::string line;
  for (const FrEvent& e : events) {
    line.clear();
    JsonWriter w(line);
    writeFrEventJson(w, e);
    line += '\n';
    os << line;
  }
  return static_cast<bool>(os);
}

namespace {

// One synthetic round = 1000 trace microseconds, so round boundaries land
// on millisecond gridlines in the viewer.
constexpr std::uint64_t kUsPerRound = 1000;

struct OpenRun {
  FrRunKind kind;
  std::uint32_t source;
  std::uint64_t absStart;  ///< cumulative round at kRunBegin
};

/// Opens one trace event with its common fields; the caller adds the
/// rest and the "args" object, then closes it.
void beginChromeEvent(JsonWriter& w, const char* phase, std::uint32_t tid,
                      std::uint64_t ts) {
  w.beginObject();
  w.kv("ph", phase);
  w.kv("pid", 0);
  w.kv("tid", tid);
  w.kv("ts", ts);
}

}  // namespace

bool writeChromeTrace(std::ostream& os, const FrTraceFile& trace) {
  // Each event is flushed to `os` as soon as it is written, one per
  // line, so the text never holds more than one event.
  std::string text;
  JsonWriter w(text);
  const auto flush = [&] {
    os << text << '\n';
    text.clear();
  };
  w.beginObject();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").beginArray();
  w.beginObject().kv("ph", "M").kv("pid", 0).kv("name", "process_name");
  w.key("args").beginObject().kv("name", "dsnet").endObject();
  w.endObject();
  flush();
  w.beginObject().kv("ph", "M").kv("pid", 0).kv("tid", 0);
  w.kv("name", "thread_name");
  w.key("args").beginObject().kv("name", "rounds").endObject();
  w.endObject();
  flush();

  std::uint64_t base = 0;      // cumulative round offset of the current run
  std::uint64_t frontier = 0;  // furthest cumulative round seen
  std::vector<OpenRun> runStack;

  auto emitInstant = [&](const FrEvent& e, std::uint64_t ts,
                         std::uint32_t tid) {
    w.beginObject().kv("ph", "i").kv("s", "t").kv("pid", 0);
    w.kv("tid", tid).kv("ts", ts);
    w.kv("name", frTypeName(static_cast<FrType>(e.type)));
    w.key("args").beginObject();
    w.kv("round", e.round).kv("node", e.node).kv("data", e.data);
    w.kv("channel", e.channel).kv("aux", e.aux);
    w.endObject().endObject();
  };

  for (const FrEvent& e : trace.events) {
    const FrType t = static_cast<FrType>(e.type);
    const std::uint64_t abs = base + e.round;
    const std::uint64_t ts = abs * kUsPerRound;
    frontier = std::max(frontier, abs + 1);
    switch (t) {
      case FrType::kRunBegin:
        runStack.push_back(
            {static_cast<FrRunKind>(e.aux), e.node, base});
        break;
      case FrType::kRunEnd: {
        const std::uint64_t end = std::max(base + e.data, frontier);
        std::uint64_t start = base;
        FrRunKind kind = static_cast<FrRunKind>(e.aux);
        std::uint32_t source = 0;
        if (!runStack.empty()) {
          start = runStack.back().absStart;
          kind = runStack.back().kind;
          source = runStack.back().source;
          runStack.pop_back();
        }
        beginChromeEvent(w, "X", 0, start * kUsPerRound);
        w.kv("dur", std::max<std::uint64_t>(end - start, 1) * kUsPerRound);
        w.kv("name", frRunKindName(kind));
        w.key("args").beginObject();
        w.kv("source", source).kv("delivered", e.node).kv("rounds", e.data);
        w.endObject().endObject();
        base = end;
        frontier = std::max(frontier, end);
        break;
      }
      case FrType::kRoundBegin:
        beginChromeEvent(w, "X", 0, ts);
        w.kv("dur", kUsPerRound).kv("name", "round");
        w.key("args").beginObject();
        w.kv("round", e.round).kv("active", e.data);
        w.endObject().endObject();
        break;
      case FrType::kRoundEnd:
        beginChromeEvent(w, "C", 0, ts);
        w.kv("name", "resolve");
        w.key("args").beginObject();
        w.kv("deliveries", e.node).kv("work", e.data);
        w.kv("transmitters", e.aux);
        w.endObject().endObject();
        break;
      case FrType::kIdleSkip:
        emitInstant(e, ts, 0);
        frontier = std::max(frontier, base + e.data);
        break;
      default:
        emitInstant(e, ts, e.node + 1);
        break;
    }
    if (!text.empty()) flush();
  }
  w.endArray().endObject();
  flush();
  return static_cast<bool>(os);
}

}  // namespace dsn::obs
