// .dsntrace binary serialization for flight-recorder event streams and
// the Chrome trace_event exporter.
//
// On-disk layout (all integers little-endian, independent of host
// endianness):
//   bytes 0..7    magic "DSNTRACE"
//   u32           version (currently 1)
//   u32           flags (reserved, 0)
//   u64           eventCount
//   u64           droppedEvents (lost to ring overflow before writing)
//   u32           categories (runtime mask the recorder ran with)
//   u32           sampleEvery
//   u64           seed
//   u64           nodes
//   eventCount x  16-byte FrEvent records {u32 round, u32 node, u32 data,
//                 u8 type, u8 channel, u16 aux}
//
// Events carry logical time only (round numbers), so a .dsntrace from a
// seeded run is bit-identical across --jobs counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/flight.hpp"

namespace dsn::obs {

class JsonWriter;

inline constexpr std::uint32_t kDsnTraceVersion = 1;

/// Run-level metadata carried in the .dsntrace header.
struct FrTraceMeta {
  std::uint64_t seed = 0;
  std::uint64_t nodes = 0;
  std::uint32_t categories = kFrCatAll;
  std::uint32_t sampleEvery = 1;
  std::uint64_t droppedEvents = 0;
};

/// A parsed .dsntrace file.
struct FrTraceFile {
  FrTraceMeta meta;
  std::vector<FrEvent> events;
};

/// Writes a .dsntrace stream. Returns false when the stream errors.
bool writeDsnTrace(std::ostream& os, const FrTraceMeta& meta,
                   const std::vector<FrEvent>& events);

/// Convenience: snapshots `recorder`'s ordered events + drop count.
bool writeDsnTrace(std::ostream& os, const FlightRecorder& recorder,
                   std::uint64_t seed, std::uint64_t nodes);

/// Parses a .dsntrace stream. Throws std::runtime_error on bad magic,
/// unsupported version, or truncation.
FrTraceFile readDsnTrace(std::istream& is);

/// Writes one event as a JSON object value: the one FrEvent renderer.
/// The six radio types use the radio trace schema
///   {"type":"transmit","round":3,"node":7,"peer":null,
///    "channel":0,"kind":"data"}
/// where deliveries are named "receive" and carry the transmitter as
/// `peer` (null for every other type). The other types keep those keys
/// with a null kind and add the raw fields:
///   {"type":"round_end","round":3,"node":5,"peer":null,"channel":0,
///    "kind":null,"data":40,"aux":6}
void writeFrEventJson(JsonWriter& w, const FrEvent& e);

/// Writes one writeFrEventJson object per line. Returns false when the
/// stream errors.
bool writeFrEventsJsonl(std::ostream& os, const std::vector<FrEvent>& events);

/// Emits Chrome trace_event JSON (load in about:tracing or Perfetto).
/// Rounds become "X" complete slices on tid 0 (1 round = 1000 synthetic
/// microseconds); protocol runs become nested slices; node-scoped events
/// become "i" instants on tid = node + 1. Each run's rounds restart at
/// 0, so the exporter advances a cumulative base offset at every kRunEnd
/// marker to lay runs out sequentially on the timeline.
bool writeChromeTrace(std::ostream& os, const FrTraceFile& trace);

}  // namespace dsn::obs
