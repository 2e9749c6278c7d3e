#include "obs/flight.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace dsn::obs {

std::uint32_t frCategoryOf(FrType t) {
  switch (t) {
    case FrType::kRoundBegin:
    case FrType::kRoundEnd:
      return kFrCatRound;
    case FrType::kWakePop:
    case FrType::kIdleSkip:
      return kFrCatSched;
    case FrType::kTransmit:
    case FrType::kDelivery:
      return kFrCatRadio;
    case FrType::kCollision:
      return kFrCatCollision;
    case FrType::kDroppedTransmit:
    case FrType::kJammedTransmit:
    case FrType::kNodeDeath:
    case FrType::kCrash:
      return kFrCatFault;
    case FrType::kRepair:
    case FrType::kSlotRecompute:
      return kFrCatCluster;
    case FrType::kRunBegin:
    case FrType::kRunEnd:
      return kFrCatRun;
  }
  return 0;
}

std::string_view frTypeName(FrType t) {
  switch (t) {
    case FrType::kRoundBegin:
      return "round_begin";
    case FrType::kRoundEnd:
      return "round_end";
    case FrType::kWakePop:
      return "wake_pop";
    case FrType::kIdleSkip:
      return "idle_skip";
    case FrType::kTransmit:
      return "transmit";
    case FrType::kDelivery:
      return "delivery";
    case FrType::kCollision:
      return "collision";
    case FrType::kDroppedTransmit:
      return "dropped_transmit";
    case FrType::kJammedTransmit:
      return "jammed_transmit";
    case FrType::kNodeDeath:
      return "node_death";
    case FrType::kCrash:
      return "crash";
    case FrType::kRepair:
      return "repair";
    case FrType::kSlotRecompute:
      return "slot_recompute";
    case FrType::kRunBegin:
      return "run_begin";
    case FrType::kRunEnd:
      return "run_end";
  }
  return "?";
}

std::string_view frRunKindName(FrRunKind k) {
  switch (k) {
    case FrRunKind::kDfo:
      return "DFO";
    case FrRunKind::kCff:
      return "CFF";
    case FrRunKind::kIcff:
      return "ICFF";
    case FrRunKind::kReliable:
      return "RELIABLE";
    case FrRunKind::kMulticast:
      return "MULTICAST";
    case FrRunKind::kGather:
      return "GATHER";
    case FrRunKind::kFlooding:
      return "FLOODING";
    case FrRunKind::kDiscovery:
      return "DISCOVERY";
    case FrRunKind::kGossip:
      return "GOSSIP";
    case FrRunKind::kGossipAdaptive:
      return "AGOSSIP";
    case FrRunKind::kCounter:
      return "COUNTER";
    case FrRunKind::kDistance:
      return "DISTANCE";
    case FrRunKind::kRlnc:
      return "RLNC";
  }
  return "?";
}

std::string_view frCategoryName(std::uint32_t categoryBit) {
  switch (categoryBit) {
    case kFrCatRound:
      return "round";
    case kFrCatSched:
      return "sched";
    case kFrCatRadio:
      return "radio";
    case kFrCatCollision:
      return "collision";
    case kFrCatFault:
      return "fault";
    case kFrCatCluster:
      return "cluster";
    case kFrCatRun:
      return "run";
  }
  return "?";
}

bool parseFrCategories(std::string_view list, std::uint32_t& mask) {
  if (list.empty()) {
    mask = kFrCatAll;
    return true;
  }
  std::uint32_t out = 0;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string_view name = list.substr(pos, comma - pos);
    if (name == "all") {
      out |= kFrCatAll;
    } else {
      bool found = false;
      for (std::uint32_t bit = 1; bit <= kFrCatRun; bit <<= 1) {
        if (name == frCategoryName(bit)) {
          out |= bit;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    if (comma == list.size()) break;
    pos = comma + 1;
  }
  mask = out;
  return true;
}

std::string describeFrEvent(const FrEvent& e) {
  std::ostringstream os;
  const FrType t = static_cast<FrType>(e.type);
  os << "r" << e.round << " " << frTypeName(t);
  switch (t) {
    case FrType::kRoundBegin:
      os << " active=" << e.data;
      break;
    case FrType::kRoundEnd:
      os << " deliveries=" << e.node << " work=" << e.data
         << " tx=" << e.aux;
      break;
    case FrType::kWakePop:
    case FrType::kNodeDeath:
    case FrType::kCrash:
      os << " node=" << e.node;
      break;
    case FrType::kIdleSkip:
      os << " -> r" << e.data;
      break;
    case FrType::kTransmit:
    case FrType::kDroppedTransmit:
    case FrType::kJammedTransmit:
      os << " node=" << e.node << " ch=" << static_cast<unsigned>(e.channel);
      break;
    case FrType::kDelivery:
      os << " node=" << e.node << " from=" << e.data
         << " ch=" << static_cast<unsigned>(e.channel);
      break;
    case FrType::kCollision:
      os << " node=" << e.node << " ch=" << static_cast<unsigned>(e.channel);
      break;
    case FrType::kRepair:
      os << " pruned=" << e.node << " reattached=" << e.data
         << " orphaned=" << e.aux;
      break;
    case FrType::kSlotRecompute:
      os << " node=" << e.node << " slot=" << e.data
         << " kind=" << e.aux;
      break;
    case FrType::kRunBegin:
      os << " " << frRunKindName(static_cast<FrRunKind>(e.aux))
         << " source=" << e.node;
      break;
    case FrType::kRunEnd:
      os << " " << frRunKindName(static_cast<FrRunKind>(e.aux))
         << " delivered=" << e.node << " rounds=" << e.data;
      break;
  }
  return os.str();
}

void FlightRecorder::configure(const FrConfig& cfg) {
  capacity_ = cfg.capacity;
  categories_ = cfg.categories;
  sampleEvery_ = std::max<std::uint32_t>(cfg.sampleEvery, 1);
  ring_.clear();
  ring_.shrink_to_fit();
  ring_.resize(capacity_);
  next_ = 0;
  total_ = 0;
  inheritedDropped_ = 0;
  flushedTotal_ = 0;
  flushedDropped_ = 0;
}

void FlightRecorder::resetEvents() {
  next_ = 0;
  total_ = 0;
  inheritedDropped_ = 0;
  flushedTotal_ = 0;
  flushedDropped_ = 0;
}

FrConfig FlightRecorder::config() const {
  FrConfig cfg;
  cfg.capacity = capacity_;
  cfg.categories = categories_;
  cfg.sampleEvery = sampleEvery_;
  return cfg;
}

std::vector<FrEvent> FlightRecorder::orderedEvents() const {
  std::vector<FrEvent> out;
  const std::size_t stored = storedEvents();
  out.reserve(stored);
  // When the ring has wrapped, next_ points at the oldest stored event.
  const std::size_t start = total_ > capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < stored; ++i)
    out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

void FlightRecorder::mergeFrom(const FlightRecorder& other) {
  inheritedDropped_ += other.droppedEvents();
  if (!configured()) {
    // Nowhere to put the stored events; account them as dropped rather
    // than losing them silently.
    inheritedDropped_ += other.storedEvents();
    return;
  }
  if (other.total_ == 0) return;
  for (const FrEvent& e : other.orderedEvents()) record(e);
}

namespace {

FlightRecorder& processRecorderStorage() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace

FlightRecorder*& detail::tlsRecorderSlot() {
  thread_local FlightRecorder* slot = nullptr;
  return slot;
}

FlightRecorder& processRecorder() { return processRecorderStorage(); }

FlightRecorder& globalRecorder() {
  FlightRecorder* tls = detail::tlsRecorderSlot();
  return tls ? *tls : processRecorderStorage();
}

ScopedRecorderSink::ScopedRecorderSink(FlightRecorder& sink) {
  FlightRecorder*& slot = detail::tlsRecorderSlot();
  previous_ = slot;
  slot = &sink;
}

ScopedRecorderSink::~ScopedRecorderSink() {
  detail::tlsRecorderSlot() = previous_;
}

void recordRunBegin(FrRunKind kind, std::uint32_t source) {
  if (FlightRecorder* fr = recorderFor<kFrCatRun>())
    fr->record(makeFrEvent(FrType::kRunBegin, 0, source, 0, 0,
                           static_cast<std::uint16_t>(kind)));
}

void recordRunEnd(FrRunKind kind, std::uint32_t delivered,
                  std::uint32_t rounds) {
  if (FlightRecorder* fr = recorderFor<kFrCatRun>())
    fr->record(makeFrEvent(FrType::kRunEnd, 0, delivered, rounds, 0,
                           static_cast<std::uint16_t>(kind)));
}

void flushRecorderTelemetry() {
  FlightRecorder& r = globalRecorder();
  if (!r.configured()) return;
  const std::uint64_t total = r.totalRecorded() + r.inheritedDropped_;
  const std::uint64_t dropped = r.droppedEvents();
  const std::uint64_t newTotal = total - r.flushedTotal_;
  const std::uint64_t newDropped = dropped - r.flushedDropped_;
  r.flushedTotal_ = total;
  r.flushedDropped_ = dropped;
  auto& m = globalMetrics();
  m.counter("trace.recorded_events").increment(newTotal);
  m.counter("trace.dropped_events").increment(newDropped);
  m.gauge("trace.stored_events")
      .set(static_cast<double>(r.storedEvents()));
  if (newDropped > 0) {
    DSN_LOG_WARN << "flight recorder overflow: " << newDropped
                 << " events dropped (ring capacity "
                 << r.config().capacity
                 << "; raise --trace-buffer or sample with "
                    "--trace-sample)";
  }
}

}  // namespace dsn::obs
