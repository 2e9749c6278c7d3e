// Flight-recorder tracing: a preallocated binary ring buffer of
// fixed-size event records that the active-set simulator can keep
// enabled at scale.
//
// Design constraints (DESIGN.md §13):
//   * zero steady-state allocations — configure() allocates the ring
//     once; record() is an indexed store plus two counter bumps, and
//     overflow wraps (flight-recorder semantics: the *latest* events
//     survive, overwritten ones are counted as dropped);
//   * compile-time category masks — sites guarded by recorderFor<Cat>()
//     vanish entirely when the category is excluded from
//     DSN_FR_COMPILED_CATEGORIES;
//   * runtime masks + sampling — categories can be toggled per run and
//     round-scoped volume events recorded every Nth round only, without
//     recompiling;
//   * deterministic streams — events carry logical time (round numbers),
//     never wall clocks, so the recorded stream of a seeded run is
//     bit-identical across thread counts when per-task recorders are
//     merged in task order (see exec/parallel_sweep.cpp).
//
// The recorder mirrors the metrics-registry sink idiom: globalRecorder()
// resolves to the calling thread's ScopedRecorderSink when one is
// installed, otherwise the process-wide recorder.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dsn::obs {

// ---- event categories (bitmask) ----
inline constexpr std::uint32_t kFrCatRound = 1u << 0;      ///< round begin/end
inline constexpr std::uint32_t kFrCatSched = 1u << 1;      ///< wake pops, idle skips
inline constexpr std::uint32_t kFrCatRadio = 1u << 2;      ///< transmit/delivery
inline constexpr std::uint32_t kFrCatCollision = 1u << 3;  ///< collision sites
inline constexpr std::uint32_t kFrCatFault = 1u << 4;      ///< drop/jam/death/crash
inline constexpr std::uint32_t kFrCatCluster = 1u << 5;    ///< repair, slot recompute
inline constexpr std::uint32_t kFrCatRun = 1u << 6;        ///< protocol-run markers
inline constexpr std::uint32_t kFrCatAll = 0x7F;

/// Compile-time category mask. Instrumentation sites whose category is
/// not in this mask compile to nothing (recorderFor<Cat>() folds to
/// nullptr). Override with -DDSN_FR_COMPILED_CATEGORIES=<mask> to strip
/// categories from a build entirely.
#ifndef DSN_FR_COMPILED_CATEGORIES
#define DSN_FR_COMPILED_CATEGORIES ::dsn::obs::kFrCatAll
#endif

/// Flight-recorder event types. Field meaning per type (everything else
/// zero):
///   kRoundBegin       round, data = active-set size
///   kRoundEnd         round, node = deliveries, data = resolve work
///                     (Σ transmitter degrees), aux = transmitters
///                     (saturated at 65535)
///   kWakePop          round, node = woken node
///   kIdleSkip         round = first skipped round, data = resume round
///   kTransmit         round, node, channel, aux = message kind
///   kDelivery         round, node = receiver, data = transmitter,
///                     channel, aux = message kind
///   kCollision        round, node = listener, channel
///   kDroppedTransmit  round, node, channel, aux = message kind
///   kJammedTransmit   round, node, channel, aux = message kind
///   kNodeDeath        round, node (scheduled radio death takes effect)
///   kCrash            node (structural crash; no round context)
///   kRepair           node = stale pruned, data = reattached,
///                     aux = orphaned (saturated)
///   kSlotRecompute    node, data = assigned slot, aux = slot kind
///                     (0 = B, 1 = L, 2 = U, 3 = up)
///   kRunBegin         node = source, aux = run kind (FrRunKind)
///   kRunEnd           node = delivered count, data = rounds executed,
///                     aux = run kind
enum class FrType : std::uint8_t {
  kRoundBegin = 0,
  kRoundEnd = 1,
  kWakePop = 2,
  kIdleSkip = 3,
  kTransmit = 4,
  kDelivery = 5,
  kCollision = 6,
  kDroppedTransmit = 7,
  kJammedTransmit = 8,
  kNodeDeath = 9,
  kCrash = 10,
  kRepair = 11,
  kSlotRecompute = 12,
  kRunBegin = 13,
  kRunEnd = 14,
};
inline constexpr std::uint32_t kFrTypeCount = 15;

/// Which protocol run a kRunBegin/kRunEnd marker frames (aux field).
enum class FrRunKind : std::uint16_t {
  kDfo = 0,
  kCff = 1,
  kIcff = 2,
  kReliable = 3,
  kMulticast = 4,
  kGather = 5,
  kFlooding = 6,
  kDiscovery = 7,
  kGossip = 8,
  kGossipAdaptive = 9,
  kCounter = 10,
  kDistance = 11,
  kRlnc = 12,
};

/// The category an event type belongs to.
std::uint32_t frCategoryOf(FrType t);

/// Stable lower-snake names ("round_begin", "transmit", ...); "?" for
/// out-of-range values.
std::string_view frTypeName(FrType t);
std::string_view frRunKindName(FrRunKind k);
std::string_view frCategoryName(std::uint32_t categoryBit);

/// Parses a comma-separated category list ("radio,collision" or "all");
/// returns false on an unknown name. Empty string = kFrCatAll.
bool parseFrCategories(std::string_view list, std::uint32_t& mask);

/// One fixed-size binary event record. 16 bytes, trivially copyable —
/// the unit of the ring buffer and of the .dsntrace on-disk format.
/// It is also the radio simulator's per-run trace record (radio/trace.hpp).
struct FrEvent {
  std::uint32_t round = 0;
  std::uint32_t node = 0;
  std::uint32_t data = 0;
  std::uint8_t type = 0;
  std::uint8_t channel = 0;
  std::uint16_t aux = 0;

  friend bool operator==(const FrEvent&, const FrEvent&) = default;
};
static_assert(sizeof(FrEvent) == 16, "FrEvent must stay 16 bytes");
static_assert(std::is_trivially_copyable_v<FrEvent>);

/// Builds an event; fields the type does not use stay zero.
constexpr FrEvent makeFrEvent(FrType t, std::uint32_t round,
                              std::uint32_t node, std::uint32_t data = 0,
                              std::uint8_t channel = 0,
                              std::uint16_t aux = 0) {
  return FrEvent{round, node, data, static_cast<std::uint8_t>(t), channel,
                 aux};
}

/// Human-readable one-line rendering (wsn_trace dump, debugging).
std::string describeFrEvent(const FrEvent& e);

/// Recorder configuration. capacity = 0 disables recording entirely.
struct FrConfig {
  std::size_t capacity = 0;
  std::uint32_t categories = kFrCatAll;
  /// Round-scoped volume events (round/sched/radio/collision + per-
  /// transmit faults) are recorded only in rounds where
  /// round % sampleEvery == 0. Rare events (deaths, crashes, repairs,
  /// run markers) are always recorded. 1 = record every round.
  std::uint32_t sampleEvery = 1;
};

/// Preallocated ring buffer of FrEvents with overflow accounting.
/// Single-writer: one recorder belongs to one thread at a time (the
/// sink discipline below guarantees it).
class FlightRecorder {
 public:
  /// Allocates the ring and resets all counters. configure({}) releases
  /// the storage and disables the recorder.
  void configure(const FrConfig& cfg);

  /// Drops recorded events and counters but keeps the configuration
  /// (and the allocation).
  void resetEvents();

  FrConfig config() const;
  bool configured() const { return capacity_ != 0; }

  /// True when recording is on and `cat` is in the runtime mask.
  bool wants(std::uint32_t cat) const {
    return capacity_ != 0 && (categories_ & cat) != 0;
  }

  /// True when round-scoped volume events of round `round` should be
  /// recorded under the sampling setting.
  bool roundSampled(std::int64_t round) const {
    return sampleEvery_ <= 1 ||
           round % static_cast<std::int64_t>(sampleEvery_) == 0;
  }

  /// Appends one event. Precondition: configured(). Never allocates;
  /// when the ring is full the oldest stored event is overwritten and
  /// counted as dropped.
  void record(const FrEvent& e) {
    ring_[next_] = e;
    ++total_;
    if (++next_ == capacity_) next_ = 0;
  }

  /// Events ever offered to record() (stored + dropped), excluding
  /// events inherited through mergeFrom.
  std::uint64_t totalRecorded() const { return total_; }
  /// Events currently held in the ring.
  std::size_t storedEvents() const {
    return total_ < capacity_ ? static_cast<std::size_t>(total_)
                              : capacity_;
  }
  /// Events lost to overflow (overwritten here + dropped upstream in
  /// merged recorders).
  std::uint64_t droppedEvents() const {
    const std::uint64_t overwritten =
        total_ > capacity_ ? total_ - capacity_ : 0;
    return overwritten + inheritedDropped_;
  }

  /// Copy of the stored events, oldest first.
  std::vector<FrEvent> orderedEvents() const;

  /// Appends `other`'s stored events (oldest first) and accumulates its
  /// dropped count. Merging per-task recorders back in deterministic
  /// task order reproduces the serial event stream exactly. `other`
  /// must not be this recorder.
  void mergeFrom(const FlightRecorder& other);

 private:
  std::vector<FrEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t inheritedDropped_ = 0;
  std::uint32_t categories_ = kFrCatAll;
  std::uint32_t sampleEvery_ = 1;
  std::uint64_t flushedTotal_ = 0;
  std::uint64_t flushedDropped_ = 0;

  friend void flushRecorderTelemetry();
};

/// The process-wide recorder, ignoring any thread-local sink.
FlightRecorder& processRecorder();

/// The recorder used by instrumentation: the calling thread's scoped
/// sink when one is installed, otherwise the process-wide recorder.
FlightRecorder& globalRecorder();

/// Redirects globalRecorder() on *this thread* to `sink` for the
/// scope's lifetime (mirror of ScopedMetricsSink). The parallel
/// experiment engine wraps each worker task in one so events land in a
/// task-local ring that is merged back deterministically.
class ScopedRecorderSink {
 public:
  explicit ScopedRecorderSink(FlightRecorder& sink);
  ~ScopedRecorderSink();
  ScopedRecorderSink(const ScopedRecorderSink&) = delete;
  ScopedRecorderSink& operator=(const ScopedRecorderSink&) = delete;

 private:
  FlightRecorder* previous_;
};

namespace detail {
FlightRecorder*& tlsRecorderSlot();
}  // namespace detail

/// The active recorder for category `Cat`, or nullptr when the category
/// is compiled out, recording is off, or the runtime mask excludes it.
/// Fetch once per run/operation, then guard each site on the pointer.
template <std::uint32_t Cat>
inline FlightRecorder* recorderFor() {
  if constexpr ((DSN_FR_COMPILED_CATEGORIES & Cat) == 0) {
    return nullptr;
  } else {
    FlightRecorder& r = globalRecorder();
    return r.wants(Cat) ? &r : nullptr;
  }
}

/// Records a protocol-run begin marker (no-op when kFrCatRun is off).
void recordRunBegin(FrRunKind kind, std::uint32_t source);
/// Records the matching end marker carrying the run's outcome.
void recordRunEnd(FrRunKind kind, std::uint32_t delivered,
                  std::uint32_t rounds);

/// Folds the active recorder's accounting into the metrics registry
/// (counters trace.recorded_events / trace.stored_events /
/// trace.dropped_events, delta since the last flush so repeated calls
/// do not double-count) and emits one warning log line when events were
/// lost to overflow since then. No-op when recording is off.
void flushRecorderTelemetry();

}  // namespace dsn::obs
