// Optional per-run radio event trace.
//
// Tests assert on traces ("no collision ever happened", "node X slept
// after round Y"); goldens, the trace-axiom oracle, serve records and
// `wsn_sim --trace-out` consume them. The record is the flight
// recorder's 16-byte obs::FrEvent: the simulator builds one per radio
// event and offers it to both this store and the sampled ring
// (DESIGN.md §13). The trace is off by default and bounded, so benches
// are unaffected.
//
// Unlike the ring, a Trace keeps the first `capacity` events of a run,
// unsampled, and holds only the five radio types the simulator records
// here (transmit, delivery, collision, dropped and jammed transmits; no
// deaths, round or sched events). Rounds narrow to 32 bits and channels
// to 8, the ring's field widths (SimConfig bounds k by kMaxChannels).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "obs/flight.hpp"

namespace dsn {

/// Bounded keep-first event store.
class Trace {
 public:
  /// `capacity` caps stored events; further events are counted but not
  /// stored. 0 disables recording entirely.
  explicit Trace(std::size_t capacity = 0) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }

  /// Inline so that a disabled trace costs the simulator one compare
  /// per radio event.
  void record(const obs::FrEvent& e) {
    if (capacity_ != 0) store(e);
  }

  const std::vector<obs::FrEvent>& events() const { return events_; }
  std::size_t droppedEvents() const { return dropped_; }

  std::size_t countOf(obs::FrType t) const;

  /// Writes every stored event as JSON-lines (obs::writeFrEventJson's
  /// radio schema). Dropped events are not replayable, so callers should
  /// also persist droppedEvents() when it matters.
  void writeJsonl(std::ostream& os) const;

 private:
  void store(const obs::FrEvent& e);

  std::size_t capacity_;
  std::vector<obs::FrEvent> events_;
  std::size_t dropped_ = 0;
};

}  // namespace dsn
