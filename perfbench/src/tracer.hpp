// In-memory span recorder of the traced run.
//
// The benchmark opens a span around every public call it makes into a
// layer (name, layer, start, end, parent, one id per job or broadcast).
// Where a call ran under a job-local obs timing sink, the recorded
// phase tree (sim.run, broadcast.*, cnet.*) is attached to the span as
// its phases. Self time is a span's duration minus its child spans and
// top-level phases, and a phase's self time is its total minus its
// child phases; so the self times of every span and phase sum to the
// root span's duration, and per-layer self times add up to the traced
// wall time. Spans stay in memory and are written out at the end.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/timer.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kGraph,
  kCluster,
  kRadio,
  kBroadcast,
  kCore,
  kServe,
  /// Whole ServeEngine / broadcast-loop passes timed end to end inside
  /// the traced run (for the scaling, telemetry and overhead ratios);
  /// not decomposed further.
  kEngine,
  /// The benchmark's own loop and bookkeeping.
  kBench,
};
inline constexpr std::size_t kLayerCount = 8;

const char* layerName(Layer layer);

/// Layer of an obs phase, by name prefix: sim.* radio, broadcast.*
/// broadcast, cnet.* cluster, graph.* graph, anything else core.
Layer phaseLayer(std::string_view name);

struct Phase {
  std::string name;
  /// Ancestor phase names joined with '/', empty for a top-level phase.
  std::string ancestors;
  Layer layer = Layer::kCore;
  std::uint64_t calls = 0;
  std::int64_t nanos = 0;
  std::int64_t selfNanos = 0;
};

struct Span {
  std::string name;
  Layer layer = Layer::kBench;
  std::uint64_t id = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = -1;
  int parent = -1;
  /// Child spans plus top-level phases.
  std::int64_t childNs = 0;
  std::vector<Phase> phases;

  std::int64_t durationNs() const { return endNs - startNs; }
  std::int64_t selfNs() const { return durationNs() - childNs; }
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was created.
  std::int64_t now() const;
  std::int64_t toNs(Clock::time_point t) const;

  /// Opens a span as a child of the innermost open span.
  int open(std::string_view name, Layer layer, std::uint64_t id = 0);
  /// Closes an open span (closing it again is a no-op).
  void close(int span);

  /// Adds an already finished span under `parent` (which must still be
  /// open), e.g. one job of an engine pass timed from its emit gaps.
  void add(std::string_view name, Layer layer, std::uint64_t id,
           std::int64_t startNs, std::int64_t endNs, int parent);

  /// Attaches the phase tree recorded in `timing` while `span` ran.
  void attach(int span, const dsn::obs::TimingRegistry& timing);
  /// Attaches one synthetic top-level phase (an estimate carved out of
  /// the span's self time).
  void attachPhase(int span, std::string name, Layer layer,
                   std::uint64_t calls, std::int64_t nanos);

  const Span& span(int index) const {
    return spans_[static_cast<std::size_t>(index)];
  }

  /// Self time per layer, over every span and phase.
  std::array<std::int64_t, kLayerCount> layerSelfNs() const;

  /// Writes one JSON object per span.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs share
/// the traced code paths this way).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, Layer layer,
            std::uint64_t id = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->open(name, layer, id) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
