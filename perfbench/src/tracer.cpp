#include "tracer.hpp"

#include <fstream>
#include <memory>

namespace perfbench {

namespace {

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

using Node = dsn::obs::TimingRegistry::Node;

/// Flattens a phase tree depth-first; returns the summed nanos of
/// `nodes` (the caller's child total).
std::int64_t flatten(const std::vector<std::unique_ptr<Node>>& nodes,
                     const std::string& ancestors, std::vector<Phase>& out) {
  std::int64_t total = 0;
  for (const auto& node : nodes) {
    const std::size_t at = out.size();
    out.push_back({node->name, ancestors, phaseLayer(node->name), node->calls,
                   static_cast<std::int64_t>(node->nanos), 0});
    const std::string path =
        ancestors.empty() ? node->name : ancestors + "/" + node->name;
    const std::int64_t children = flatten(node->children, path, out);
    out[at].selfNanos = out[at].nanos - children;
    total += out[at].nanos;
  }
  return total;
}

}  // namespace

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::kGraph: return "graph";
    case Layer::kCluster: return "cluster";
    case Layer::kRadio: return "radio";
    case Layer::kBroadcast: return "broadcast";
    case Layer::kCore: return "core";
    case Layer::kServe: return "serve";
    case Layer::kEngine: return "engine";
    case Layer::kBench: return "bench";
  }
  return "bench";
}

Layer phaseLayer(std::string_view name) {
  if (name.starts_with("sim.")) return Layer::kRadio;
  if (name.starts_with("broadcast.")) return Layer::kBroadcast;
  if (name.starts_with("cnet.")) return Layer::kCluster;
  if (name.starts_with("graph.")) return Layer::kGraph;
  return Layer::kCore;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now() const { return toNs(Clock::now()); }

std::int64_t Tracer::toNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::open(std::string_view name, Layer layer, std::uint64_t id) {
  Span s;
  s.name = std::string(name);
  s.layer = layer;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.startNs = now();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  if (s.endNs >= 0) return;
  s.endNs = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].childNs += s.durationNs();
}

void Tracer::add(std::string_view name, Layer layer, std::uint64_t id,
                 std::int64_t startNs, std::int64_t endNs, int parent) {
  Span s;
  s.name = std::string(name);
  s.layer = layer;
  s.id = id;
  s.parent = parent;
  s.startNs = startNs;
  s.endNs = endNs;
  if (parent >= 0)
    spans_[static_cast<std::size_t>(parent)].childNs += s.durationNs();
  spans_.push_back(std::move(s));
}

void Tracer::attach(int index, const dsn::obs::TimingRegistry& timing) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.childNs += flatten(timing.snapshot(), {}, s.phases);
}

void Tracer::attachPhase(int index, std::string name, Layer layer,
                         std::uint64_t calls, std::int64_t nanos) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.phases.push_back({std::move(name), {}, layer, calls, nanos, nanos});
  s.childNs += nanos;
}

std::array<std::int64_t, kLayerCount> Tracer::layerSelfNs() const {
  std::array<std::int64_t, kLayerCount> self{};
  for (const Span& s : spans_) {
    self[static_cast<std::size_t>(s.layer)] += s.selfNs();
    for (const Phase& p : s.phases)
      self[static_cast<std::size_t>(p.layer)] += p.selfNanos;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    line.clear();
    line += "{\"span\":" + std::to_string(i) + ",\"name\":";
    appendJsonString(line, s.name);
    line += ",\"layer\":\"";
    line += layerName(s.layer);
    line += "\",\"id\":" + std::to_string(s.id) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"start_ns\":" + std::to_string(s.startNs) +
            ",\"end_ns\":" + std::to_string(s.endNs) +
            ",\"self_ns\":" + std::to_string(s.selfNs());
    if (!s.phases.empty()) {
      line += ",\"phases\":[";
      for (std::size_t p = 0; p < s.phases.size(); ++p) {
        const Phase& ph = s.phases[p];
        if (p > 0) line += ',';
        line += "{\"name\":";
        appendJsonString(line, ph.name);
        line += ",\"under\":";
        appendJsonString(line, ph.ancestors);
        line += ",\"layer\":\"";
        line += layerName(ph.layer);
        line += "\",\"calls\":" + std::to_string(ph.calls) +
                ",\"ns\":" + std::to_string(ph.nanos) +
                ",\"self_ns\":" + std::to_string(ph.selfNanos) + '}';
      }
      line += ']';
    }
    line += "}\n";
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
