#include "radio/trace.hpp"

#include "obs/flight_io.hpp"

namespace dsn {

void Trace::store(const obs::FrEvent& e) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

std::size_t Trace::countOf(obs::FrType t) const {
  std::size_t n = 0;
  for (const auto& e : events_)
    if (e.type == static_cast<std::uint8_t>(t)) ++n;
  return n;
}

void Trace::writeJsonl(std::ostream& os) const {
  obs::writeFrEventsJsonl(os, events_);
}

}  // namespace dsn
