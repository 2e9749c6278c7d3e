#include "radio/channel.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dsn {

ChannelOutcome resolveRound(const Graph& g,
                            const std::vector<Action>& actions,
                            Channel channelCount) {
  DSN_REQUIRE(channelCount >= 1, "at least one radio channel required");
  DSN_REQUIRE(actions.size() == g.size(),
              "one action required per node id");

  ChannelOutcome out;
  for (NodeId v = 0; v < actions.size(); ++v) {
    if (actions[v].type == Action::Type::kTransmit) {
      DSN_REQUIRE(g.isAlive(v), "dead node cannot transmit");
      DSN_REQUIRE(actions[v].channel < channelCount,
                  "transmit channel out of range");
      ++out.transmissions;
    }
  }

  for (NodeId v = 0; v < actions.size(); ++v) {
    const Action& act = actions[v];
    if (act.type != Action::Type::kListen) continue;
    DSN_REQUIRE(g.isAlive(v), "dead node cannot listen");

    const Channel lo = act.channel == kAllChannels ? 0 : act.channel;
    const Channel hi =
        act.channel == kAllChannels ? channelCount : act.channel + 1;
    DSN_REQUIRE(act.channel == kAllChannels || act.channel < channelCount,
                "listen channel out of range");

    for (Channel c = lo; c < hi; ++c) {
      NodeId uniqueTransmitter = kInvalidNode;
      std::size_t transmitterCount = 0;
      for (NodeId u : g.neighbors(v)) {
        const Action& other = actions[u];
        if (other.type == Action::Type::kTransmit && other.channel == c) {
          ++transmitterCount;
          uniqueTransmitter = u;
          if (transmitterCount > 1) break;
        }
      }
      if (transmitterCount == 1) {
        out.deliveries.push_back(Delivery{v, uniqueTransmitter, c});
      } else if (transmitterCount > 1) {
        out.collisionSites.push_back(CollisionSite{v, c});
      }
    }
  }
  return out;
}

void ResolveScratch::prepare(std::size_t nodeCount, Channel channelCount) {
  DSN_REQUIRE(channelCount >= 1, "at least one radio channel required");
  if (nodeCount <= nodeCount_ && channelCount == channelCount_) return;
  // Grow-only: a shrinking snapshot keeps the larger (already zeroed)
  // tables, so ids below the old bound stay addressable.
  nodeCount_ = std::max(nodeCount_, nodeCount);
  channelCount_ = channelCount;
  count_.assign(nodeCount_ * channelCount, 0);
  unique_.resize(nodeCount_ * channelCount);
  touchedIds_.grow(nodeCount_);
}

const ChannelOutcome& resolveRoundActive(
    const CsrView& csr,
    const std::vector<Channel>& listen,
    const std::vector<Transmission>& transmissions,
    Channel channelCount,
    ResolveScratch& s) {
  // Grow-on-demand: a node-move-in past the prepared bound (scratch
  // reused across runs of a growing campaign) must widen the tables, not
  // index out of bounds. No-op — and allocation-free — when the snapshot
  // fits.
  s.prepare(csr.nodeCount(), channelCount);
  const Channel k = channelCount;
  DSN_REQUIRE(listen.size() >= csr.nodeCount(),
              "one listen entry required per node id");
  ChannelOutcome& out = s.outcome_;
  out.deliveries.clear();
  out.collisionSites.clear();
  out.transmissions = transmissions.size();

  // Refuse before the first count is written: a refused round must leave
  // the scratch pristine, since a pooled scratch serves later runs.
  for (const Transmission& t : transmissions) {
    DSN_REQUIRE(t.channel < k, "transmit channel out of range");
    DSN_REQUIRE(listen[t.transmitter] == kNotListening,
                "a transmitting node cannot listen");
  }

  // Tally transmitting neighbors per (listener, channel). Only cells
  // adjacent to a transmitter are written, so nothing needs re-zeroing
  // beyond the cleanup pass below.
  for (const Transmission& t : transmissions) {
    for (const NodeId v : csr.neighbors(t.transmitter)) {
      const std::size_t idx = static_cast<std::size_t>(v) * k + t.channel;
      if (s.count_[idx]++ == 0) s.unique_[idx] = t.transmitter;
      s.touchedIds_.insert(v);
    }
  }

  // Emit in the same listener-ascending / channel-ascending order as the
  // full scan. Listeners nobody transmitted near hear silence either way.
  // A listen channel out of range is refused after the tables are
  // restored, for the same reason as above.
  bool listenOutOfRange = false;
  s.touchedIds_.drain([&](NodeId v) {
    const Channel c = listen[v];
    if (c == kNotListening) return;
    if (c != kAllChannels && c >= k) {
      listenOutOfRange = true;
      return;
    }
    const Channel lo = c == kAllChannels ? 0 : c;
    const Channel hi = c == kAllChannels ? k : c + 1;
    for (Channel ch = lo; ch < hi; ++ch) {
      const std::size_t idx = static_cast<std::size_t>(v) * k + ch;
      const std::uint32_t n = s.count_[idx];
      if (n == 1) {
        out.deliveries.push_back(Delivery{v, s.unique_[idx], ch});
      } else if (n > 1) {
        out.collisionSites.push_back(CollisionSite{v, ch});
      }
    }
  });

  // Restore the count table to all-zero for the next round.
  for (const Transmission& t : transmissions) {
    for (const NodeId v : csr.neighbors(t.transmitter)) {
      s.count_[static_cast<std::size_t>(v) * k + t.channel] = 0;
    }
  }
  DSN_REQUIRE(!listenOutOfRange, "listen channel out of range");
  return out;
}

}  // namespace dsn
