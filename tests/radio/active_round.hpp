// The listen column and transmit records resolveRoundActive reads, built
// from the one-Action-per-node table resolveRound reads, so a test can
// hand one round to both resolvers.
#pragma once

#include <vector>

#include "radio/channel.hpp"

namespace dsn::testutil {

struct ActiveRound {
  std::vector<Channel> listen;
  std::vector<Transmission> transmissions;
};

inline ActiveRound splitActions(const std::vector<Action>& actions) {
  ActiveRound round;
  round.listen.assign(actions.size(), kNotListening);
  for (NodeId v = 0; v < actions.size(); ++v) {
    const Action& a = actions[v];
    if (a.type == Action::Type::kListen) {
      round.listen[v] = a.channel;
    } else if (a.type == Action::Type::kTransmit) {
      round.transmissions.push_back(Transmission{v, a.channel, a.message});
    }
  }
  return round;
}

}  // namespace dsn::testutil
