// Umbrella header + protocol dispatch for the broadcast family.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "broadcast/cff_flooding.hpp"
#include "broadcast/dfo.hpp"
#include "broadcast/improved_cff.hpp"
#include "broadcast/run_result.hpp"
#include "obs/flight.hpp"

namespace dsn {

/// The paper's three structured schemes plus the classic rivals they are
/// raced against in the arena (DESIGN.md §16). The first three need a
/// ClusterNet (TDM slots over the cluster structure); the rest run on
/// the flat graph with randomized relay decisions.
enum class BroadcastScheme : std::uint8_t {
  kDfo,          ///< depth-first-order Eulerian tour ([19], baseline)
  kCff,          ///< Algorithm 1: flood the whole CNet
  kImprovedCff,  ///< Algorithm 2: backbone flood + leaf window
  kFlooding,        ///< blind flooding (relay probability 1)
  kGossip,          ///< fixed-p probabilistic gossip
  kGossipAdaptive,  ///< density-adaptive gossip (p = fanout/degree)
  kCounter,         ///< counter-based suppression (Ni et al.)
  kDistance,        ///< distance-based suppression (needs positions)
  kRlnc,            ///< random linear network coding over GF(2^8)
};

/// True for the paper's structured schemes: they consume the ClusterNet
/// and drive the TDM slot machinery. The rivals only need the graph.
constexpr bool isClusterScheme(BroadcastScheme s) {
  return s == BroadcastScheme::kDfo || s == BroadcastScheme::kCff ||
         s == BroadcastScheme::kImprovedCff;
}

/// True for the schemes with a depth-indexed slot schedule — the only
/// ones the NACK-repair (reliable) and in-flight wave machinery can
/// drive. DFO's token tour and the flat rivals have no slot schedule.
constexpr bool isSlottedScheme(BroadcastScheme s) {
  return s == BroadcastScheme::kCff || s == BroadcastScheme::kImprovedCff;
}

/// True for schemes whose protocol draws randomized relay decisions
/// (coins, backoffs, coefficients) from ArenaTuning::seed. These get
/// seed-determinism + budget-superset oracles instead of exact-set
/// differential equality in the testkit.
constexpr bool isRandomizedScheme(BroadcastScheme s) {
  return !isClusterScheme(s);
}

/// Every scheme, in arena roster order (the tbl_arena row order).
inline constexpr std::array<BroadcastScheme, 9> kAllBroadcastSchemes = {
    BroadcastScheme::kDfo,      BroadcastScheme::kCff,
    BroadcastScheme::kImprovedCff, BroadcastScheme::kFlooding,
    BroadcastScheme::kGossip,   BroadcastScheme::kGossipAdaptive,
    BroadcastScheme::kCounter,  BroadcastScheme::kDistance,
    BroadcastScheme::kRlnc,
};

/// One row of the scheme table: everything the layers above spell for a
/// scheme. The strings are NUL-terminated literals, so `.data()` of any
/// of them is a C string.
struct BroadcastSchemeInfo {
  std::string_view word;   ///< scenario, job-line and CLI word
  std::string_view name;   ///< table headers, reports, metric tags
  std::string_view phase;  ///< timing phase of one run
  obs::FrRunKind runKind;  ///< flight-recorder run kind
};

/// The scheme table, indexed by BroadcastScheme (enum and roster
/// order). Adding a scheme adds a row here.
inline constexpr std::array<BroadcastSchemeInfo, kAllBroadcastSchemes.size()>
    kBroadcastSchemeTable = {{
        {"dfo", "DFO", "broadcast.DFO", obs::FrRunKind::kDfo},
        {"cff", "CFF", "broadcast.CFF", obs::FrRunKind::kCff},
        {"icff", "ICFF", "broadcast.ICFF", obs::FrRunKind::kIcff},
        {"flood", "FLOOD", "broadcast.FLOOD", obs::FrRunKind::kFlooding},
        {"gossip", "GOSSIP", "broadcast.GOSSIP", obs::FrRunKind::kGossip},
        {"agossip", "AGOSSIP", "broadcast.AGOSSIP",
         obs::FrRunKind::kGossipAdaptive},
        {"counter", "COUNTER", "broadcast.COUNTER", obs::FrRunKind::kCounter},
        {"distance", "DISTANCE", "broadcast.DISTANCE",
         obs::FrRunKind::kDistance},
        {"rlnc", "RLNC", "broadcast.RLNC", obs::FrRunKind::kRlnc},
    }};

constexpr const BroadcastSchemeInfo& schemeInfo(BroadcastScheme s) {
  return kBroadcastSchemeTable[static_cast<std::size_t>(s)];
}

/// Upper-case scheme name (table headers, reports, metric tags).
constexpr std::string_view toString(BroadcastScheme s) {
  return schemeInfo(s).name;
}

/// Lower-case scheme word, the one parseBroadcastScheme accepts.
constexpr std::string_view schemeWord(BroadcastScheme s) {
  return schemeInfo(s).word;
}

/// Every scheme word in roster order, joined by `separator` (for usage
/// and error messages).
std::string schemeWordList(std::string_view separator);

/// Parses a scheme word (see schemeWord); false when `word` names none.
bool parseBroadcastScheme(std::string_view word, BroadcastScheme& out);

/// Runs the flat rival `scheme` (one with isRandomizedScheme) over `g`,
/// tuned by `options.arena` alone. Only the nodes reachable from the
/// live `source` are intended. kDistance also needs
/// `options.nodePositions` for every node (SensorNetwork::broadcast
/// fills them). Unlike runBroadcast, it records no timing phase, flight
/// marker or metric.
BroadcastRun runRivalBroadcast(BroadcastScheme scheme, const Graph& g,
                               NodeId source, std::uint64_t payload,
                               const ProtocolOptions& options = {});

/// Uniform entry point used by benches and examples. Cluster schemes
/// run over `net`; rivals run over `net.graph()` through
/// runRivalBroadcast.
BroadcastRun runBroadcast(BroadcastScheme scheme, const ClusterNet& net,
                          NodeId source, std::uint64_t payload,
                          const ProtocolOptions& options = {});

}  // namespace dsn
