// wsn_campaign — mobility/churn campaign driver (DESIGN.md §15).
//
// Runs a long mobility campaign: a random-waypoint walk plus sustained
// crash/join/leave churn against one deployment, with CFF/iCFF
// broadcasts admitted every --wave-period rounds and kept in flight
// while the topology changes under them every --churn-period rounds.
// `wsn_campaign --help` lists the flags.
//
// --churn RATE is the expected structural events per churn tick, split
// 40% crashes / 50% joins / 10% voluntary leaves (joins slightly above
// losses so the deployment does not drain). --policy selects the repair
// strategy; adaptive is the Gavalas-style debt-threshold re-cluster.
//
// The report — including the campaign digest — is a pure function of
// the arguments and carries no wall-clock, so two runs can be
// byte-compared.
//
// Exit status: 0 when the structure stayed validator-clean after every
// repair AND settled coverage reached --min-coverage (default 0.99);
// 1 otherwise, including a campaign in which no receiver settled, whose
// coverage was not measured; 2 on usage errors and on a configuration
// the network, mobility or churn layer refuses.
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/sensor_network.hpp"
#include "mobility/campaign.hpp"
#include "util/cli.hpp"

namespace {

struct CliOptions {
  std::size_t nodes = 120;
  std::uint64_t seed = 2007;
  int fieldUnits = 4;
  double range = 50.0;
  dsn::Round rounds = 10'000;
  dsn::Round wavePeriod = 200;
  dsn::Round churnPeriod = 8;
  double churn = 0.3;
  dsn::mobility::RepairPolicy policy =
      dsn::mobility::RepairPolicy::kAdaptive;
  dsn::BroadcastScheme scheme = dsn::BroadcastScheme::kImprovedCff;
  double speed = 20.0;
  dsn::Round walkPeriod = 32;
  double minCoverage = 0.99;
  bool quiet = false;
};

/// The flag table: every wsn_campaign flag, its value and where it goes.
std::vector<dsn::cli::Flag> flagTable(CliOptions& opt) {
  namespace cli = dsn::cli;
  using dsn::mobility::RepairPolicy;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr RepairPolicy kPolicies[] = {RepairPolicy::kIncremental,
                                               RepairPolicy::kRebuild,
                                               RepairPolicy::kAdaptive};
  std::string policies;
  for (const RepairPolicy p : kPolicies) {
    if (!policies.empty()) policies += '|';
    policies += toString(p);
  }
  std::string slotted;
  for (const dsn::BroadcastScheme s : dsn::kAllBroadcastSchemes) {
    if (!dsn::isSlottedScheme(s)) continue;
    if (!slotted.empty()) slotted += '|';
    slotted += dsn::schemeWord(s);
  }
  return {
      cli::integer("--nodes", "N", opt.nodes),
      cli::integer("--seed", "S", opt.seed),
      cli::integer("--field", "UNITS", opt.fieldUnits, 1,
                   std::numeric_limits<int>::max()),
      cli::real("--range", "METERS", opt.range, 0.0, kInf, cli::Open::kLow),
      cli::integer("--rounds", "R", opt.rounds, 1),
      cli::integer("--wave-period", "W", opt.wavePeriod, 1),
      cli::integer("--churn-period", "C", opt.churnPeriod, 1),
      // Each tick draws floor(rate) events, counted in a size_t.
      cli::real("--churn", "RATE", opt.churn, 0.0, 0x1p64, cli::Open::kHigh),
      {"--policy", "POLICY",
       [&opt](std::string_view w) {
         for (const RepairPolicy p : kPolicies) {
           if (toString(p) != w) continue;
           opt.policy = p;
           return true;
         }
         return false;
       },
       policies},
      {"--scheme", "SCHEME",
       [&opt](std::string_view w) {
         dsn::BroadcastScheme scheme{};
         if (!dsn::parseBroadcastScheme(w, scheme) ||
             !dsn::isSlottedScheme(scheme))
           return false;
         opt.scheme = scheme;
         return true;
       },
       slotted},
      cli::real("--speed", "V", opt.speed, 0.0, kInf, cli::Open::kLow),
      cli::integer("--walk-period", "P", opt.walkPeriod, 1),
      cli::real("--min-coverage", "X", opt.minCoverage, 0.0, 1.0),
      cli::toggle("--quiet", opt.quiet),
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsn;
  using namespace dsn::mobility;

  CliOptions opt;
  if (const auto status =
          cli::parse("wsn_campaign", flagTable(opt), argc, argv))
    return *status;

  NetworkConfig nc;
  nc.field = Field::squareUnits(opt.fieldUnits);
  nc.range = opt.range;
  nc.nodeCount = opt.nodes;
  nc.seed = opt.seed;

  CampaignConfig cfg;
  cfg.rounds = opt.rounds;
  cfg.wavePeriod = opt.wavePeriod;
  cfg.churnPeriod = opt.churnPeriod;
  cfg.scheme = opt.scheme;
  cfg.sourceSeed = opt.seed ^ 0x5EED;

  // The network, the walk and the churn engine check their own
  // configurations and throw on one they refuse; that exits 2 with its
  // message, as an error inside the campaign does.
  CampaignResult res;
  try {
    SensorNetwork net(nc);

    WaypointConfig wc;
    wc.field = nc.field;
    wc.speed = opt.speed;
    wc.period = opt.walkPeriod;
    wc.seed = opt.seed ^ 0x30B11E;
    RandomWaypointModel model(wc);
    for (NodeId v : net.clusterNet().netNodes())
      model.track(v, net.position(v));

    ChurnConfig cc;
    cc.crashRate = 0.4 * opt.churn;
    cc.joinRate = 0.5 * opt.churn;
    cc.leaveRate = 0.1 * opt.churn;
    cc.policy = opt.policy;
    cc.field = nc.field;
    cc.seed = opt.seed ^ 0xC0FFEE;
    ChurnEngine engine(net, &model, cc);

    res = runMobilityCampaign(net, engine, cfg);
  } catch (const std::exception& ex) {
    std::cerr << "campaign error: " << ex.what() << "\n";
    return 2;
  }

  // The report is deterministic and wall-clock-free on purpose: two runs
  // with the same arguments must be byte-identical.
  if (!opt.quiet) {
    std::cout << "campaign: nodes=" << opt.nodes << " seed=" << opt.seed
              << " field=" << opt.fieldUnits << " rounds=" << res.roundsRun
              << " scheme=" << toString(cfg.scheme)
              << " policy=" << toString(opt.policy)
              << " churn=" << opt.churn << "\n";
    std::cout << "waves=" << res.waves
              << " repair_waves=" << res.repairWavesRun
              << " intended=" << res.intended
              << " delivered=" << res.delivered
              << " departed=" << res.departed
              << " displaced=" << res.displaced
              << " settled=" << res.settled
              << " settled_covered=" << res.settledCovered << "\n";
    const ChurnTotals& t = res.churn;
    std::cout << "churn: ticks=" << t.ticks << " moves=" << t.moves
              << " crashes=" << t.crashes << " joins=" << t.joins
              << " leaves=" << t.leaves << " repairs=" << t.repairs
              << " rebuilds=" << t.rebuilds
              << " inc_cost=" << t.incrementalCost
              << " reb_cost=" << t.rebuildCost << "\n";
  }
  // Coverage is a share of the settled receivers. With none settled
  // nothing was measured, so there is no coverage to print or to pass.
  const bool measured = res.settled > 0;
  if (measured)
    std::printf("coverage=%.6f first_wave=%.6f ", res.effectiveCoverage(),
                res.firstWaveCoverage());
  else
    std::printf("coverage=none first_wave=none ");
  std::printf("validator=%s digest=%016llx\n",
              res.validatorClean() ? "clean" : "DIRTY",
              static_cast<unsigned long long>(res.digest));

  const bool ok = res.validatorClean() && measured &&
                  res.effectiveCoverage() >= opt.minCoverage;
  if (!ok) {
    std::cerr << "campaign gate FAILED: validator "
              << (res.validatorClean() ? "clean" : "dirty") << ", ";
    if (measured)
      std::cerr << "coverage " << res.effectiveCoverage() << " vs required "
                << opt.minCoverage << "\n";
    else
      std::cerr << "no receiver settled, so coverage was not measured\n";
    return 1;
  }
  return 0;
}
