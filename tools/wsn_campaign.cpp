// wsn_campaign — mobility/churn campaign driver (DESIGN.md §15).
//
// Runs a long mobility campaign: a random-waypoint walk plus sustained
// crash/join/leave churn against one deployment, with CFF/iCFF
// broadcasts admitted every --wave-period rounds and kept in flight
// while the topology changes under them every --churn-period rounds.
//
//   wsn_campaign [--nodes N] [--seed S] [--field UNITS] [--range M]
//                [--rounds R] [--wave-period W] [--churn-period C]
//                [--churn RATE] [--policy incremental|rebuild|adaptive]
//                [--scheme cff|icff] [--speed V] [--walk-period P]
//                [--min-coverage X] [--quiet]
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
// 1 otherwise; 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/sensor_network.hpp"
#include "mobility/campaign.hpp"

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

void usage(std::ostream& os) {
  os << "usage: wsn_campaign [--nodes N] [--seed S] [--field UNITS]\n"
        "                    [--range METERS] [--rounds R]\n"
        "                    [--wave-period W] [--churn-period C]\n"
        "                    [--churn RATE]\n"
        "                    [--policy incremental|rebuild|adaptive]\n"
        "                    [--scheme cff|icff] [--speed V]\n"
        "                    [--walk-period P] [--min-coverage X]\n"
        "                    [--quiet]\n";
}

bool parseArgs(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--nodes") {
      if (!(v = next())) return false;
      opt.nodes = std::strtoul(v, nullptr, 10);
    } else if (arg == "--seed") {
      if (!(v = next())) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--field") {
      if (!(v = next())) return false;
      opt.fieldUnits = std::atoi(v);
      if (opt.fieldUnits <= 0) return false;
    } else if (arg == "--range") {
      if (!(v = next())) return false;
      opt.range = std::atof(v);
    } else if (arg == "--rounds") {
      if (!(v = next())) return false;
      opt.rounds = std::strtoll(v, nullptr, 10);
      if (opt.rounds <= 0) return false;
    } else if (arg == "--wave-period") {
      if (!(v = next())) return false;
      opt.wavePeriod = std::strtoll(v, nullptr, 10);
      if (opt.wavePeriod <= 0) return false;
    } else if (arg == "--churn-period") {
      if (!(v = next())) return false;
      opt.churnPeriod = std::strtoll(v, nullptr, 10);
      if (opt.churnPeriod <= 0) return false;
    } else if (arg == "--churn") {
      if (!(v = next())) return false;
      opt.churn = std::atof(v);
      if (opt.churn < 0.0) return false;
    } else if (arg == "--policy") {
      if (!(v = next())) return false;
      const std::string p = v;
      if (p == "incremental")
        opt.policy = dsn::mobility::RepairPolicy::kIncremental;
      else if (p == "rebuild")
        opt.policy = dsn::mobility::RepairPolicy::kRebuild;
      else if (p == "adaptive")
        opt.policy = dsn::mobility::RepairPolicy::kAdaptive;
      else
        return false;
    } else if (arg == "--scheme") {
      if (!(v = next())) return false;
      const std::string s = v;
      if (s == "cff")
        opt.scheme = dsn::BroadcastScheme::kCff;
      else if (s == "icff")
        opt.scheme = dsn::BroadcastScheme::kImprovedCff;
      else
        return false;
    } else if (arg == "--speed") {
      if (!(v = next())) return false;
      opt.speed = std::atof(v);
      if (opt.speed <= 0.0) return false;
    } else if (arg == "--walk-period") {
      if (!(v = next())) return false;
      opt.walkPeriod = std::strtoll(v, nullptr, 10);
      if (opt.walkPeriod <= 0) return false;
    } else if (arg == "--min-coverage") {
      if (!(v = next())) return false;
      opt.minCoverage = std::atof(v);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsn;
  using namespace dsn::mobility;

  CliOptions opt;
  if (!parseArgs(argc, argv, opt)) {
    usage(std::cerr);
    return 2;
  }

  NetworkConfig nc;
  nc.field = Field::squareUnits(opt.fieldUnits);
  nc.range = opt.range;
  nc.nodeCount = opt.nodes;
  nc.seed = opt.seed;
  SensorNetwork net(nc);

  WaypointConfig wc;
  wc.field = nc.field;
  wc.speed = opt.speed;
  wc.period = opt.walkPeriod;
  wc.seed = opt.seed ^ 0x30B11E;
  RandomWaypointModel model(wc);
  for (NodeId v : net.clusterNet().netNodes()) model.track(v, net.position(v));

  ChurnConfig cc;
  cc.crashRate = 0.4 * opt.churn;
  cc.joinRate = 0.5 * opt.churn;
  cc.leaveRate = 0.1 * opt.churn;
  cc.policy = opt.policy;
  cc.field = nc.field;
  cc.seed = opt.seed ^ 0xC0FFEE;
  ChurnEngine engine(net, &model, cc);

  CampaignConfig cfg;
  cfg.rounds = opt.rounds;
  cfg.wavePeriod = opt.wavePeriod;
  cfg.churnPeriod = opt.churnPeriod;
  cfg.scheme = opt.scheme;
  cfg.sourceSeed = opt.seed ^ 0x5EED;

  CampaignResult res;
  try {
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
  std::printf("coverage=%.6f first_wave=%.6f validator=%s digest=%016llx\n",
              res.effectiveCoverage(), res.firstWaveCoverage(),
              res.validatorClean() ? "clean"
                                   : "DIRTY",
              static_cast<unsigned long long>(res.digest));

  const bool ok =
      res.validatorClean() && res.effectiveCoverage() >= opt.minCoverage;
  if (!ok) {
    std::cerr << "campaign gate FAILED: validator "
              << (res.validatorClean() ? "clean" : "dirty") << ", coverage "
              << res.effectiveCoverage() << " vs required " << opt.minCoverage
              << "\n";
    return 1;
  }
  return 0;
}
