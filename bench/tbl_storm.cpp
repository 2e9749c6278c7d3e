// T8 (extension) — the broadcast-storm motivation (paper §1, [16]):
// structure-free probabilistic flooding vs the structured CFF broadcast
// at n = 250, sweeping the flood's contention window.
//
// Expected shape: small windows collide themselves into partial
// coverage; large windows cover but take many more rounds and always
// ~n transmissions — CFF needs only the backbone's ~2·|BT| frames and a
// few TDM windows.
#include "bench/bench_common.hpp"
#include "broadcast/runner.hpp"

int main(int argc, char** argv) {
  using namespace dsn;
  auto cfg = bench::defaultConfig(argc, argv);
  const int jobs = bench::jobsArg(argc, argv);
  bench::printHeader("T8", "flooding storm vs structured CFF (n = 250)",
                     cfg);

  const std::size_t n = 250;
  std::vector<std::vector<double>> rows;
  for (int window : {1, 2, 4, 8, 16, 32}) {
    const auto table = exec::runTrials(
        cfg, n,
        [window](SensorNetwork& net, Rng& rng, MetricTable& t) {
          ProtocolOptions flood;
          flood.arena.contentionWindow = window;
          flood.arena.seed = rng.next();
          const NodeId source = net.randomNode(rng);
          const auto storm = runRivalBroadcast(BroadcastScheme::kFlooding,
                                               net.graph(), source, 1, flood);
          t.add("storm_cov", storm.coverage());
          t.add("storm_tx", static_cast<double>(storm.transmissions));
          t.add("storm_done",
                static_cast<double>(storm.completionRounds()));
          const auto cff =
              net.broadcast(BroadcastScheme::kImprovedCff, source, 1);
          t.add("cff_tx", static_cast<double>(cff.transmissions));
          t.add("cff_rounds", static_cast<double>(cff.sim.rounds));
        },
        jobs);
    rows.push_back({static_cast<double>(window), table.mean("storm_cov"),
                    table.mean("storm_tx"), table.mean("storm_done"),
                    table.mean("cff_tx"), table.mean("cff_rounds")});
  }
  bench::emitBench("tbl_storm", "T8 — broadcast storm vs CFF (n = 250)",
            {"window", "storm cov", "storm tx", "storm last-rx",
             "CFF tx", "CFF rounds"},
            rows, cfg, 2);
  return 0;
}
