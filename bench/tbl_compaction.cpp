// C1 (extension) — TDM window drift under churn and the effect of slot
// compaction: the root's scheduled windows (δ, Δ, W_up) vs the true
// maxima, before and after a compaction sweep.
//
// Expected shape: the incremental discipline (report increases only,
// paper §5.1) lets the scheduled windows drift above the true need as
// churn accumulates; compaction restores exact minima at an O(n·D)
// metered cost.
#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsn;
  auto cfg = bench::defaultConfig(argc, argv);
  const int jobs = bench::jobsArg(argc, argv);
  bench::printHeader("C1", "window drift under churn + compaction", cfg);

  const std::size_t n = 250;
  std::vector<std::vector<double>> rows;
  for (int removals : {0, 50, 100, 150}) {
    const auto table = exec::runTrials(
        cfg, n,
        [removals](SensorNetwork& net, Rng& rng, MetricTable& t) {
          for (int i = 0; i < removals; ++i) {
            const auto nodes = net.clusterNet().netNodes();
            if (nodes.size() <= 10) break;
            net.removeSensor(nodes[rng.pickIndex(nodes)]);
          }
          auto& cnet = net.clusterNet();
          t.add("sched_L", static_cast<double>(cnet.rootMaxLSlot()));
          t.add("true_L",
                static_cast<double>(cnet.trueMaxSlot(SlotFamily::kL)));
          t.add("sched_up", static_cast<double>(cnet.rootMaxUpSlot()));
          t.add("true_up",
                static_cast<double>(cnet.trueMaxSlot(SlotFamily::kUp)));
          const auto rounds = cnet.compactSlots();
          t.add("compact_rounds", static_cast<double>(rounds));
          t.add("after_L", static_cast<double>(cnet.rootMaxLSlot()));
          t.add("after_up", static_cast<double>(cnet.rootMaxUpSlot()));
        },
        jobs);
    rows.push_back(
        {static_cast<double>(removals), table.mean("sched_L"),
         table.mean("true_L"), table.mean("after_L"),
         table.mean("sched_up"), table.mean("after_up"),
         table.mean("compact_rounds")});
  }
  bench::emitBench("tbl_compaction", "C1 — window drift and compaction (n = 250)",
            {"removals", "sched Delta", "true Delta", "Delta after",
             "sched W_up", "W_up after", "compact rounds"},
            rows, cfg, 2);
  return 0;
}
