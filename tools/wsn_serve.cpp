// wsn_serve — resident batch-serving engine over warm deployment
// snapshots.
//
// Reads a stream of dsnet-job-v1 lines (stdin by default, or --batch
// FILE), runs each scenario job on a worker pool over a warm-state
// cache keyed by deployment fingerprint, and streams one dsnet-run-v1
// (or dsnet-error-v1) record per job to stdout in job order. Output is
// byte-identical at any --jobs count: every record is a pure function
// of its own job line. `wsn_serve --help` lists the flags.
//
// --emit-demo writes a deterministic mixed demo workload as job lines
// instead of serving (feed it back in: the CI smoke and the nightly
// serve campaign do exactly that).
//
// Exit status: 0 all jobs ok, 1 any parse error or failed job, 2 usage.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "util/cli.hpp"

namespace {

struct Cli {
  std::string batchPath;
  std::string outPath;
  int jobs = 1;
  std::size_t cacheCapacity = 64;
  bool timing = false;
  bool quiet = false;
  std::size_t emitDemo = 0;
  std::uint64_t demoSeed = 2007;
  std::size_t demoNodes = 200;
  std::size_t demoDeployments = 8;
  std::size_t demoMutating = 16;
  std::size_t demoHeavy = 4;
};

/// The flag table: every wsn_serve flag, its value and where it goes.
std::vector<dsn::cli::Flag> flagTable(Cli& opt) {
  namespace cli = dsn::cli;
  return {
      cli::text("--batch", "FILE", opt.batchPath),
      cli::text("--out", "FILE", opt.outPath),
      cli::integer("--jobs", "N", opt.jobs, 0,
                   std::numeric_limits<int>::max()),
      cli::integer("--cache-capacity", "N", opt.cacheCapacity),
      cli::toggle("--timing", opt.timing),
      cli::toggle("--quiet", opt.quiet),
      cli::integer("--emit-demo", "N", opt.emitDemo, 1),
      cli::integer("--demo-seed", "S", opt.demoSeed),
      cli::integer("--demo-nodes", "N", opt.demoNodes, 1),
      cli::integer("--demo-deployments", "K", opt.demoDeployments, 1),
      cli::integer("--demo-mutating", "M", opt.demoMutating),
      cli::integer("--demo-heavy", "H", opt.demoHeavy),
  };
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (const auto status =
          dsn::cli::parse("wsn_serve", flagTable(cli), argc, argv))
    return *status;

  std::ofstream outFile;
  std::ostream* out = &std::cout;
  if (!cli.outPath.empty()) {
    outFile.open(cli.outPath);
    if (!outFile) {
      std::cerr << "wsn_serve: cannot open " << cli.outPath << "\n";
      return 2;
    }
    out = &outFile;
  }

  if (cli.emitDemo > 0) {
    const auto jobs =
        dsn::serve::demoJobs(cli.emitDemo, cli.demoSeed, cli.demoNodes,
                             cli.demoDeployments, cli.demoMutating,
                             cli.demoHeavy);
    for (const auto& job : jobs) *out << dsn::serve::formatJobLine(job) << '\n';
    if (!cli.quiet)
      std::cerr << "wsn_serve: emitted " << jobs.size() << " demo jobs\n";
    return 0;
  }

  dsn::obs::setEnabled(true);
  dsn::serve::ServeOptions options;
  options.jobs = cli.jobs;
  options.cacheCapacity = cli.cacheCapacity;
  options.includeTiming = cli.timing;
  dsn::serve::ServeEngine engine(options);

  dsn::serve::ServeReport report;
  if (!cli.batchPath.empty()) {
    std::ifstream in(cli.batchPath);
    if (!in) {
      std::cerr << "wsn_serve: cannot open " << cli.batchPath << "\n";
      return 2;
    }
    report = engine.serveStream(in, *out);
  } else {
    report = engine.serveStream(std::cin, *out);
  }

  if (!cli.quiet) {
    const double secs = report.wallMs / 1000.0;
    std::cerr << "wsn_serve: " << report.jobsRun << " jobs on "
              << report.workers << " workers in " << report.wallMs << " ms";
    if (secs > 0.0)
      std::cerr << " (" << static_cast<double>(report.jobsRun) / secs
                << " jobs/s)";
    std::cerr << "\n  cache: " << report.cache.hits << " hits, "
              << report.cache.misses << " misses, " << report.cache.evictions
              << " evictions (hit rate " << report.cache.hitRate
              << "); csr fresh " << report.cache.csrFresh << ", stale "
              << report.cache.csrStale << "\n";
    if (report.parseErrors > 0 || report.jobsFailed > 0 ||
        report.invalidOutcomes > 0)
      std::cerr << "  problems: " << report.parseErrors << " parse errors, "
                << report.jobsFailed << " failed jobs, "
                << report.invalidOutcomes << " invalid outcomes\n";
  }
  return report.ok() ? 0 : 1;
}
