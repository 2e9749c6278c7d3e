#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [&](const Check& c) { return c.name == name; });
  if (it == checks_.end()) {
    checks_.push_back({name, 0, 0, {}});
    it = checks_.end() - 1;
  }
  ++it->evaluated;
  if (!ok) {
    if (it->failures == 0) it->firstFailure = detail;
    ++it->failures;
  }
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Result::correct() const {
  if (checks_.empty()) return false;
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) {
    return c.evaluated > 0 && c.failures == 0;
  });
}

std::size_t countAbove(const dsn::Samples& samples, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(samples.values().begin(), samples.values().end(),
                    [threshold](double v) { return v > threshold; }));
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// The kernel's duration on the reference host (4-vCPU Xeon), alone and
/// on all four vCPUs at once; they only set the level of the figures.
constexpr double kNominalOneThread = 0.0100;
constexpr double kNominalAllThreads = 0.0128;

std::uint64_t kernel(std::uint64_t seed) {
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  std::uint64_t x = seed;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(x >> 40);
  };
  for (int i = 0; i < 60000; ++i) table[next()] += 1;
  std::uint64_t sum = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto it = table.find(next());
    if (it != table.end()) sum += it->second;
  }
  return sum;
}

}  // namespace

double HostSpeed::sample(int threads) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads), 0);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (int t = 1; t < threads; ++t)
      pool.emplace_back([&out, t] {
        out[static_cast<std::size_t>(t)] =
            kernel(static_cast<std::uint64_t>(t) + 7);
      });
    out[0] = kernel(7);
  }
  const double seconds = secondsSince(t0);
  for (const std::uint64_t v : out) checksum_ ^= v;
  return seconds;
}

double HostSpeed::scale(int threads, double before, double after) {
  const double nominal = threads > 1 ? kNominalAllThreads : kNominalOneThread;
  return nominal / (0.5 * (before + after));
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace perfbench
