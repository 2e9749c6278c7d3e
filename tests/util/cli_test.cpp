// dsn::cli: whole-token numbers, both edges of every kind of range,
// aliases, switches, a word row, and parse()'s errors, --help and usage
// text.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace dsn::cli {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();

struct Outcome {
  std::optional<int> status;
  std::string out;
  std::string err;
};

/// parse() over `args`, as if they followed the program name "tool".
Outcome run(const std::vector<Flag>& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  std::ostringstream out;
  std::ostringstream err;
  Outcome o;
  o.status = parse("tool", flags, static_cast<int>(args.size()),
                   args.data(), 1, out, err);
  o.out = out.str();
  o.err = err.str();
  return o;
}

TEST(CliTest, IntegersAreReadWhole) {
  std::uint64_t v = 7;
  const Flag f = integer("--n", "N", v);
  for (const char* bad : {"40x", "", " 4", "4 ", "-1", "+1", "1.5", "1e3",
                          "0x10", "nan", "18446744073709551616"})
    EXPECT_FALSE(f.set(bad)) << "'" << bad << "'";
  EXPECT_EQ(v, 7u) << "a refused token must leave the target alone";
  EXPECT_TRUE(f.set("0"));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(f.set("18446744073709551615"));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(CliTest, IntegerRangesHoldAtBothEdges) {
  int jobs = 1;
  const Flag j = integer("--jobs", "N", jobs, 0, kIntMax);
  EXPECT_TRUE(j.set("0"));
  EXPECT_TRUE(j.set("2147483647"));
  EXPECT_FALSE(j.set("-1"));
  EXPECT_FALSE(j.set("2147483648"));
  EXPECT_EQ(j.want, "an integer in [0, 2147483647]");

  std::uint32_t sample = 1;
  const Flag s = integer("--sample", "N", sample, 1);
  EXPECT_TRUE(s.set("1"));
  EXPECT_TRUE(s.set("4294967295"));
  EXPECT_FALSE(s.set("0"));
  EXPECT_FALSE(s.set("4294967297"));

  std::size_t nodes = 2;
  const Flag n = integer("--min-nodes", "N", nodes, 2);
  EXPECT_TRUE(n.set("2"));
  EXPECT_FALSE(n.set("1"));

  std::int64_t rounds = 1;
  const Flag r = integer("--rounds", "R", rounds, 1);
  EXPECT_TRUE(r.set("1"));
  EXPECT_TRUE(r.set("9223372036854775807"));
  EXPECT_FALSE(r.set("0"));
  EXPECT_FALSE(r.set("9223372036854775808"));

  std::optional<std::uint32_t> node;
  const Flag o = integer("--node", "N", node, 0, 4294967294u);
  EXPECT_FALSE(o.set("4294967295"));
  EXPECT_FALSE(node.has_value());
  EXPECT_TRUE(o.set("4294967294"));
  EXPECT_EQ(node, 4294967294u);
  EXPECT_TRUE(o.set("0"));
  EXPECT_EQ(node, 0u);
}

TEST(CliTest, RealsAreReadWholeAndFinite) {
  double p = 0.5;
  const Flag f = real("--drop", "P", p, 0.0, 1.0);
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "", "0.5x", "+0.5", " 0.5", "0.5 ", "abc"})
    EXPECT_FALSE(f.set(bad)) << "'" << bad << "'";
  EXPECT_EQ(p, 0.5) << "a refused token must leave the target alone";
  EXPECT_TRUE(f.set("0.25"));
  EXPECT_EQ(p, 0.25);
  EXPECT_TRUE(f.set("1e-1"));
  EXPECT_EQ(p, 0.1);
}

TEST(CliTest, RealRangesHoldAtBothEdges) {
  double p = 0.0;
  const Flag closed = real("--drop", "P", p, 0.0, 1.0);
  EXPECT_TRUE(closed.set("0"));
  EXPECT_TRUE(closed.set("1"));
  EXPECT_FALSE(closed.set("-0.0001"));
  EXPECT_FALSE(closed.set("1.0000001"));
  EXPECT_EQ(closed.want, "a finite real in [0, 1]");

  const double inf = std::numeric_limits<double>::infinity();
  double range = 50.0;
  const Flag positive = real("--range", "M", range, 0.0, inf, Open::kLow);
  EXPECT_FALSE(positive.set("0"));
  EXPECT_TRUE(positive.set("5e-324"));
  EXPECT_TRUE(positive.set("1.7976931348623157e308"));
  EXPECT_FALSE(positive.set("1e309"));
  EXPECT_EQ(positive.want, "a finite real > 0");

  double churn = 0.3;
  const Flag below = real("--churn", "RATE", churn, 0.0, 0x1p64, Open::kHigh);
  EXPECT_TRUE(below.set("0"));
  EXPECT_FALSE(below.set("-1"));
  EXPECT_TRUE(below.set("18446744073709549568"));  // largest double < 2^64
  EXPECT_FALSE(below.set("18446744073709551616"));
  EXPECT_EQ(below.want, "a finite real in [0, 18446744073709551616)");
}

TEST(CliTest, ParseFillsTheTableThroughEveryAlias) {
  int jobs = 1;
  bool quiet = false;
  std::string path;
  std::optional<std::uint64_t> seed;
  const std::vector<Flag> flags = {
      integer("--jobs|-j", "N", jobs, 0, kIntMax), toggle("--quiet", quiet),
      text("-o|--out", "FILE", path), integer("--seed", "S", seed)};

  Outcome o = run(flags, {"-j", "3", "--quiet", "-o", "x.json"});
  EXPECT_EQ(o.status, std::nullopt) << o.err;
  EXPECT_EQ(jobs, 3);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(path, "x.json");
  EXPECT_FALSE(seed.has_value());

  o = run(flags, {"--jobs", "4", "--out", "y.json", "--seed", "0"});
  EXPECT_EQ(o.status, std::nullopt) << o.err;
  EXPECT_EQ(jobs, 4);
  EXPECT_EQ(path, "y.json");
  EXPECT_EQ(seed, 0u);
  EXPECT_EQ(o.out, "");
  EXPECT_EQ(o.err, "");
}

TEST(CliTest, ErrorsNameTheArgumentAndReturnTwo) {
  int jobs = 1;
  std::string kind;
  const std::vector<Flag> flags = {
      integer("--jobs|-j", "N", jobs, 0, kIntMax),
      {"--kind", "KIND",
       [&kind](std::string_view w) {
         if (w != "a" && w != "b") return false;
         kind = w;
         return true;
       },
       "a|b"}};
  const std::string usageText = "usage: tool [--jobs|-j N] [--kind KIND]\n";

  Outcome o = run(flags, {"--bogus"});
  EXPECT_EQ(o.status, 2);
  EXPECT_EQ(o.err, "unknown argument: --bogus\n" + usageText);
  EXPECT_EQ(o.out, "");

  o = run(flags, {"--kind", "a", "--jobs"});
  EXPECT_EQ(o.status, 2);
  EXPECT_EQ(o.err, "missing value for --jobs\n" + usageText);

  o = run(flags, {"-j", "2x"});
  EXPECT_EQ(o.status, 2);
  EXPECT_EQ(o.err,
            "bad -j '2x' (want an integer in [0, 2147483647])\n" + usageText);

  o = run(flags, {"--kind", "c"});
  EXPECT_EQ(o.status, 2);
  EXPECT_EQ(o.err, "bad --kind 'c' (want a|b)\n" + usageText);

  o = run(flags, {"--kind", "b"});
  EXPECT_EQ(o.status, std::nullopt);
  EXPECT_EQ(kind, "b");
}

TEST(CliTest, HelpPrintsTheUsageAndReturnsZero) {
  int jobs = 1;
  bool quiet = false;
  const std::vector<Flag> flags = {
      integer("--jobs|-j", "N", jobs, 0, kIntMax), toggle("--quiet", quiet)};
  const std::string usageText = "usage: tool [--jobs|-j N] [--quiet]\n";
  for (const char* help : {"--help", "-h"}) {
    const Outcome o = run(flags, {"--jobs", "2", help, "--bogus"});
    EXPECT_EQ(o.status, 0) << help;
    EXPECT_EQ(o.out, usageText) << help;
    EXPECT_EQ(o.err, "") << help;
  }
  // An error before --help still wins.
  EXPECT_EQ(run(flags, {"--bogus", "--help"}).status, 2);
}

TEST(CliTest, UsageWrapsUnderTheCommand) {
  std::vector<std::size_t> values(12);
  std::vector<Flag> flags;
  const char* names[] = {"--alpha", "--bravo", "--charlie", "--delta",
                         "--echo",  "--foxtrot", "--golf", "--hotel",
                         "--india", "--juliett", "--kilo", "--lima"};
  for (std::size_t i = 0; i < values.size(); ++i)
    flags.push_back(integer(names[i], "N", values[i]));
  std::ostringstream os;
  usage(os, "tool sub FILE", flags);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  std::string joined;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 72u) << line;
    const std::string lead = count == 0 ? "usage: tool sub FILE "
                                        : std::string(21, ' ');
    EXPECT_EQ(line.substr(0, lead.size()), lead) << line;
    EXPECT_NE(line[lead.size()], ' ') << line;
    joined += line.substr(lead.size()) + " ";
    ++count;
  }
  EXPECT_GT(count, 1u);
  EXPECT_EQ(joined,
            "[--alpha N] [--bravo N] [--charlie N] [--delta N] [--echo N] "
            "[--foxtrot N] [--golf N] [--hotel N] [--india N] [--juliett N] "
            "[--kilo N] [--lima N] ");
}

}  // namespace
}  // namespace dsn::cli
