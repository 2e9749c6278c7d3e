#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dsn::cli {
namespace {

constexpr std::size_t kUsageWidth = 72;

/// Shortest text that reads back as `v`.
std::string number(double v) {
  char buf[32];  // holds the shortest form of any double
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// True when `arg` is one of the '|'-separated `names`.
bool named(std::string_view names, std::string_view arg) {
  for (;;) {
    const std::size_t bar = names.find('|');
    if (names.substr(0, bar) == arg) return true;
    if (bar == std::string_view::npos) return false;
    names.remove_prefix(bar + 1);
  }
}

}  // namespace

Flag real(std::string_view names, std::string_view metavar, double& target,
          double lo, double hi, Open open) {
  const bool openLow = open == Open::kLow;
  const bool openHigh = open == Open::kHigh;
  std::string want = "a finite real ";
  if (std::isinf(hi))
    want += (openLow ? "> " : ">= ") + number(lo);
  else
    want += std::string("in ") + (openLow ? "(" : "[") + number(lo) + ", " +
            number(hi) + (openHigh ? ")" : "]");
  return {names, metavar,
          [&target, lo, hi, openLow, openHigh](std::string_view token) {
            double value = 0.0;
            const char* const end = token.data() + token.size();
            const auto [stop, ec] = std::from_chars(token.data(), end, value);
            if (ec != std::errc() || stop != end || !std::isfinite(value) ||
                value < lo || value > hi || (openLow && value == lo) ||
                (openHigh && value == hi))
              return false;
            target = value;
            return true;
          },
          std::move(want)};
}

Flag text(std::string_view names, std::string_view metavar,
          std::string& target) {
  return {names, metavar,
          [&target](std::string_view token) {
            target = token;
            return true;
          },
          {}};
}

Flag toggle(std::string_view names, bool& target) {
  return {names, {},
          [&target](std::string_view) {
            target = true;
            return true;
          },
          {}};
}

std::optional<int> parse(std::string_view command,
                         const std::vector<Flag>& flags, int argc,
                         const char* const* argv, int first,
                         std::ostream& out, std::ostream& err) {
  const auto refuse = [&](const std::string& why) {
    err << why << "\n";
    usage(err, command, flags);
    return 2;
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(out, command, flags);
      return 0;
    }
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&arg](const Flag& f) { return named(f.names, arg); });
    if (flag == flags.end()) return refuse("unknown argument: " + arg);
    if (flag->metavar.empty()) {
      flag->set({});
    } else if (i + 1 == argc) {
      return refuse("missing value for " + arg);
    } else if (const std::string token = argv[++i]; !flag->set(token)) {
      return refuse("bad " + arg + " '" + token + "' (want " + flag->want +
                    ")");
    }
  }
  return std::nullopt;
}

void usage(std::ostream& os, std::string_view command,
           const std::vector<Flag>& flags) {
  const std::string lead = "usage: " + std::string(command);
  std::string line = lead;
  for (const Flag& f : flags) {
    std::string item = "[";
    item += f.names;
    if (!f.metavar.empty()) (item += ' ') += f.metavar;
    item += ']';
    if (line.size() > lead.size() &&
        line.size() + 1 + item.size() > kUsageWidth) {
      os << line << "\n";
      line.assign(lead.size(), ' ');
    }
    (line += ' ') += item;
  }
  os << line << "\n";
}

}  // namespace dsn::cli
