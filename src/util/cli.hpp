// Table-driven command-line flags for the dsnet tools.
//
// A tool declares each flag once, as one row of its table: its names,
// the placeholder for its value, where the value goes and what it must
// be. parse() walks argv against the table and usage() prints the
// synopsis from it. A number is read with std::from_chars over the whole
// token and then checked against its range, so trailing characters, an
// empty token, a sign on an unsigned value, a fraction for an integer,
// NaN and infinity are refused with a message naming the flag. Only
// `--name value`, switches and aliases ("--jobs|-j") exist: there is no
// `--name=value`, no bundling and no abbreviation.
#pragma once

#include <charconv>
#include <concepts>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dsn::cli {

/// One row of a tool's flag table. integer(), real(), text() and
/// toggle() build the rows for numbers, paths and switches; a word
/// flag's row sets its target through the word's own parser.
struct Flag {
  /// Every spelling, canonical first, separated by '|': "--jobs|-j".
  std::string_view names;
  /// Placeholder for the value in the usage text; empty for a switch.
  std::string_view metavar;
  /// Stores a value token (a switch gets an empty one); false refuses it.
  std::function<bool(std::string_view)> set;
  /// What a value must be, named when a token is refused.
  std::string want;
};

/// Reads all of `token` as a decimal integer in [lo, hi] into `out`;
/// false (and `out` untouched) otherwise.
template <std::integral Int>
bool parseInteger(std::string_view token, Int& out,
                  std::type_identity_t<Int> lo, std::type_identity_t<Int> hi) {
  Int value{};
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || stop != end || value < lo || value > hi)
    return false;
  out = value;
  return true;
}

/// The integer type an integer() target holds: T, or T's value type.
template <typename T>
struct ValueOf {
  using type = T;
};
template <typename T>
struct ValueOf<std::optional<T>> {
  using type = T;
};

/// A flag whose value is a whole decimal integer in [lo, hi]. `target`
/// is an integer, or an optional one that stays empty without the flag.
template <typename Target, std::integral Int = typename ValueOf<Target>::type>
Flag integer(std::string_view names, std::string_view metavar,
             Target& target,
             std::type_identity_t<Int> lo = std::numeric_limits<Int>::min(),
             std::type_identity_t<Int> hi = std::numeric_limits<Int>::max()) {
  return {names, metavar,
          [&target, lo, hi](std::string_view token) {
            Int value{};
            if (!parseInteger(token, value, lo, hi)) return false;
            target = value;
            return true;
          },
          "an integer in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]"};
}

/// Which end of a real flag's interval its bound excludes.
enum class Open : unsigned char { kNone, kLow, kHigh };

/// A flag whose value is a finite decimal real between lo and hi,
/// both included unless `open` excludes one. hi may be infinity.
Flag real(std::string_view names, std::string_view metavar, double& target,
          double lo, double hi, Open open = Open::kNone);

/// A flag whose value is kept as written (a path).
Flag text(std::string_view names, std::string_view metavar,
          std::string& target);

/// A switch: its presence sets `target`.
Flag toggle(std::string_view names, bool& target);

/// Walks argv[first, argc) against `flags`. Returns nullopt when the
/// tool should run on, or else the status it should exit with: 0 after
/// -h/--help (the usage on `out`), 2 after an unknown argument, a
/// missing value or a refused value (a line naming it, then the usage,
/// on `err`). `command` leads the usage text.
std::optional<int> parse(std::string_view command,
                         const std::vector<Flag>& flags, int argc,
                         const char* const* argv, int first = 1,
                         std::ostream& out = std::cout,
                         std::ostream& err = std::cerr);

/// Prints "usage: COMMAND [FLAG VALUE]...", wrapped under the command.
void usage(std::ostream& os, std::string_view command,
           const std::vector<Flag>& flags);

}  // namespace dsn::cli
