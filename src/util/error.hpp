// Error handling helpers.
//
// The libraries use exceptions only for contract violations and impossible
// states (programming errors or corrupted structures), never for ordinary
// control flow. `DSN_REQUIRE` documents preconditions on public entry
// points; `DSN_CHECK` asserts internal invariants that tests rely on.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dsn {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant is found broken; indicates a bug in
/// dsnet itself (or deliberate corruption in a test).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

// The text names the expression and the message but not the source
// file or line: serve copies it into error records, which must be a pure
// function of the job line, whatever the checkout path or the line the
// check sits on.
[[noreturn]] inline void throwPrecondition(const char* expr,
                                           const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

[[noreturn]] inline void throwInvariant(const char* expr,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}

}  // namespace detail
}  // namespace dsn

/// Validate a public-API precondition; throws dsn::PreconditionError.
#define DSN_REQUIRE(expr, msg)                                 \
  do {                                                         \
    if (!(expr)) ::dsn::detail::throwPrecondition(#expr, msg); \
  } while (false)

/// Validate an internal invariant; throws dsn::InvariantError.
#define DSN_CHECK(expr, msg)                                \
  do {                                                      \
    if (!(expr)) ::dsn::detail::throwInvariant(#expr, msg); \
  } while (false)
