// Error handling primitives shared by every swdual library.
//
// The project uses exceptions for unrecoverable API misuse and I/O failure
// (per C++ Core Guidelines E.2), with SWDUAL_CHECK/SWDUAL_REQUIRE macros to
// attach file:line context to the message. Both are always on: the project
// has one check tier, and no build compiles a check out.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace swdual {

/// Base class for all errors thrown by swdual libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input file or stream is malformed or unreadable.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Thrown when a caller violates a documented API precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace swdual

/// Validate a runtime invariant; throws swdual::Error with context on failure.
#define SWDUAL_CHECK(expr, msg)                                               \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::swdual::detail::throw_check_failure("check", #expr, __FILE__,         \
                                            __LINE__, (msg));                 \
    }                                                                         \
  } while (0)

/// Validate an API precondition; throws swdual::InvalidArgument on failure.
#define SWDUAL_REQUIRE(expr, msg)                                             \
  do {                                                                        \
    if (!(expr)) {                                                            \
      throw ::swdual::InvalidArgument(std::string("precondition (") + #expr + \
                                      ") violated: " + (msg));                \
    }                                                                         \
  } while (0)
