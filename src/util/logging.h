#ifndef DDSGRAPH_UTIL_LOGGING_H_
#define DDSGRAPH_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

/// \file
/// Minimal stream-based logging and assertion macros.
///
/// The library follows the Google style convention of not using exceptions;
/// unrecoverable invariant violations abort via `CHECK`, while recoverable
/// failures are reported through `ddsgraph::Status` (see util/status.h).
///
/// Usage:
///   LOG(INFO) << "loaded " << n << " vertices";
///   CHECK_GT(capacity, 0.0) << "capacities must be positive";
///
/// Verbosity is controlled globally with `SetLogThreshold`. The threshold
/// is applied when a message is emitted, so a message below it is still
/// formatted (its stream body is evaluated) and then dropped; keep LOG out
/// of hot loops.

namespace ddsgraph {

enum class LogSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Aliases so that call sites can write LOG(INFO) in the familiar style.
namespace log_severity {
inline constexpr LogSeverity DEBUG = LogSeverity::kDebug;
inline constexpr LogSeverity INFO = LogSeverity::kInfo;
inline constexpr LogSeverity WARNING = LogSeverity::kWarning;
inline constexpr LogSeverity ERROR = LogSeverity::kError;
inline constexpr LogSeverity FATAL = LogSeverity::kFatal;
}  // namespace log_severity

/// Sets the minimum severity that is printed to stderr. Defaults to kInfo.
void SetLogThreshold(LogSeverity severity);

/// Returns the current logging threshold.
LogSeverity GetLogThreshold();

namespace internal_logging {

/// Accumulates one log message and emits it (and aborts, for kFatal) on
/// destruction. Instances only exist as temporaries inside the LOG/CHECK
/// macros below.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when a log statement is disabled.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

/// Turns a streamed LogMessage into a void expression so it can sit on one
/// arm of the ternary in CHECK while still accepting `<< "extra context"`.
/// operator& is chosen because it binds looser than << and tighter than ?:.
struct Voidify {
  void operator&(std::ostream&) {}
  void operator&(NullStream&) {}
};

std::string FormatCheckOp(const char* expr, const std::string& lhs,
                          const std::string& rhs);

template <typename T>
std::string StringifyForCheck(const T& value) {
  std::ostringstream oss;
  oss << value;
  return oss.str();
}

}  // namespace internal_logging
}  // namespace ddsgraph

// The threshold is applied in the LogMessage destructor, so the message body
// is always formatted; log statements sit outside hot loops in this library.
#define LOG(severity)                                            \
  ::ddsgraph::internal_logging::LogMessage(                      \
      ::ddsgraph::log_severity::severity, __FILE__, __LINE__)    \
      .stream()

#define CHECK(condition)                                                    \
  (condition) ? (void)0                                                     \
              : ::ddsgraph::internal_logging::Voidify() &                   \
                    ::ddsgraph::internal_logging::LogMessage(               \
                        ::ddsgraph::LogSeverity::kFatal, __FILE__,          \
                        __LINE__)                                           \
                        .stream()                                           \
                    << "Check failed: " #condition " "

#define DDSGRAPH_CHECK_OP(name, op, lhs, rhs)                               \
  ((lhs)op(rhs))                                                            \
      ? (void)0                                                             \
      : ::ddsgraph::internal_logging::Voidify() &                           \
            ::ddsgraph::internal_logging::LogMessage(                       \
                ::ddsgraph::LogSeverity::kFatal, __FILE__, __LINE__)        \
                .stream()                                                   \
            << ::ddsgraph::internal_logging::FormatCheckOp(                 \
                   #lhs " " #op " " #rhs,                                   \
                   ::ddsgraph::internal_logging::StringifyForCheck(lhs),    \
                   ::ddsgraph::internal_logging::StringifyForCheck(rhs))

#define CHECK_EQ(a, b) DDSGRAPH_CHECK_OP(EQ, ==, a, b)
#define CHECK_NE(a, b) DDSGRAPH_CHECK_OP(NE, !=, a, b)
#define CHECK_LT(a, b) DDSGRAPH_CHECK_OP(LT, <, a, b)
#define CHECK_LE(a, b) DDSGRAPH_CHECK_OP(LE, <=, a, b)
#define CHECK_GT(a, b) DDSGRAPH_CHECK_OP(GT, >, a, b)
#define CHECK_GE(a, b) DDSGRAPH_CHECK_OP(GE, >=, a, b)

#ifndef NDEBUG
#define DCHECK(condition) CHECK(condition)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#else
#define DDSGRAPH_DCHECK_NOP(...) \
  while (false) ::ddsgraph::internal_logging::NullStream()
#define DCHECK(condition) DDSGRAPH_DCHECK_NOP()
#define DCHECK_EQ(a, b) DDSGRAPH_DCHECK_NOP()
#define DCHECK_NE(a, b) DDSGRAPH_DCHECK_NOP()
#define DCHECK_LT(a, b) DDSGRAPH_DCHECK_NOP()
#define DCHECK_LE(a, b) DDSGRAPH_DCHECK_NOP()
#define DCHECK_GT(a, b) DDSGRAPH_DCHECK_NOP()
#define DCHECK_GE(a, b) DDSGRAPH_DCHECK_NOP()
#endif

#endif  // DDSGRAPH_UTIL_LOGGING_H_
